import hashlib
import json

import pytest

from gerstenhaber.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--seed", "7",
                       "--trials", "10")
    assert code == 0
    assert "FAIL" not in out and "PASS" in out


def test_verify_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--suite", "shuffle", "--seed", "7",
                         "--trials", "8")
    code2, out2, _ = run(capsys, "verify", "--suite", "shuffle", "--seed", "7",
                         "--trials", "8")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_corrupted_sandbox_fails(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "genv", "--seed", "3",
                       "--trials", "10", "--corrupt-sandbox")
    assert code == 1
    assert "FAIL" in out
    # a counterexample is printed
    assert "[" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 2
    assert "unknown suite" in err


def test_verify_rejects_zero_trials(capsys):
    code, out, err = run(capsys, "verify", "--suite", "all", "--trials", "0")
    assert code == 2 and out == ""
    assert "trials >= 1" in err


def test_verify_rejects_negative_trials(capsys):
    code, out, err = run(capsys, "verify", "--suite", "genv", "--trials", "-3",
                         "--format", "json")
    assert code == 2 and out == ""
    assert "trials >= 1" in err


@pytest.mark.parametrize("argv", [
    ["dims", "--d", "2", "--suite", "nope", "--trials", "-3", "--seed", "99"],
    ["dims", "--nmax", "2"],
    ["cocycle", "--format", "matrixmarket"],
    ["cocycle", "--d", "3", "--seed", "1"],
    ["verify", "--d", "9"],
    ["verify", "--format", "matrixmarket"],
    ["differential", "--Nmax", "2"],
    ["differential", "--trials", "5"],
])
def test_flags_of_other_commands_are_usage_errors(argv, capsys):
    """Each command takes only the flags it reads."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "symco", "--trials", "1"],
    ["dims", "--d", "1"],
    ["cocycle", "--d", "3", "--kmax", "1"],
    ["differential", "--d", "1", "--level", "1"],
    ["differential", "--level", "1", "--operator", "dC"],
])
def test_unwritable_out_is_a_usage_error(argv, tmp_path, capsys):
    """An --out path that cannot be opened (here a directory) is one stderr
    line and exit 2, not a traceback and the exit code of a failed check."""
    code, out, err = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith(f"cannot write --out {tmp_path}: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_dims_d3(capsys):
    code, out, _ = run(capsys, "dims", "--d", "3", "--Nmax", "2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["polyvector_components"] == {"0": 1, "1": 9, "2": 18, "3": 10} or \
        payload["polyvector_components"] == {"0": 1, "1": 9, "2": 18, "3": 10}
    assert payload["total"] == 38
    assert payload["quotient_dims"]["2"] == 722


@pytest.mark.parametrize("nmax", ["0", "-3", "4", "5"])
def test_dims_rejects_nmax_outside_one_to_three(nmax, capsys):
    code, out, err = run(capsys, "dims", "--d", "2", "--Nmax", nmax)
    assert code == 2 and out == ""
    assert f"need 1 <= Nmax <= 3, got {nmax}" in err


def test_dims_lengths_up_to_nmax(capsys):
    lines = ["homogeneous polyvector fields on R^2:", "  tensor degree 0: 1",
             "  tensor degree 1: 4", "  tensor degree 2: 3", "  total: 8",
             "shuffle quotient dimensions (all letters):", "  length 1: 8",
             "  length 2: 32", "  length 3: 168"]
    for nmax in (1, 2, 3):
        code, out, err = run(capsys, "dims", "--d", "2", "--Nmax", str(nmax))
        assert code == 0 and err == ""
        assert out == "\n".join(lines[:6 + nmax]) + "\n"
    assert run(capsys, "dims", "--d", "2")[1] == out


@pytest.mark.parametrize("argv, want", [
    (["--d", "3"],
     "6154555988adc3eb64fc9716dbcb72cd9ac014255eb0535a8b181328b3923823"),
    (["--d", "2", "--kmax", "2"],
     "93d37ee55a9016717355dff0d237ca42661a96f15e55373593925886bc60abb9"),
])
def test_dims_golden_digest_full_nmax(argv, want, capsys):
    """The quotient dimensions at the default --Nmax 3 (every multiset up to
    length 3 at d = 3, k <= 3, and up to length 3 at d = 2, k <= 2), pinned
    byte for byte."""
    code, out, _ = run(capsys, "dims", *argv, "--format", "json")
    assert code == 0
    assert sha256(out) == want


def test_dims_d1_and_rejection(capsys):
    code, out, _ = run(capsys, "dims", "--d", "1", "--Nmax", "1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["polyvector_components"] == {"0": 1, "1": 1}
    code, _, err = run(capsys, "dims", "--d", "0")
    assert code == 2


def test_cocycle_rejects_low_dimension(capsys):
    code, _, err = run(capsys, "cocycle", "--d", "2")
    assert code == 2


def test_cocycle_rejects_kmax_zero(capsys):
    code, out, err = run(capsys, "cocycle", "--d", "3", "--kmax", "0")
    assert code == 2 and out == ""
    assert "kmax >= 1" in err


def test_cocycle_rejects_negative_kmax(capsys):
    code, out, err = run(capsys, "cocycle", "--d", "3", "--kmax", "-1")
    assert code == 2 and out == ""
    assert "kmax >= 1" in err


@pytest.mark.parametrize("flag, value", [("--Nmax", "0"), ("--Nmax", "-2"),
                                         ("--nmax", "0"), ("--nmax", "-2")])
def test_cocycle_rejects_bounds_below_one(flag, value, capsys):
    """A window bound below 1 is a usage error naming the flag, not an
    insufficient truncation."""
    code, out, err = run(capsys, "cocycle", "--d", "3", "--kmax", "1",
                         flag, value)
    assert code == 2 and out == ""
    assert f"{flag.lstrip('-')} >= 1, got {value}" in err
    assert "truncation" not in err


@pytest.mark.parametrize("flag", ["--Nmax", "--nmax"])
def test_cocycle_too_small_bound_is_insufficient_truncation(flag, capsys):
    code, out, err = run(capsys, "cocycle", "--d", "3", "--kmax", "1",
                         flag, "3")
    assert code == 2 and out == ""
    assert err.startswith("insufficient truncation: ")


def test_dims_rejects_negative_kmax(capsys):
    code, out, err = run(capsys, "dims", "--d", "3", "--kmax", "-2")
    assert code == 2 and out == ""
    assert "kmax >= 0" in err


def test_cocycle_clamps_and_reports_kmax(capsys):
    code, out, _ = run(capsys, "cocycle", "--d", "3", "--kmax", "1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["truncation"]["kmax"] == 1
    code, out, _ = run(capsys, "cocycle", "--d", "3", "--kmax", "9",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["truncation"]["kmax"] == 3


DIFFERENTIAL_OPERATORS = ["dch", "dH", "dHa", "dC"]


@pytest.mark.parametrize("operator", DIFFERENTIAL_OPERATORS)
def test_differential_rejects_negative_kmax(operator, capsys):
    code, out, err = run(capsys, "differential", "--operator", operator,
                         "--d", "2", "--kmax", "-1", "--level", "1")
    assert code == 2 and out == ""
    assert "kmax >= 0" in err


@pytest.mark.parametrize("operator", DIFFERENTIAL_OPERATORS)
def test_differential_rejects_nmax_zero(operator, capsys):
    code, out, err = run(capsys, "differential", "--operator", operator,
                         "--d", "2", "--nmax", "0", "--level", "1")
    assert code == 2 and out == ""
    assert "nmax >= 1" in err


def test_differential_clamps_kmax(capsys):
    code, out, _ = run(capsys, "differential", "--d", "2", "--kmax", "5",
                       "--level", "1")
    assert code == 0
    assert out == run(capsys, "differential", "--d", "2", "--kmax", "2",
                      "--level", "1")[1]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_verify_all_golden_digest(capsys):
    """The seeded verify report at 5 trials (the benchmark's argv) and at
    50, pinned byte for byte; the text report names no trial count."""
    for trials in ("5", "50"):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--seed", "7",
                           "--trials", trials)
        assert code == 0
        assert sha256(out) == \
            "4f66f44eeb0dedd939c2e9f2b36b9721a27fbaf0ebdff54395d4f0c0fa7718fa"


@pytest.mark.parametrize("seed, want", [
    ("3", "91bec5a1b214adac3a007ffa8986bce96ebe55f3ebb2a38c738e377b4da5a11a"),
    ("7", "479dfeb76edfa11c0a555de98b62bb8eac1f1dda44b24f7dfc4aa8b533f066f7"),
])
def test_verify_corrupted_sandbox_golden_digest(seed, want, capsys):
    """The failing genv report on corrupted sandboxes, first counterexamples
    included, pinned byte for byte."""
    code, out, _ = run(capsys, "verify", "--suite", "genv", "--seed", seed,
                       "--trials", "10", "--corrupt-sandbox")
    assert code == 1
    assert sha256(out) == want


def test_differential_golden_digest(capsys):
    """The exported level-2 coboundary matrix at d=2, k<=1, pinned byte for
    byte."""
    code, out, _ = run(capsys, "differential", "--d", "2", "--kmax", "1",
                       "--level", "2")
    assert code == 0
    assert sha256(out) == \
        "f111598a7f93ebea26e6003e02b4a6a15d1583b1f5715bbf37a877af1a487078"


@pytest.mark.parametrize("argv, want", [
    (["--d", "3", "--kmax", "1", "--level", "2"],
     "f2c457a26777e737a10722e91cc2c94b485f4911eb2c356a09ef24f80bf7d99d"),
    (["--d", "2", "--kmax", "2", "--level", "2"],
     "246b00a737f4bc013109b22fe13b639078f5e6daf06fbbe126bf8521e65c1b70"),
    (["--d", "3", "--kmax", "1", "--level", "3"],
     "7b43993fc1d8372615d97e9ad4de97dccf5963df016faf14d247dd0b0176919a"),
    (["--d", "2", "--kmax", "2", "--level", "3"],
     "565f6190f2ffafac86949331647884b47110e5139a4a35ef9b3f63490528b7ef"),
    (["--d", "1", "--level", "9"],
     "43243742669700b644d67d8a8dcf64b6b232ce9af7f4547a66db22b48112e63b"),
])
def test_differential_golden_digest_rows(argv, want, capsys):
    """The exported level-2 and level-3 coboundary matrices at d=3, k<=1 and
    at d=2, k<=2 (bivector brackets), and the level-9 one at d=1, whose
    packets have up to 10 letters, pinned byte for byte."""
    code, out, _ = run(capsys, "differential", *argv)
    assert code == 0
    assert sha256(out) == want


def test_differential_deterministic_and_product(tmp_path, capsys):
    out1 = tmp_path / "m1.json"
    out2 = tmp_path / "m2.json"
    code, _, _ = run(capsys, "differential", "--d", "2", "--kmax", "1",
                     "--level", "1", "--nmax", "3", "--out", str(out1))
    assert code == 0
    code, _, _ = run(capsys, "differential", "--d", "2", "--kmax", "1",
                     "--level", "1", "--nmax", "3", "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()

    # offline product check: consecutive exported levels multiply to zero
    from gerstenhaber.chcoh import (assemble_matrix, level_shapes,
                                    reachable_shapes, real_polyvec_context)

    ctx = real_polyvec_context(2, 1)
    src = level_shapes(1, 3)
    m1, rows1, _ = assemble_matrix(ctx, src)
    payload = json.loads(out1.read_text())
    assert payload["nrows"] == m1.nrows and payload["ncols"] == m1.ncols
    m2, _, cols2 = assemble_matrix(ctx, reachable_shapes(src))
    assert cols2 == rows1 and m2.mul(m1).is_zero()


def test_differential_matrixmarket_format(tmp_path, capsys):
    out = tmp_path / "m.mtx"
    code, _, _ = run(capsys, "differential", "--d", "2", "--kmax", "1",
                     "--level", "1", "--nmax", "2",
                     "--format", "matrixmarket", "--out", str(out))
    assert code == 0
    text = out.read_text()
    assert text.startswith("%%MatrixMarket matrix coordinate rational general")


CLASSICAL_DIGESTS = [
    ("dH", 1, "2416438b575146e908efd7ec83fd741c15c7670103aaffc7d1d95a17eb13b785"),
    ("dH", 2, "055127f8ce915695145a8bb9bbee739a1fcc45cc696108774b2867929e62961f"),
    ("dH", 3, "566f3d19c3190c6040bfa6d456c89555f4255b27498f628577f2983f5fcf9f0f"),
    ("dHa", 1, "c8a724022d456e40d484bd1ac9febc7066ffe86dc29f72c1ab0cc9d5a84aa1d5"),
    ("dHa", 2, "e5cb48d70de951c776685d405bde4f6e4ddfb697da079298a1d62537f568caaa"),
    ("dHa", 3, "226b6a9229472f7d8f8dc66c02cc81b55e956a530ddb511c08c8fe582c83ad18"),
    ("dC", 1, "d5feac9516839a10bf938311c434830a94f1ff786c8b85bfae5be06f6a8c75ef"),
    ("dC", 2, "a3cf29c064c1594aff9e745f50c95441b6e84988d4195f7cb9e389bdfbb99b8f"),
    ("dC", 3, "246247fbe762d12df32f4d4833054edfab1fc0695c1bd6cb695eb6e3f72d5492"),
]


@pytest.mark.parametrize("op, level, want", CLASSICAL_DIGESTS,
                         ids=[f"{op}-{level}" for op, level, _ in CLASSICAL_DIGESTS])
def test_differential_classical_operators(op, level, want, tmp_path, capsys):
    """The classical Hochschild, Harrison and Chevalley exports, pinned byte
    for byte."""
    out = tmp_path / f"{op}{level}.json"
    code, _, _ = run(capsys, "differential", "--operator", op,
                     "--level", str(level), "--out", str(out))
    assert code == 0
    assert sha256(out.read_text()) == want


def test_differential_dC_level1_is_the_textbook_coboundary(capsys):
    """On the Lie algebra [l1, l2] = l1 with trivial coefficients,
    dC(delta_l1)(l1, l2) = -delta_l1([l1, l2]) = -1 and dC(delta_l2) = 0."""
    code, out, _ = run(capsys, "differential", "--operator", "dC", "--level", "1")
    assert code == 0
    assert json.loads(out) == {"nrows": 1, "ncols": 2, "entries": [[0, 0, "-1/1"]]}


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "symco", "--seed", "5",
                       "--trials", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 5
    assert all(r["pass"] for r in payload["results"])


def test_cocycle_kmax1_golden_digest(capsys):
    """The headline decision at k <= 1 as JSON, pinned byte for byte."""
    code, out, _ = run(capsys, "cocycle", "--d", "3", "--kmax", "1", "--format", "json")
    assert code == 0
    assert sha256(out) == \
        "2c45a8b5acd46360c84a41fe53dae0cacee363119ca99ad85a36437facf9dcb9"


@pytest.mark.parametrize("argv, want", [
    (["--d", "3", "--kmax", "3"],
     "5f64ce1f1eb28800de315708aa38b43cbe631fc99e59c3620ec72144c73317bf"),
    (["--d", "4", "--kmax", "1"],
     "e8dbac81ce5e47de4964eb299fc4db01c456062d97a5bc938523c9c2f925656d"),
    (["--d", "4", "--kmax", "2"],
     "9e226fa30b7f048fba85c4bbb3f6119c4c7594f7a7faca30590ba8edebdf7046"),
    (["--d", "5", "--kmax", "1"],
     "92b20fa75f8903269d766739563476bb5a5ab219ffa35398f55cec0f41a28ec1"),
    (["--d", "4"],
     "1d04b795500aa35f55a62a975aaf10cc715acecb6a9589a147c987c6d08b4e30"),
    (["--d", "5"],
     "1b4321a91bd79a78bf6704b1c99093182edd8230ae33f6152213f36faba0b30e"),
    (["--d", "6", "--kmax", "2"],
     "e456db3bae5d104dcb370e435349a812e02c82d976d66d4dccc83d303da19b41"),
    (["--d", "6"],
     "69121226abc762bcd6e2a80f1c0ebee73c72274d1d7bb5dd01839f1f2773eb07"),
    (["--d", "7"],
     "98178dba237bd927a6a61fc1e60e5f94bdd91959b6bceedbbb8f501b030ea863"),
    (["--d", "8"],
     "601a770948e7de94c522ef4215340ffa103067547c21e581a02194bec38b9439"),
    (["--d", "11"],
     "29ce076032d49ec6585799713e6d959aa4d8a67612e597b48c9045b9a6886c4c"),
])
def test_cocycle_golden_digest(argv, want, capsys):
    """The headline decision at d=3, k<=3, at d=4, k<=1, k<=2 and k<=4, at
    d=5, k<=1 and k<=5, at d=6, k<=2 and k<=6, at d=7, k<=7, at d=8, k<=8
    and at d=11, k<=11 as JSON, pinned byte for byte.  The d=11 digest was
    taken when ``cocycle`` still built its basis on all of R^11."""
    code, out, _ = run(capsys, "cocycle", *argv, "--format", "json")
    assert code == 0
    assert sha256(out) == want


def test_cocycle_pipeline_d3(capsys):
    code, out, _ = run(capsys, "cocycle", "--d", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "1"
    assert payload["cocycle"] is True and payload["coboundary"] is False
