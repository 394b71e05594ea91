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


def test_dims_d3(capsys):
    code, out, _ = run(capsys, "dims", "--d", "3", "--Nmax", "2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["polyvector_components"] == {"0": 1, "1": 9, "2": 18, "3": 10} or \
        payload["polyvector_components"] == {"0": 1, "1": 9, "2": 18, "3": 10}
    assert payload["total"] == 38
    assert payload["quotient_dims"]["2"] == 722


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


def test_differential_rejects_negative_kmax(capsys):
    code, out, err = run(capsys, "differential", "--d", "2", "--kmax", "-1",
                         "--level", "1")
    assert code == 2 and out == ""
    assert "kmax >= 0" in err


def test_differential_rejects_nmax_zero(capsys):
    code, out, err = run(capsys, "differential", "--d", "2", "--nmax", "0",
                         "--level", "1")
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
    """The seeded verify report at 50 trials, pinned byte for byte."""
    code, out, _ = run(capsys, "verify", "--suite", "all", "--seed", "7",
                       "--trials", "50")
    assert code == 0
    assert sha256(out) == \
        "4f66f44eeb0dedd939c2e9f2b36b9721a27fbaf0ebdff54395d4f0c0fa7718fa"


def test_differential_golden_digest(capsys):
    """The exported level-2 coboundary matrix at d=2, k<=1, pinned byte for
    byte."""
    code, out, _ = run(capsys, "differential", "--d", "2", "--kmax", "1",
                       "--level", "2")
    assert code == 0
    assert sha256(out) == \
        "f111598a7f93ebea26e6003e02b4a6a15d1583b1f5715bbf37a877af1a487078"


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
    from fractions import Fraction

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


def test_differential_classical_operators(tmp_path, capsys):
    for op in ("dH", "dHa", "dC"):
        out = tmp_path / f"{op}.json"
        code, _, _ = run(capsys, "differential", "--operator", op,
                         "--level", "1", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["nrows"] >= 0


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "symco", "--seed", "5",
                       "--trials", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 5
    assert all(r["pass"] for r in payload["results"])


def test_cocycle_pipeline_d3(capsys):
    code, out, _ = run(capsys, "cocycle", "--d", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "1"
    assert payload["cocycle"] is True and payload["coboundary"] is False
