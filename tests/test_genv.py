from fractions import Fraction
from itertools import permutations

import pytest

from gerstenhaber import genv
from gerstenhaber import polyvec as pv
from gerstenhaber.chcoh import (Truncation, f3_111, is_coboundary, is_cocycle,
                                real_polyvec_context)
from gerstenhaber.genv import (GerstBasis, exterior_of_lie, h_bracket,
                               h_bracket_raw, h_mu, polyvec_basis,
                               sandbox_gerstenhaber)
from gerstenhaber.graded import koszul_sign
from gerstenhaber.prng import SplitMix64
from gerstenhaber.shuffleco import ShuffleQuotient
from gerstenhaber.suites import suite_genv
from gerstenhaber.tensorco import add_term, int_view
import oracles
from oracles import zero_gerstenhaber


def brute_bracket(a, b, basis):
    """Independent route: filter all permutations for the shuffle condition."""
    p, q = len(a), len(b)
    letters = a + b
    degs = [x.degree for x in letters]
    out = {}
    for perm in permutations(range(p + q)):
        # perm[k] = original index at position k; shuffle condition
        pos_of = [0] * (p + q)
        for k, orig in enumerate(perm):
            pos_of[orig] = k
        if any(pos_of[i] > pos_of[i + 1] for i in range(p - 1)):
            continue
        if any(pos_of[i] > pos_of[i + 1] for i in range(p, p + q - 1)):
            continue
        sign = koszul_sign(degs, list(perm))
        for k in range(p + q - 1):
            if perm[k] < p <= perm[k + 1]:
                br = basis.bracket(letters[perm[k]], letters[perm[k + 1]])
                head = tuple(letters[perm[i]] for i in range(k))
                tail = tuple(letters[perm[i]] for i in range(k + 2, p + q))
                for letter, c in br.items():
                    add_term(out, head + (letter,) + tail, Fraction(sign) * c)
    return out


def test_bracket_single_letters_is_table():
    basis = polyvec_basis(2)
    for a in basis.letters[:6]:
        for b in basis.letters[:6]:
            got = h_bracket_raw((a,), (b,), basis)
            want = {(c,): v for c, v in basis.bracket(a, b).items()}
            assert got == want


def test_bracket_matches_brute_force():
    """Every length pair p, q in 1..4, both argument orders, on the polyvector
    basis and on sandboxes, whose odd letters make the extra shuffle sign
    matter."""
    rng = SplitMix64(51)
    bases = [polyvec_basis(2)] + [sandbox_gerstenhaber(rng) for _ in range(4)]
    nonzero = 0
    for p in range(1, 5):
        for q in range(1, 5):
            for basis in bases:
                a = tuple(rng.choice(basis.letters) for _ in range(p))
                b = tuple(rng.choice(basis.letters) for _ in range(q))
                for x, y in ((a, b), (b, a)):
                    got = h_bracket_raw(x, y, basis)
                    assert got == brute_bracket(x, y, basis)
                    nonzero += bool(got)
    assert nonzero > 100


def test_mu_small_cases():
    basis = polyvec_basis(2)
    quo = ShuffleQuotient()
    a = basis.letters[0]
    assert h_mu((a,), basis, quo) == {}
    vf = [x for x in basis.letters if x.degree == 0]
    got = h_mu((vf[0], vf[1]), basis, quo)
    want = {}
    for c, v in basis.mu2(vf[0], vf[1]).items():
        want[(c,)] = v
    assert got == {k: v for k, v in want.items() if v}


def test_exterior_of_lie_is_validated():
    basis = exterior_of_lie(2, {(1, 2): {1: Fraction(1)}, (2, 1): {1: Fraction(-1)}})
    assert len(basis.letters) == 4
    # degree of the top generator product
    assert max(a.degree for a in basis.letters) == 1


def test_corrupt_bracket_caught_by_validation():
    table = {(1, 2): {1: Fraction(1)}, (2, 1): {1: Fraction(1)}}  # not antisymmetric
    with pytest.raises(ValueError):
        exterior_of_lie(2, table)


def test_zero_sandbox_kills_everything():
    basis = zero_gerstenhaber(3)
    quo = ShuffleQuotient()
    a = tuple(basis.letters[:2])
    assert h_bracket(a, a, basis, quo) == {}
    assert h_mu(a, basis, quo) == {}


def test_theorem_identities_suite():
    # antisymmetry, Jacobi, derivation property, shuffle compatibility
    for name, ok, bad in suite_genv(7, 60, polyvec_basis(2)):
        assert ok, f"{name}: {bad}"


def test_corrupted_sandbox_fails_suite():
    results = suite_genv(7, 40, polyvec_basis(2), corrupt=True)
    assert any(not ok for _, ok, _ in results)
    # and a counterexample is reported
    assert any(bad for _, ok, bad in results if not ok)


def test_polyvec_constants_are_computed_on_first_read_and_once(monkeypatch):
    """polyvec_basis calls no monomial formula; the headline decision at
    d = 4 calls them once per distinct source pair it reads, about three
    hundred of the 2 * 192^2 pairs: d_ch brackets only packets whose
    terms can reach f's support."""
    calls = []
    for name in ("wedge_monos", "schouten_monos"):
        def counted(ma, mb, formula=getattr(genv, name)):
            calls.append((formula, ma, mb))
            return formula(ma, mb)
        monkeypatch.setattr(genv, name, counted)
    reads = set()
    for name in ("wedge", "bracket"):
        def recorded(self, a, b, read=getattr(GerstBasis, name), name=name):
            reads.add((self, name, a.ident, b.ident))
            return read(self, a, b)
        monkeypatch.setattr(GerstBasis, name, recorded)

    assert len(polyvec_basis(6).letters) == 5336
    assert calls == []
    ctx = real_polyvec_context(4)
    trunc = Truncation(4, 4, 4, 4)
    f3 = f3_111(4, ctx)
    assert is_cocycle(f3, ctx, trunc)
    assert is_coboundary(f3, ctx, trunc) is None
    source_reads = [r for r in reads if r[0] is ctx.source]
    assert len(calls) == len(source_reads)
    assert 200 < len(calls) < 500


@pytest.mark.parametrize("d, kmax", [(5, 5), (5, 2), (6, 6), (6, 3)])
def test_polyvec_constants_match_the_polyvec_oracle(d, kmax):
    """Past the pinned table digests (d <= 4): on a seeded sample of letter
    pairs, wedge and bracket equal ``oracles.wedge``/``schouten`` on the
    letters' polyvectors, and a product of tensor degree above kmax is cut
    to {} (at kmax = d every such product is zero anyway)."""
    rng = SplitMix64(10 * d + kmax)
    basis = polyvec_basis(d, kmax)
    cut = nonzero = 0
    for _ in range(400):
        a, b = rng.choice(basis.letters), rng.choice(basis.letters)
        pa, pb = oracles.letter_polyvec(d, a), oracles.letter_polyvec(d, b)
        for got, want in ((basis.wedge(a, b), oracles.wedge(pa, pb)),
                          (basis.bracket(a, b), oracles.schouten(pa, pb))):
            if want.k > kmax:
                assert got == {}
                cut += not want.is_zero()
            else:
                assert got == {basis.by_ident[pv.hom_ident(m)]: c
                               for m, c in want.terms.items()}
                nonzero += bool(got)
    assert nonzero > 20
    assert cut > 20 if kmax < d else cut == 0


def test_halved_bracket_keeps_exact_fractions():
    """A GerstBasis whose bracket table is halved through ``int_view``
    brackets packets to exactly half of the integral basis's value, with the
    non-integral coefficients as Fractions."""
    basis = polyvec_basis(2)
    halved = {key: {i: c / 2 for i, c in val.items()}
              for key, val in basis.bracket_table.items()}
    half = GerstBasis(basis.letters, basis.wedge_op, int_view(halved))
    quo = ShuffleQuotient()
    rng = SplitMix64(23)
    halves = 0
    for _ in range(60):
        x = tuple(rng.choice(basis.letters) for _ in range(rng.randint(1, 2)))
        y = tuple(rng.choice(basis.letters) for _ in range(rng.randint(1, 2)))
        want = {w: Fraction(c, 2) for w, c in h_bracket(x, y, basis, quo).items()}
        got = h_bracket(x, y, half, quo)
        assert got == want
        halves += sum(type(c) is Fraction and c.denominator == 2
                      for c in got.values())
    assert halves > 10


def assert_constants_as_computed(basis):
    """Each letter-pair constant read through ``wedge``, ``bracket`` and
    ``mu2`` is the kept one and equals the op's value computed afresh."""
    for a in basis.letters:
        sign = -1 if a.degree % 2 else 1
        for b in basis.letters:
            wedge = basis._on_letters(basis.wedge_op(a.ident, b.ident))
            bracket = basis._on_letters(basis.bracket_op(a.ident, b.ident))
            assert basis.wedge(a, b) == wedge and basis.wedge(a, b) is basis.wedge(a, b)
            assert basis.bracket(a, b) == bracket
            assert basis.bracket(a, b) is basis.bracket(a, b)
            assert basis.mu2(a, b) == {c: sign * v for c, v in wedge.items()}
            assert basis.mu2(a, b) is basis.mu2(a, b)


def test_kept_letter_constants_survive_decisions_and_suites():
    """The kept constants of two polyvector bases and a drawn sandbox equal
    freshly computed ones before and after a d = 3 cocycle decision on
    polyvec_basis(3, 1), the suites that take a basis (genv, shuffle,
    ginfty, two trials each) run on every one of them, and d_ch applied
    twice on the sandbox: no caller changes a kept dict."""
    from gerstenhaber.chcoh import (Cochain, constants_context, d_ch,
                                    level_shapes, monomials_for_shape)
    from gerstenhaber.suites import suite_ginfty, suite_shuffle

    pv2, pv31 = polyvec_basis(2), polyvec_basis(3, 1)
    rng = SplitMix64(19)
    sandbox = sandbox_gerstenhaber(rng)
    bases = (pv2, pv31, sandbox)
    for basis in bases:
        assert_constants_as_computed(basis)
    ctx = constants_context(pv31)
    trunc = Truncation(3, 1, 4, 4)
    f3 = f3_111(3, ctx)
    assert is_cocycle(f3, ctx, trunc) and is_coboundary(f3, ctx, trunc) is None
    for basis in bases:
        for suite in (suite_genv, suite_shuffle, suite_ginfty):
            assert all(ok for _, ok, _ in suite(7, 2, basis))
    ctx = constants_context(sandbox)
    one = ctx.target.letters[0]
    trunc = Truncation(2, 1, 4, 4)
    vals = {mono: {one: rng.randint(-2, 2)} for shape in level_shapes(2, 3)
            for mono in monomials_for_shape(ctx, shape)}
    assert d_ch(d_ch(Cochain(vals, 2), ctx, trunc), ctx, trunc).is_zero()
    for basis in bases:
        assert_constants_as_computed(basis)
