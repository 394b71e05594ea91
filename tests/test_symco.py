from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerstenhaber.exactlin import rank
from gerstenhaber.graded import Letter, koszul_sign, unshuffle_sign
from gerstenhaber.prng import SplitMix64
from gerstenhaber.suites import random_lie, suite_symco
from gerstenhaber.symco import (LieData, classical_matrix, d_chevalley,
                                d_chevalley_classical, ell2, ell_lift, sdeg,
                                sym_coproduct, sym_key)
from gerstenhaber.tensorco import add_term

E1, E2 = Letter(("g", 1), 0), Letter(("g", 2), 0)


def solvable_lie():
    """[e1, e2] = e1 in degree 0."""
    br = {
        (E1.ident, E2.ident): {E1.ident: Fraction(1)},
        (E2.ident, E1.ident): {E1.ident: Fraction(-1)},
    }
    return LieData([E1, E2], br)


def test_sym_key_canonicalization():
    word, sign = sym_key([E2, E1])
    assert word == (E1, E2)
    # both letters have odd shifted degree -1: one transposition gives -1
    assert sign == -1
    word, sign = sym_key([E1, E1])
    assert word is None and sign == 0


def sym_key_oracle(letters) -> tuple:
    """The former ``sym_key``: sort positions, then ``koszul_sign``."""
    idx = sorted(range(len(letters)), key=lambda i: (letters[i].ident, i))
    word = tuple(letters[i] for i in idx)
    for a, b in zip(word, word[1:]):
        if a == b and sdeg(a) % 2:
            return None, 0
    sign = koszul_sign([sdeg(a) for a in letters], idx)
    return word, sign


def add_sym_term_oracle(acc, letters, coeff):
    word, sign = sym_key_oracle(letters)
    if word is not None:
        add_term(acc, word, sign * coeff)


def ell_lift_oracle(data: LieData):
    """The former ``ell_lift``, with its own l1 and l2 sign loops."""

    def ell(elem):
        out = {}
        for word, coeff in elem.items():
            n = len(word)
            degs = [sdeg(a) for a in word]
            if data.diff_table:
                for j in range(n):
                    sign = -1 if sum(degs[:j]) % 2 else 1
                    for letter, c in data.d_letter(word[j]).items():
                        add_sym_term_oracle(
                            out,
                            list(word[:j]) + [letter] + list(word[j + 1 :]),
                            coeff * sign * c,
                        )
            for i in range(n):
                for j in range(i + 1, n):
                    rest = [word[k] for k in range(n) if k != i and k != j]
                    sign = unshuffle_sign(degs, [i, j])
                    for letter, c in ell2(data, word[i], word[j]).items():
                        add_sym_term_oracle(out, [letter] + rest, coeff * sign * c)
        return out

    return ell


# unshifted degrees -1..2: shifted degrees of both parities
SYM_LETTERS = [Letter(("s", i), i % 4 - 1) for i in range(5)]


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(SYM_LETTERS), max_size=7))
def test_sym_key_matches_the_former_sort(letters):
    assert sym_key(letters) == sym_key_oracle(letters)


def test_ell_lift_matches_the_former_loops():
    """On seeded random_lie words of length 1 to 4, one at a time and summed
    with random coefficients; every kind of algebra, the one with a
    differential included, is drawn."""
    rng = SplitMix64(23)
    compared = kinds = 0
    for _ in range(80):
        lie = random_lie(rng)
        kinds |= 1 << bool(lie.diff_table)
        ell, oracle = ell_lift(lie), ell_lift_oracle(lie)
        elem = {}
        for _ in range(4):
            word, _ = sym_key([rng.choice(lie.letters) for _ in range(rng.randint(1, 4))])
            if word is None:
                continue
            assert ell({word: Fraction(1)}) == oracle({word: Fraction(1)})
            add_term(elem, word, Fraction(rng.randint(-3, 3)))
            compared += 1
        assert list(ell(elem).items()) == list(oracle(elem).items())
    assert compared > 150 and kinds == 3


def test_sym_coproduct_small():
    assert sym_coproduct((E1,)) == {}
    out = sym_coproduct((E1, E2))
    assert out == {
        ((E1,), (E2,)): Fraction(1),
        ((E2,), (E1,)): Fraction(-1),
    }
    evens = [Letter(("h", i), 1) for i in range(3)]
    out = sym_coproduct(tuple(evens))
    assert len(out) == 6 and all(v == 1 for v in out.values())


def test_ell_lift_cases():
    lie = solvable_lie()
    ell = ell_lift(lie)
    assert ell({(E1,): Fraction(1)}) == {}
    # l2(X,Y) = (-1)^x [X,Y] with x = -1
    assert ell({(E1, E2): Fraction(1)}) == {(E1,): Fraction(-1)}
    abelian = LieData([E1, E2], {})
    ell0 = ell_lift(abelian)
    assert ell0({(E1, E2): Fraction(1)}) == {}


def test_ell_squares_to_zero():
    rng = SplitMix64(21)
    for _ in range(30):
        lie = random_lie(rng)
        ell = ell_lift(lie)
        word, _ = sym_key([rng.choice(lie.letters) for _ in range(rng.randint(1, 4))])
        if word is None:
            continue
        assert not ell(ell({word: Fraction(1)}))


def test_classical_chevalley_values():
    lie = solvable_lie()
    C = lambda letters: {Letter(("R",), 0): letters[0].degree * 0 + (1 if letters[0] == E1 else 0)} \
        if len(letters) == 1 and letters[0] == E1 else {}
    dC = d_chevalley_classical(C, 1, lie)
    out = dC([E1, E2])
    assert out == {Letter(("R",), 0): Fraction(-1)}
    C2 = lambda letters: ({Letter(("R",), 0): Fraction(1)} if letters == [E2] or tuple(letters) == (E2,) else {})
    dC2 = d_chevalley_classical(C2, 1, lie)
    assert dC2([E1, E2]) == {}


def test_graded_recovers_classical():
    """Transported coboundaries agree with the textbook one up to the fixed
    decalage ratio (-1)^(n + deg_f + 1) for degree 0 algebras with trivial
    coefficients."""
    rng = SplitMix64(22)
    out_letter = Letter(("R",), 0)
    for lie in (solvable_lie(), random_lie(rng), random_lie(rng)):
        if any(a.degree != 0 for a in lie.letters) or lie.diff_table:
            continue
        habelian = LieData([out_letter], {})
        phi = lambda a: {}
        for n in (1, 2):
            table = {}
            for _ in range(4):
                word, sign = sym_key([rng.choice(lie.letters) for _ in range(n)])
                if word is not None:
                    table[word] = {out_letter: Fraction(sign * rng.randint(-2, 2))}

            def F(letters, _t=table):
                word, sign = sym_key(letters)
                if word is None:
                    return {}
                return {k: sign * v for k, v in _t.get(word, {}).items()}

            deg_f = rng.randrange(2)
            dL = d_chevalley(F, deg_f, lie, habelian, phi)
            dclassical = d_chevalley_classical(F, n, lie)
            ratio = (-1) ** (deg_f + 1)
            for _ in range(8):
                args = [rng.choice(lie.letters) for _ in range(n + 1)]
                lhs = dL(args)
                rhs = {k: ratio * v for k, v in dclassical(args).items()}
                assert {k: v for k, v in lhs.items() if v} == {
                    k: v for k, v in rhs.items() if v
                }


def lie_with_module(g: LieData, vletters, action, shift: int = 0) -> LieData:
    """The Lie algebra g (+) V[shift] with [X, v] = X.v and V abelian: the
    target that drives the action term of ``d_chevalley`` into a module.

    ``action[(x, v)]`` maps idents to dicts over module idents.  Module
    letters are re-graded by ``-shift``.
    """
    mletters = [Letter(("mod", v.ident), v.degree - shift) for v in vletters]
    letters = list(g.letters) + mletters
    bracket: dict = dict(g.bracket_table)
    for x in g.letters:
        for v in vletters:
            xv = action.get((x.ident, v.ident), {})
            if xv:
                bracket[(x.ident, ("mod", v.ident))] = {
                    ("mod", i): Fraction(c) for i, c in xv.items()
                }
                sign = -1 if x.degree % 2 and (v.degree - shift) % 2 else 1
                bracket[(("mod", v.ident), x.ident)] = {
                    ("mod", i): -sign * Fraction(c) for i, c in xv.items()
                }
    return LieData(letters, bracket)


def test_module_construction_and_action_term():
    lie = solvable_lie()
    v = Letter(("m", 0), 0)
    action = {(E2.ident, v.ident): {v.ident: Fraction(1)}}
    big = lie_with_module(lie, [v], action, shift=0)
    assert len(big.letters) == 3  # validated at construction
    # the action term of the graded coboundary fires through phi
    mv = big.by_ident[("mod", ("m", 0))]
    phi = lambda a: {big.by_ident[a.ident]: Fraction(1)}
    F = lambda letters: {mv: Fraction(1)} if len(letters) == 1 else {}
    dF = d_chevalley(F, 0, lie, big, phi)
    out = dF([E1, E2])
    assert out  # nonzero: bracket term plus action term


def test_validation_rejects_bad_jacobi():
    br = {
        (E1.ident, E2.ident): {E2.ident: Fraction(1)},
        (E2.ident, E1.ident): {E2.ident: Fraction(1)},  # breaks antisymmetry
    }
    with pytest.raises(ValueError):
        LieData([E1, E2], br)


def test_suite_green():
    for name, ok, bad in suite_symco(7, 30):
        assert ok, f"{name}: {bad}"


def test_abelian_trivial_action_gives_zero():
    abelian = LieData([E1, E2], {})
    out = Letter(("R",), 0)
    habelian = LieData([out], {})
    F = lambda ls: {out: Fraction(1)}
    dF = d_chevalley(F, 0, abelian, habelian, lambda a: {})
    assert dF([E1, E2]) == {}


@pytest.mark.parametrize("operator,dims", [
    ("dH", [2, 1, 1, 1, 1, 1]),
    ("dHa", [2, 1, 1, 0, 0, 0, 0, 0]),
    ("dC", [1, 1, 0]),
])
def test_classical_exports_have_the_known_cohomology(operator, dims):
    """dim H^n = ncols(d^n) - rank d^n - rank d^(n-1) of each classical
    export, at levels 0 .. len(dims) - 1, is the known one, and each
    d^(n+1) d^n is zero:
      - ``dH``: the Hochschild cohomology HH^n(A, A) of the dual numbers
        A = R[x]/(x^2) is A for n = 0 and one-dimensional for every n >= 1
        in characteristic 0 (Loday, *Cyclic Homology*, 1992);
      - ``dHa``: the Harrison cohomology of A in itself is A, then Der(A, A)
        and T^1 = A/(2x), each of dimension 1, and it vanishes in degrees
        >= 3 for a complete intersection in characteristic 0 (Harrison,
        *Trans. AMS* 104, 1962; Barr, *J. Algebra* 8, 1968);
      - ``dC``: the Chevalley-Eilenberg cohomology of aff(1), [l1, l2] = l1,
        with trivial coefficients R is 1, 1, 0 (Chevalley-Eilenberg,
        *Trans. AMS* 63, 1948)."""
    mats = [classical_matrix(operator, n) for n in range(len(dims))]
    ranks = [rank(m) for m in mats]
    assert [m.ncols - r - (ranks[n - 1] if n else 0)
            for n, (m, r) in enumerate(zip(mats, ranks))] == dims
    assert all(up.mul(m).is_zero() for m, up in zip(mats, mats[1:]))
