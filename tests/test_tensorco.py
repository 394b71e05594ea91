from fractions import Fraction
from functools import partial
from itertools import product

import pytest

from gerstenhaber.genv import h_bracket, h_mu, polyvec_basis, sandbox_gerstenhaber
from gerstenhaber.graded import Letter, shifted, word_deg
from gerstenhaber.prng import SplitMix64
from gerstenhaber.shuffleco import ShuffleQuotient, bat, delta
from gerstenhaber.suites import _corrupt_sandbox, random_assoc_algebra, suite_tensorco
from gerstenhaber.tensorco import (ONE as UNIT, FiniteAlgebra,
                                   associativity, coassociativity,
                                   coderivation, coderivation_lift_tensor,
                                   cojacobi, cosymmetry, d_hochschild,
                                   deconcat, derivation, jacobi, m2,
                                   m_differential, square_zero, symmetry)

ONE = Letter(("a", "1"), 0)
X = Letter(("a", "x"), 0)


def nilpotent_algebra():
    """span{1, x} with x^2 = 0, everything in degree 0."""
    prod = {
        (ONE.ident, ONE.ident): {ONE.ident: Fraction(1)},
        (ONE.ident, X.ident): {X.ident: Fraction(1)},
        (X.ident, ONE.ident): {X.ident: Fraction(1)},
    }
    return FiniteAlgebra([ONE, X], prod, commutative=True)


def test_deconcat_examples():
    a, b, c = (Letter(("t", i), 0) for i in range(3))
    assert deconcat((a,)) == {}
    assert deconcat((a, b)) == {((a,), (b,)): Fraction(1)}
    assert deconcat((a, b, c)) == {
        ((a,), (b, c)): Fraction(1),
        ((a, b), (c,)): Fraction(1),
    }


def test_m2_signs():
    alg = nilpotent_algebra()
    s1, sx = shifted(ONE), shifted(X)
    # both letters have shifted degree -1: sign (-1)^(-1) = -1
    assert m2(s1, sx, alg) == {sx: Fraction(-1)}
    assert m2(sx, sx, alg) == {}
    # a letter of even shifted degree keeps the plain product
    even = Letter(("b", "e"), 1)
    alg2 = FiniteAlgebra([even], {})
    assert m2(shifted(even), shifted(even), alg2) == {}


def test_coderivation_lift_displayed_sum():
    alg = nilpotent_algebra()
    m = m_differential(alg)
    s1, sx = shifted(ONE), shifted(X)
    # on a 2-letter word: single term m2
    assert m({(s1, s1): Fraction(1)}) == {(s1,): Fraction(-1)}
    # on a 3-letter word: m2 in place 1, then (-1)^(a1) m2 in place 2
    out = m({(s1, sx, s1): Fraction(1)})
    # m2(1,x) = -x placed left; sign of second term is (-1)^(-1) = -1,
    # m2(x,1) = -x: total -(x (x) 1) + (1 (x) x)
    assert out == {(sx, s1): Fraction(-1), (s1, sx): Fraction(1)}


def test_coderivation_identity_family():
    alg = nilpotent_algebra()
    s1, sx = shifted(ONE), shifted(X)
    lift = coderivation_lift_tensor({1: lambda w: {w[0]: Fraction(1)}}, 0)
    word = (s1, sx, s1)
    assert lift({word: Fraction(1)}) == {word: Fraction(3)}


def test_hochschild_example():
    alg = nilpotent_algebra()
    s1, sx = shifted(ONE), shifted(X)
    table = {(sx,): {ONE: Fraction(1)}}
    C = lambda w: table.get(w, {})
    dC = d_hochschild(C, 2, alg)
    assert dC((sx, sx)) == {X: Fraction(2)}
    zero = d_hochschild(lambda w: {}, 2, alg)
    assert zero((sx, sx)) == {}


def test_hochschild_square_brute_force():
    rng = SplitMix64(11)
    from itertools import product as iproduct

    for _ in range(20):
        alg = random_assoc_algebra(rng)
        letters = [shifted(a) for a in alg.letters]
        arity = rng.randint(1, 2)
        table = {}
        for w in iproduct(letters, repeat=arity):
            if rng.randrange(2):
                table[w] = {rng.choice(alg.letters): Fraction(rng.randint(-2, 2))}
        C = lambda w: table.get(w, {})
        ddC = d_hochschild(
            d_hochschild(C, arity + 1, alg), arity + 2, alg, value_parity=1)
        for w in iproduct(letters, repeat=arity + 2):
            assert not {k: v for k, v in ddC(w).items() if v}


def test_validation_rejects_bad_table():
    a, b = Letter(("v", 0), 0), Letter(("v", 1), 0)
    # a*a = b, a*b = a is not associative
    prod = {
        (a.ident, a.ident): {b.ident: Fraction(1)},
        (a.ident, b.ident): {a.ident: Fraction(1)},
    }
    with pytest.raises(ValueError):
        FiniteAlgebra([a, b], prod)


def test_suite_green():
    for name, ok, bad in suite_tensorco(7, 30):
        assert ok, f"{name}: {bad}"


# ---------------------------------------------------------------------------
# every shared residual fires on a broken input and is empty on a valid one

def table_op(pairs):
    """A bilinear operation on letters from {(a, b): {c: coeff}}."""
    return lambda a, b: pairs.get((a, b), {})


def flip_one_term(cop, x0):
    """cop with one coefficient of cop(x0) negated: that of the first term
    whose left factor has more than one letter."""
    pair = next(p for p in cop(x0) if len(p[0]) > 1)

    def bad(x):
        out = dict(cop(x))
        if x == x0:
            out[pair] = -out[pair]
        return out

    return bad


def letter_deg(a):
    return a.degree


ODD = [(Letter(("o", i), 1),) for i in range(3)]  # one-letter odd words


def case_symmetry():
    x, y, z = (Letter(("n", i), 0) for i in range(3))
    noncommutative = table_op({(x, y): {z: UNIT}})
    return ([symmetry(noncommutative, letter_deg, x, y)],
            [symmetry(bat, word_deg, ODD[0], ODD[1])])


def case_associativity():
    a, b = Letter(("v", 0), 0), Letter(("v", 1), 0)
    nonassociative = table_op({(a, a): {b: UNIT}, (a, b): {a: UNIT}})
    return ([associativity(nonassociative, a, a, a)],
            [associativity(bat, *ODD)])


def case_jacobi():
    e1, e2, e3 = (Letter(("g", i), 0) for i in (1, 2, 3))
    # antisymmetric, but [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2] = e2
    br = table_op({(e1, e2): {e1: UNIT}, (e2, e1): {e1: -UNIT},
                   (e1, e3): {e2: UNIT}, (e3, e1): {e2: -UNIT}})
    pv = polyvec_basis(2)
    return ([jacobi(br, letter_deg, e1, e2, e3)],
            [jacobi(pv.bracket, letter_deg, a, b, c)
             for a, b, c in product(pv.letters, repeat=3)])


def case_leibniz():
    """[a, .] a derivation of the wedge, on a dimension-3 sandbox."""
    def residuals(basis):
        return [derivation(partial(basis.bracket, a), a.degree, basis.wedge,
                           basis.unshifted, b, c)
                for a, b, c in product(basis.letters, repeat=3)]
    return (residuals(_corrupt_sandbox(SplitMix64(1))),
            residuals(sandbox_gerstenhaber(SplitMix64(1))))


def case_derivation():
    """mu a derivation of the bracket extension, on a dimension-2 sandbox."""
    def residuals(basis):
        quo = ShuffleQuotient()
        words = [w for n in (1, 2) for ms in product(basis.letters, repeat=n)
                 for w in quo.representatives(ms)]
        return [derivation(lambda w: h_mu(w, basis, quo), 1,
                           lambda x, y: h_bracket(x, y, basis, quo),
                           word_deg, a, b)
                for a, b in product(words, repeat=2)]
    return (residuals(_corrupt_sandbox(SplitMix64(3))),
            residuals(sandbox_gerstenhaber(SplitMix64(3))))


def case_coassociativity():
    w = tuple(Letter(("t", i), 0) for i in range(3))
    return ([coassociativity(flip_one_term(deconcat, w), w)],
            [coassociativity(deconcat, w)])


def lie_cocrochet_case():
    """delta on a three-letter representative with odd and even letters."""
    pv = polyvec_basis(2)
    quo = ShuffleQuotient()
    w = quo.representatives([pv.letters[i] for i in (1, 4, 6)])[0]
    return w, lambda u: delta(u, quo)


def case_cojacobi():
    w, dl = lie_cocrochet_case()
    return ([cojacobi(flip_one_term(dl, w), word_deg, w)],
            [cojacobi(dl, word_deg, w)])


def case_cosymmetry():
    w, dl = lie_cocrochet_case()
    return ([cosymmetry(flip_one_term(dl, w), word_deg, w, -1)],
            [cosymmetry(dl, word_deg, w, -1)])


def case_coderivation():
    m = m_differential(nilpotent_algebra())
    D = lambda u: m({u: UNIT})
    w = (shifted(ONE), shifted(X), shifted(ONE))
    return ([coderivation(D, 1, flip_one_term(deconcat, w), 0, word_deg, w)],
            [coderivation(D, 1, deconcat, 0, word_deg, w)])


def case_square_zero():
    m = m_differential(nilpotent_algebra())
    w = (shifted(ONE), shifted(X), shifted(ONE))
    return ([square_zero(lambda u: {u: UNIT}, w)],
            [square_zero(lambda u: m({u: UNIT}), w)])


RESIDUAL_CASES = {
    "symmetry": case_symmetry,
    "associativity": case_associativity,
    "jacobi": case_jacobi,
    "leibniz": case_leibniz,
    "derivation": case_derivation,
    "coassociativity": case_coassociativity,
    "cojacobi": case_cojacobi,
    "cosymmetry": case_cosymmetry,
    "coderivation": case_coderivation,
    "square_zero": case_square_zero,
}


@pytest.mark.parametrize("name", sorted(RESIDUAL_CASES))
def test_residual_fires_on_broken_input_only(name):
    broken, valid = RESIDUAL_CASES[name]()
    assert any(broken)
    assert not any(valid)
