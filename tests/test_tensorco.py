from fractions import Fraction

import pytest

from gerstenhaber.graded import Letter, shifted
from gerstenhaber.prng import SplitMix64
from gerstenhaber.suites import random_assoc_algebra, suite_tensorco
from gerstenhaber.tensorco import (Bimodule, FiniteAlgebra,
                                   coderivation_lift_tensor, d_hochschild,
                                   deconcat, m2,
                                   m_differential)

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
    module = Bimodule.regular(alg)
    s1, sx = shifted(ONE), shifted(X)
    table = {(sx,): {ONE: Fraction(1)}}
    C = lambda w: table.get(w, {})
    dC = d_hochschild(C, 2, alg, module)
    assert dC((sx, sx)) == {X: Fraction(2)}
    zero = d_hochschild(lambda w: {}, 2, alg, module)
    assert zero((sx, sx)) == {}


def test_hochschild_square_brute_force():
    rng = SplitMix64(11)
    from itertools import product as iproduct

    for _ in range(20):
        alg = random_assoc_algebra(rng)
        module = Bimodule.regular(alg)
        letters = [shifted(a) for a in alg.letters]
        arity = rng.randint(1, 2)
        table = {}
        for w in iproduct(letters, repeat=arity):
            if rng.randrange(2):
                table[w] = {rng.choice(alg.letters): Fraction(rng.randint(-2, 2))}
        C = lambda w: table.get(w, {})
        ddC = d_hochschild(
            d_hochschild(C, arity + 1, alg, module), arity + 2, alg, module,
            value_parity=1,
        )
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
