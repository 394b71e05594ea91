import dataclasses

import pytest

from gerstenhaber.graded import Letter, koszul_sign, unshuffle_sign
from gerstenhaber.prng import SplitMix64


def test_adjacent_transposition():
    assert koszul_sign([1, 1], [1, 0]) == -1
    assert koszul_sign([1, 0], [1, 0]) == 1
    assert koszul_sign([2, 1], [1, 0]) == 1


def test_identity_permutation():
    assert koszul_sign([5, -1, 3, 0], [0, 1, 2, 3]) == 1


def test_three_cycle():
    # degrees (1,0,1), permuted word (y,z,x): two adjacent swaps, signs
    # (-1)^(1*0) * (-1)^(1*1)
    assert koszul_sign([1, 0, 1], [1, 2, 0]) == -1


def test_morphism_property():
    rng = SplitMix64(4)
    for _ in range(60):
        n = rng.randint(2, 6)
        degrees = [rng.randint(-2, 3) for _ in range(n)]
        sigma = rng.sample(range(n), n)
        tau = rng.sample(range(n), n)
        comp = [sigma[tau[k]] for k in range(n)]
        lhs = koszul_sign(degrees, comp)
        rhs = koszul_sign(degrees, sigma) * koszul_sign(
            [degrees[p] for p in sigma], tau
        )
        assert lhs == rhs


def test_parity_extremes():
    rng = SplitMix64(5)
    for _ in range(30):
        n = rng.randint(2, 6)
        perm = rng.sample(range(n), n)
        assert koszul_sign([0] * n, perm) == 1
        inv = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if perm[i] > perm[j]
        )
        assert koszul_sign([1] * n, perm) == (-1) ** inv


def test_not_a_permutation():
    with pytest.raises(ValueError):
        koszul_sign([1, 1], [0, 0])


def test_unshuffle_and_swap():
    # pulling position 2 of (a,b,c) to the front crosses a and b
    assert unshuffle_sign([1, 1, 1], [2]) == 1
    assert unshuffle_sign([1, 0, 1], [2]) == -1
    # a non-increasing front keeps its given order: (b, a, c) from (a, b, c)
    assert unshuffle_sign([1, 1, 1], [1, 0]) == koszul_sign([1, 1, 1], [1, 0, 2]) == -1
    assert unshuffle_sign([1, 1, 1, 0], [2, 0]) == 1


def test_letter_hash_is_the_field_tuple_hash():
    """The hash computed at construction is the dataclass hash of the fields,
    so dict and set orders do not depend on when it is computed."""
    for ident, degree in [(("R",), -1), (("sb", 2, (1, 2)), 1), ("x", 0)]:
        a, b = Letter(ident, degree), Letter(ident, degree)
        assert hash(a) == hash((ident, degree)) == hash(b)
        assert a == b and a is not b and len({a, b}) == 1
    assert Letter("x", 0) != Letter("x", 1)


def test_letter_is_frozen():
    a = Letter("x", 0)
    for field, value in (("ident", "y"), ("degree", 1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, field, value)
    assert a == Letter("x", 0) and hash(a) == hash(("x", 0))
