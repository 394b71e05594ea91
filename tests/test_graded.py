import copy
import dataclasses
import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gerstenhaber.graded import (Letter, grade_digits, koszul_sign, koszul_sort,
                                 pack_grade, shifted, slot_terms, unshuffle_sign,
                                 word_grade)
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


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.integers(-3, 3), max_size=7), st.data())
def test_unshuffle_sign_is_the_koszul_sign_of_left_then_right(degrees, data):
    """Mixed parities and fronts in any order, increasing or not: the sign of
    the permutation ``left`` + complement, as ``koszul_sign`` counts it."""
    n = len(degrees)
    left = data.draw(st.permutations(range(n)).map(
        lambda p: p[:data.draw(st.integers(0, n))]))
    right = [i for i in range(n) if i not in left]
    assert unshuffle_sign(degrees, left) == koszul_sign(degrees, left + right)
    assert unshuffle_sign(tuple(degrees), tuple(left)) == koszul_sign(degrees, left + right)


@pytest.mark.parametrize("left", [[0, 0], [1, 2, 1], [3], [-1], [0, 4]])
def test_unshuffle_sign_rejects_repeated_or_out_of_range_positions(left):
    with pytest.raises(ValueError):
        unshuffle_sign([1, 0, 1], left)


def test_letter_hash_is_the_field_tuple_hash():
    """The int value fixed at construction is the hash of the fields, and
    the letter hashes as that int, so dict and set orders do not depend on
    when it is computed."""
    for ident, degree in [(("R",), -1), (("sb", 2, (1, 2)), 1), ("x", 0)]:
        a, b = Letter(ident, degree), Letter(ident, degree)
        assert int(a) == hash((ident, degree))
        assert hash(a) == hash(int(a)) == hash(b)
        assert a == b and a is not b and len({a, b}) == 1
    assert Letter("x", 0) != Letter("x", 1)


def test_letter_is_frozen():
    a = Letter("x", 0)
    for field, value in (("ident", "y"), ("degree", 1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, field, value)
    assert a == Letter("x", 0) and int(a) == hash(("x", 0))
    assert hash(a) == hash(int(a)) == hash(Letter("x", 0))


def test_letter_survives_copy_and_pickle():
    a = Letter(("v", 1), 1, pack_grade(1, (0, 2)))
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and hash(b) == hash(a) and b.grade == a.grade


def test_letter_never_equals_a_plain_int():
    for a in (Letter("x", 0), Letter(("R",), -1), Letter(3, 1)):
        for n in (int(a), 0, 3):
            assert not a == n and not n == a
            assert a != n and n != a
        assert a not in {int(a)} and int(a) not in {a: 1}


def test_letter_inequality_is_by_fields():
    a, b = Letter("x", 0), Letter("x", 0, pack_grade(0, (1, -1)))
    assert not a != b and a == b
    assert Letter("x", 0) != Letter("y", 0) and Letter("x", 0) != Letter("x", 1)
    assert not Letter("x", 0) == Letter("x", 1)


def test_letters_sort_by_their_field_tuples():
    from gerstenhaber.genv import polyvec_basis

    letters = polyvec_basis(3).letters
    assert sorted(letters) == sorted(letters, key=lambda a: (a.ident, a.degree))
    assert sorted(letters) != sorted(letters, key=int)


def test_grade_defaults_to_degree_and_takes_no_part_in_equality():
    a = Letter("x", 2)
    assert a.grade == 2
    b = Letter("x", 2, pack_grade(2, (1, -1)))
    assert a == b and hash(a) == hash(b) and int(a) == int(b)
    assert {a: 1}[b] == 1 and len({a, b}) == 1
    assert shifted(b).grade == pack_grade(1, (1, -1)) and shifted(a).grade == 1


@given(st.lists(st.tuples(st.integers(-3, 5),
                          st.lists(st.integers(-2, 6), min_size=3, max_size=3)),
                min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_grades_add_like_their_coordinates(parts):
    """The packed grade of a sum is the sum of the packed grades, and
    ``grade_digits`` reads the coordinates back (trailing zeros dropped)."""
    letters = [Letter(i, deg, pack_grade(deg, w)) for i, (deg, w) in enumerate(parts)]
    deg = sum(p[0] for p in parts)
    weight = [sum(p[1][c] for p in parts) for c in range(3)]
    assert word_grade(letters) == pack_grade(deg, weight)
    digits = (deg, *weight)
    while len(digits) > 1 and not digits[-1]:
        digits = digits[:-1]
    assert grade_digits(word_grade(letters)) == digits


# items 0..5 with a fixed degree each, so repeated items have equal degrees
item_lists = st.lists(st.integers(0, 5), max_size=7)
degree_tables = st.lists(st.integers(-3, 3), min_size=6, max_size=6)


def sort_oracle(items, degs, key):
    """Stable sort by (key, position), zero on adjacent equal odd items,
    else the ``koszul_sign`` of the sorting permutation."""
    perm = sorted(range(len(items)), key=lambda i: (key(items[i]), i))
    word = tuple(items[i] for i in perm)
    for p, q in zip(perm, perm[1:]):
        if items[p] == items[q] and degs[p] % 2:
            return None, 0
    return word, koszul_sign(degs, perm)


@pytest.mark.parametrize("key", [None, lambda x: -x, lambda x: x % 3])
@settings(derandomize=True, max_examples=300, deadline=None)
@given(item_lists, degree_tables)
def test_koszul_sort_is_the_sign_of_the_sorting_permutation(key, items, degree_of):
    """Mixed parities, repeated items and (for x % 3) ties between unequal
    items, which keep their order."""
    degs = [degree_of[x] for x in items]
    want = sort_oracle(items, degs, key or (lambda x: x))
    assert koszul_sort(items, degs, key) == want
    assert koszul_sort(tuple(items), tuple(degs), key) == want


def test_koszul_sort_cases():
    assert koszul_sort([], []) == ((), 1)
    assert koszul_sort(["b", "a"], [1, 1]) == (("a", "b"), -1)
    assert koszul_sort(["b", "a"], [1, 2]) == (("a", "b"), 1)
    assert koszul_sort(["a", "c", "a"], [1, 0, 1]) == (None, 0)
    assert koszul_sort(["a", "c", "a"], [2, 1, 2]) == (("a", "a", "c"), 1)
    # (c, b, a) -> (a, b, c): three swaps of odd items
    assert koszul_sort(["c", "b", "a"], [1, 1, 1]) == (("a", "b", "c"), -1)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=5).map(sorted),
       degree_tables, st.data())
def test_coderivation_steps_match_their_formulas(items, degree_of, data):
    """slot_terms against the formulas written with ``koszul_sign`` and
    ``unshuffle_sign``, on sorted tuples with a value of three items of the
    right degree parity, which go in before, among and after the rest."""
    assume(not any(a == b and degree_of[a] % 2 for a, b in zip(items, items[1:])))
    degs = [degree_of[x] for x in items]
    n = len(items)
    values = {-0.5: 3, 2.5: 1, 10: -2}
    for j in range(n):
        for op_deg in (1, 2):
            wdeg = degs[j] + op_deg
            got = slot_terms(items, degs, (j,), values, op_deg)
            want = []
            for w, c in values.items():
                new = items[:j] + [w] + items[j + 1:]
                perm = sorted(range(n), key=lambda i: (new[i], i))
                s = koszul_sign(degs[:j] + [wdeg] + degs[j + 1:], perm)
                s *= (-1) ** (op_deg * sum(degs[:j]))
                want.append((tuple(new[i] for i in perm), s * c))
            assert got == want
    if n < 2:
        return
    picks = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                               unique=True).map(sorted))
    rest = [x for i, x in enumerate(items) if i not in picks]
    eps = unshuffle_sign(degs, picks) * (-1) ** degs[picks[0]]
    wdeg = sum(degs[i] for i in picks) + 1
    rdegs = [d for i, d in enumerate(degs) if i not in picks]
    want = []
    for w, c in values.items():
        perm = sorted(range(len(rest) + 1), key=lambda i: ([w] + rest)[i])
        s = koszul_sign([wdeg] + rdegs, perm)
        want.append((tuple(([w] + rest)[i] for i in perm), eps * s * c))
    assert slot_terms(items, degs, picks, values, 1) == want


def test_coderivation_step_drops_odd_squares_only():
    # w = c of degree 1 next to the odd c: squares to zero
    assert slot_terms("abc", [1, 0, 1], (1,), {"c": 1, "a": 2}, 1) == []
    # w = c of degree 2 next to the even c: kept
    assert slot_terms("abc", [0, 1, 2], (1,), {"c": 5}, 1) == [(("a", "c", "c"), 5)]
    # l2(a, b) of degree 1: c squares to zero, d passes the odd c
    assert slot_terms("abc", [0, 0, 1], (0, 1), {"c": 1, "d": 1}, 1) == \
        [(("c", "d"), -1)]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=2, max_size=6, unique=True).map(sorted),
       st.lists(st.integers(0, 9), max_size=4, unique=True), st.data())
def test_coderivation_step_keys_the_rest_once(items, values, data):
    """The key is called once per item of the rest and once per value, and
    not at all without values."""
    picks = data.draw(st.sampled_from([(j,) for j in range(len(items))] +
                                      [(j, k) for j in range(len(items))
                                       for k in range(j + 1, len(items))]))
    calls = []

    def key(x):
        calls.append(x)
        return -x

    items = items[::-1]
    slot_terms(items, [0] * len(items), picks, dict.fromkeys(values, 1), 2, key)
    assert len(calls) == (len(items) - len(picks) + len(values) if values else 0)
