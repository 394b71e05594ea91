"""Graded basis symbols and Koszul sign bookkeeping.

Every sign in this package is a product of factors (-1)^(u*v) coming from
transposing two adjacent graded objects of degrees u and v.  The helpers here
are the single source of those signs; only parities of degrees matter.  Every
graded-symmetric product (packet monomials, symmetric Lie words, polyvector
directions) is put in order by ``koszul_sort``, and every coderivation term
on a sorted one is built by ``slot_terms``, which inserts the operator's
value into the sorted rest without sorting again.

A ``Letter`` is an ``int`` whose value is the hash of its ``(ident,
degree)``, so letters and the words and monomials made of them hash in C;
equality and order stay by those fields.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Sequence


@dataclass(frozen=True, order=True)
class Letter(int):
    """A basis symbol with an integer degree.

    ``degree`` is the Koszul degree in the space the letter is used in; which
    shift convention that is (shifted or not) is fixed by the owning module.
    ``ident`` must be orderable within one alphabet, it fixes all canonical
    word and factor orderings.  ``grade`` is the degree together with a
    torus weight, packed by ``pack_grade``; it defaults to the degree (weight
    0) and takes no part in comparison or hashing.

    A letter is an ``int`` whose value is the hash of ``(ident, degree)``,
    fixed at construction, so letters and the words and monomials built of
    them hash in C.  Only the hash comes from the int: equality and order
    are by ``(ident, degree)``, and a letter never equals a plain int.
    """

    ident: object
    degree: int
    grade: int = field(default=None, compare=False)

    def __new__(cls, ident, degree, grade=None):
        # letters key most dicts and sets of the package: the value is the
        # field hash, so every dict and set order follows the fields alone
        return super().__new__(cls, hash((ident, degree)))

    def __post_init__(self):
        if self.grade is None:
            object.__setattr__(self, "grade", self.degree)

    __hash__ = int.__hash__

    def __eq__(self, other):
        return other.__class__ is self.__class__ and \
            self.ident == other.ident and self.degree == other.degree

    def __ne__(self, other):
        return not self.__eq__(other)

    def __getnewargs__(self):
        return self.ident, self.degree, self.grade

    def __repr__(self):
        return f"L({self.ident},{self.degree})"


# The grade of a degree and a weight (w_1, ..., w_d) in Z^d is the integer
# degree + w_1 R + ... + w_d R^d, R = GRADE_RADIX, with every coordinate a
# balanced digit.  While each coordinate of a sum of grades stays below R / 2
# in absolute value (letter coordinates are small, words and monomials have
# a few dozen letters), the sum is the grade of the coordinate sums, so sets
# of grades add as integer sumsets and a grade determines its coordinates.
GRADE_RADIX = 1 << 20


def pack_grade(degree: int, weight: Sequence[int] = ()) -> int:
    """The grade of a degree and a torus weight, as one integer."""
    g = 0
    for w in reversed(weight):
        g = g * GRADE_RADIX + w
    return g * GRADE_RADIX + degree


def grade_digits(g: int) -> tuple:
    """The coordinates (degree, w_1, ..., w_k) of a grade, up to its last
    nonzero weight coordinate."""
    half = GRADE_RADIX // 2
    out = []
    while True:
        r = (g + half) % GRADE_RADIX - half
        out.append(r)
        g = (g - r) // GRADE_RADIX
        if not g:
            return tuple(out)


def word_deg(word: Sequence[Letter]) -> int:
    """Degree of a word: the sum of its letter degrees."""
    return sum(a.degree for a in word)


def word_grade(word: Sequence[Letter]) -> int:
    """Grade of a word: the sum of its letter grades."""
    return sum(a.grade for a in word)


def shifted(letter: Letter) -> Letter:
    """The same symbol viewed one shift down (degree lowered by 1)."""
    return Letter(letter.ident, letter.degree - 1, letter.grade - 1)


def _odd_inversion_sign(odd: Sequence[int], perm: Sequence[int]) -> int:
    """(-1) to the number of inversions k < l, perm[k] > perm[l], of two
    positions whose ``odd`` flags (indexed by permuted position) are set."""
    n = len(perm)
    sign = 1
    for k in range(n):
        if not odd[k]:
            continue
        pk = perm[k]
        for l in range(k + 1, n):
            if odd[l] and pk > perm[l]:
                sign = -sign
    return sign


def koszul_sign(degrees: Sequence[int], perm: Sequence[int]) -> int:
    """Sign of the graded permutation sending position k to ``perm[k]``.

    ``perm[k]`` is the index, in the original list, of the object standing at
    position k after the permutation (so the permuted degree list is
    ``[degrees[p] for p in perm]``).  Each inversion of two odd-degree objects
    contributes -1; the result does not depend on a decomposition into
    adjacent transpositions.
    """
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {perm}")
    return _odd_inversion_sign([degrees[p] % 2 for p in perm], perm)


def koszul_sort(items: Sequence, degrees: Sequence[int], key=None) -> tuple:
    """Stable sort of graded items by ``key`` (by the items themselves
    without one) with its Koszul sign: (sorted tuple, sign), each swap of two
    odd-degree items giving -1, or (None, 0) when two equal odd-degree items
    meet, since a repeated odd factor squares to zero.

    Equal items must have equal degrees and keys.  The sign is counted while
    each item is inserted behind the sorted prefix, so canonical input costs
    one key comparison per item.
    """
    keys: list = []
    odd: list = []
    out: list = []
    sign = 1
    for x, d in zip(items, degrees):
        k = x if key is None else key(x)
        o = d % 2
        j = len(out)
        while j and keys[j - 1] > k:
            j -= 1
            if o and odd[j]:
                sign = -sign
        if o and j and out[j - 1] == x:
            return None, 0
        keys.insert(j, k)
        odd.insert(j, o)
        out.insert(j, x)
    return tuple(out), sign


def unshuffle_sign(degrees: Sequence[int], left: Sequence[int]) -> int:
    """Koszul sign of pulling the positions ``left`` to the front, in the
    order given (which need not be increasing).

    For increasing ``left`` this is the sign written eps(x_1...x_n / x_I, x_J)
    for the bipartition I = left, J = complement, both kept in their natural
    order.  It is the ``koszul_sign`` of the permutation left + complement,
    built here and not re-checked: repeated or out-of-range positions in
    ``left`` raise ValueError.
    """
    n = len(degrees)
    leftset = set(left)
    if len(leftset) != len(left) or any(not 0 <= i < n for i in left):
        raise ValueError(f"not distinct positions in 0..{n - 1}: {left}")
    perm = [*left, *(i for i in range(n) if i not in leftset)]
    return _odd_inversion_sign([degrees[p] % 2 for p in perm], perm)


def slot_terms(items: Sequence, degs: Sequence[int], picks: Sequence[int],
               values: dict, op_deg: int, key=None) -> list:
    """One coderivation step: an operator of degree ``op_deg`` applied to the
    items at ``picks`` (one position j, or two j < k for the degree 1 l2,
    which carries (-1)^(x_j)), its value put into the rest of the product.

    ``items`` is sorted by ``key`` (by the items themselves without one) with
    no repeated odd-degree item, equal keys only on equal items, and ``degs``
    are the item degrees.  For each (w, c) of ``values``, w of degree
    (sum of x_picks) + op_deg, w goes into the rest at its ``bisect_left``
    place with c times (-1)^(op_deg * (x_1 + ... + x_(j-1))), for a pair
    times (-1)^(x_j + x_k * (x_(j+1) + ... + x_(k-1))), and times
    (-1)^(deg w * the degrees w passes on its way from slot j to its place).
    For a pair this is eps(x / x_j x_k, rest) (-1)^(x_j) with w pulled to the
    front.  Returns a list of (sorted tuple, signed c), dropping each w equal
    to an odd neighbour, whose product squares to zero.
    """
    if not values:
        return []
    j = picks[0]
    if len(picks) == 1:
        rest = (*items[:j], *items[j + 1:])
        rdegs = [*degs[:j], *degs[j + 1:]]
        wodd = (op_deg + degs[j]) & 1
    else:
        k = picks[1]
        rest = (*items[:j], *items[j + 1:k], *items[k + 1:])
        rdegs = [*degs[:j], *degs[j + 1:k], *degs[k + 1:]]
        wodd = (op_deg + degs[j] + degs[k]) & 1
    keys = rest if key is None else list(map(key, rest))
    # odd[p]: parity of the degrees of rest[:p]
    odd = [0]
    o = 0
    for d in rdegs:
        o ^= d & 1
        odd.append(o)
    sign = op_deg * odd[j]
    if len(picks) == 2:
        # items j+1 .. k-1 are rest[j:k-1]
        sign += degs[j] + degs[k] * (odd[k - 1] ^ odd[j])
    out = []
    for w, c in values.items():
        p = bisect_left(keys, w if key is None else key(w))
        if wodd and p < len(rest) and rest[p] == w:
            continue
        s = sign + wodd * (odd[p] ^ odd[j])
        out.append((rest[:p] + (w,) + rest[p:], -c if s & 1 else c))
    return out


def bipartitions(items: Sequence, degrees: Sequence[int]) -> dict:
    """Signed sum over the proper bipartitions of ``items``.

    Returns {(items_I, items_J): coefficient}, summing the unshuffle signs
    eps(x / x_I, x_J) of all nonempty proper I with that pair of sides; both
    sides keep their order, so a sorted tuple splits into sorted tuples.
    """
    n = len(items)
    out: dict = {}
    for mask in range(1, (1 << n) - 1):
        left = [i for i in range(n) if mask & (1 << i)]
        right = [i for i in range(n) if not mask & (1 << i)]
        key = (tuple(items[i] for i in left), tuple(items[i] for i in right))
        s = out.get(key, 0) + unshuffle_sign(degrees, left)
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out
