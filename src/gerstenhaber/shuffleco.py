"""Shuffle products, shuffle-quotient spaces and the Harrison coboundary.

Letters here carry the degree of the *shifted* space directly (for an algebra
letter of unshifted degree k this is k - 1); all shuffle signs are Koszul
signs on these degrees.  One integer-coded kernel, ``_shuffle``, computes
every signed two-word shuffle: ``bat`` decodes it to letters, and the
quotient tables use it directly.  The quotient of the n-fold tensor space by
the span of all proper shuffle images is presented, per letter multiset, by
a fixed reduction table: the letters are coded 0..k-1 in sorted order, one
split u|v of each word with (len u, u) <= (len v, v) gives a shuffle row
(the split v|u only repeats it up to sign), ``exactlin.echelonize`` brings
the integer rows to reduced row echelon form with words ordered
lexicographically, and eliminated (pivot) words are rewritten into the
remaining representative words.  The coderivation lifts and the Harrison
coboundary are the tensor ones of ``tensorco`` read through that reduction.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations

from .exactlin import echelonize
from .graded import koszul_sign, word_deg
from .tensorco import (add_scaled, add_term, coderivation_lift_tensor,
                       d_hochschild, extend, m2)

Word = tuple   # tuple[Letter, ...]
Elem = dict    # dict[Word, Fraction]


def _shuffle(a: tuple, b: tuple, odd) -> dict:
    """Signed sum of all shuffles of two integer-coded words.

    ``odd[c]`` is the parity of letter code c.  Returns {coded word: int};
    the Koszul sign is the parity of the (odd a-letter, odd b-letter)
    inversions, counted while each word is built: placing an odd b[j] in
    front of a[i:] flips the sign when ``tail[i]``, the parity of the odd
    letters of a[i:], is 1.  Words come in the lexicographic order of their
    a-positions, and an entry whose terms cancel is dropped where it cancels.
    """
    p, q = len(a), len(b)
    tail = [0] * (p + 1)
    for i in range(p - 1, -1, -1):
        tail[i] = tail[i + 1] ^ odd[a[i]]
    out: dict = {}

    def walk(i, j, word, sign):
        if i == p or j == q:
            w = word + a[i:] + b[j:]
            s = out.get(w, 0) + sign
            if s:
                out[w] = s
            else:
                del out[w]
            return
        walk(i + 1, j, word + (a[i],), sign)
        walk(i, j + 1, word + (b[j],),
             -sign if odd[b[j]] and tail[i] else sign)

    walk(0, 0, (), 1)
    return out


def bat(a: Word, b: Word) -> Elem:
    """Signed sum of all (p,q)-shuffles of the words a and b."""
    if not a or not b:
        raise ValueError("shuffle factors must be nonempty")
    code: dict = {}
    for x in a + b:
        code.setdefault(x, len(code))
    letters = list(code)
    odd = [x.degree % 2 for x in letters]
    raw = _shuffle(tuple(code[x] for x in a), tuple(code[x] for x in b), odd)
    return {tuple(letters[c] for c in w): Fraction(v) for w, v in raw.items()}


def bat_elem(x: Elem, y: Elem) -> Elem:
    return extend(bat, x, y)


def bat3(a: Word, b: Word, c: Word) -> Elem:
    """Sum over (p,q,r)-shuffles; equals either nested two-fold shuffle."""
    p, q, r = len(a), len(b), len(c)
    letters = a + b + c
    degs = [x.degree for x in letters]
    n = p + q + r
    out: Elem = {}
    for pos_a in combinations(range(n), p):
        rest = [k for k in range(n) if k not in pos_a]
        for pos_b_idx in combinations(range(q + r), q):
            perm = [0] * n
            for i, k in enumerate(pos_a):
                perm[k] = i
            pos_b = [rest[i] for i in pos_b_idx]
            for i, k in enumerate(pos_b):
                perm[k] = p + i
            pos_c = [k for k in rest if k not in set(pos_b)]
            for i, k in enumerate(pos_c):
                perm[k] = p + q + i
            sign = koszul_sign(degs, perm)
            add_term(out, tuple(letters[i] for i in perm), Fraction(sign))
    return out


def _distinct_permutations(pool: list) -> list:
    """All distinct orderings of a sorted multiset, in lexicographic order."""
    if not pool:
        return [()]
    out = []
    last = None
    for i, x in enumerate(pool):
        if last is not None and x == last:
            continue
        last = x
        for tail in _distinct_permutations(pool[:i] + pool[i + 1 :]):
            out.append((x,) + tail)
    return out


class ShuffleQuotient:
    """Reduction to representatives modulo shuffle images, per letter multiset.

    Tables are built lazily per multiset and cached; the construction is
    deterministic (lexicographic word order, lowest-word pivots), so the
    representative basis does not depend on call order.
    """

    def __init__(self, max_len: int | None = None):
        self.max_len = max_len
        self.tables: dict[tuple, dict] = {}
        self.reps: dict[tuple, list] = {}

    def _table(self, multiset: tuple) -> dict:
        table = self.tables.get(multiset)
        if table is not None:
            return table
        if self.max_len is not None and len(multiset) > self.max_len:
            raise ValueError(
                f"word length {len(multiset)} exceeds quotient bound {self.max_len}"
            )
        # Code the distinct letters 0..k-1 in sorted order, so coded words
        # come out in the lexicographic order of the Letter words.
        alphabet = sorted(set(multiset))
        code = {x: i for i, x in enumerate(alphabet)}
        odd = [x.degree % 2 for x in alphabet]
        coded = _distinct_permutations([code[x] for x in multiset])
        index = {w: i for i, w in enumerate(coded)}
        # One row per proper split u|v with (len u, u) <= (len v, v): the
        # split v|u of the word v+u gives the row bat(v, u) = +-bat(u, v).
        rows = [{index[x]: c for x, c in _shuffle(w[:p], w[p:], odd).items()}
                for w in coded for p in range(1, len(w))
                if (p, w[:p]) <= (len(w) - p, w[p:])]
        rows, pivots = echelonize(rows, len(coded))
        words = [tuple(alphabet[c] for c in w) for w in coded]
        table = {w: {w: Fraction(1)} for w in words}
        for row, col in zip(rows, pivots):
            table[words[col]] = {words[u]: -v for u, v in row.items() if u != col}
        pivset = set(pivots)
        self.tables[multiset] = table
        self.reps[multiset] = [w for i, w in enumerate(words) if i not in pivset]
        return table

    def representatives(self, letters) -> list:
        multiset = tuple(sorted(letters))
        self._table(multiset)
        return list(self.reps[multiset])

    def dim(self, letters) -> int:
        return len(self.representatives(letters))

    def reduce_word(self, word: Word) -> dict:
        table = self._table(tuple(sorted(word)))
        return table[word]

    def reduce(self, elem: Elem) -> Elem:
        out: Elem = {}
        for word, coeff in elem.items():
            add_scaled(out, self.reduce_word(word), coeff)
        return out

    def is_representative(self, word: Word) -> bool:
        red = self.reduce_word(word)
        return red == {word: Fraction(1)}

    def dump_json(self, multisets) -> str:
        """JSON description {multiset, dim, representatives} per multiset."""
        out = []
        for ms in multisets:
            reps = self.representatives(ms)
            out.append(
                {
                    "multiset": [str(a.ident) for a in sorted(ms)],
                    "dim": len(reps),
                    "representatives": [[str(a.ident) for a in w] for w in reps],
                }
            )
        return json.dumps(out)


def build_quotient(alphabet, max_len: int) -> ShuffleQuotient:
    """Quotient tables for every letter multiset of size <= max_len.

    The engine builds tables lazily; this eager builder stays because the
    golden table digests of ``tests/test_shuffleco.py`` (d = 2, k <= 2 and
    d = 3, k <= 1) are defined over all of its tables.
    """
    from itertools import combinations_with_replacement

    q = ShuffleQuotient(max_len)
    for n in range(1, max_len + 1):
        for ms in combinations_with_replacement(sorted(alphabet), n):
            q._table(tuple(ms))
    return q


def delta(word: Word, quotient: ShuffleQuotient) -> dict:
    """Lie cocrochet on a quotient class, returned on representative pairs.

    delta(a_[1,n]) = sum_(0<j<n) a_[1,j] (x) a_[j+1,n]
                     - (-1)^(deg left * deg right) a_[j+1,n] (x) a_[1,j].
    """
    out: dict = {}
    n = len(word)
    for j in range(1, n):
        left, right = word[:j], word[j:]
        rl = quotient.reduce_word(left)
        rr = quotient.reduce_word(right)
        sign = -1 if (word_deg(left) % 2 and word_deg(right) % 2) else 1
        for u, cu in rl.items():
            for v, cv in rr.items():
                add_term(out, (u, v), cu * cv)
                add_term(out, (v, u), -Fraction(sign) * cu * cv)
    return out


def delta_elem(elem: Elem, quotient: ShuffleQuotient) -> dict:
    return extend(lambda w: delta(w, quotient), elem)


def lift_morphism(taylor: dict, quotient_out: ShuffleQuotient):
    """Unique cocrochet-coalgebra morphism with the given Taylor parts.

    ``taylor[r]`` maps an r-letter word to a dict Letter' -> Fraction over the
    target alphabet.  On a word the lift is the signless sum over compositions
    n = r_1 + ... + r_k of F_(r_1)(first block) (x) ... (x) F_(r_k)(last block),
    reduced in the target quotient.
    """

    def blocks(word, parts_out):
        if not word:
            yield parts_out
            return
        for r in taylor:
            if r <= len(word):
                yield from blocks(word[r:], parts_out + [word[:r]])

    def F(word: Word) -> Elem:
        out: Elem = {}
        for split in blocks(word, []):
            factors = []
            for block in split:
                val = taylor[len(block)](block)
                if not val:
                    factors = None
                    break
                factors.append(val)
            if factors is None:
                continue
            partial: Elem = {(): Fraction(1)}
            for val in factors:
                nxt: Elem = {}
                for w, cw in partial.items():
                    for letter, c in val.items():
                        add_term(nxt, w + (letter,), cw * c)
                partial = nxt
            add_scaled(out, partial)
        return quotient_out.reduce(out)

    return F


def lift_coderivation(taylor: dict, q: int, quotient: ShuffleQuotient):
    """Unique cocrochet coderivation of degree q with the given Taylor parts:
    the tensor coderivation lift of a word (``coderivation_lift_tensor``),
    reduced in the quotient."""
    lift = coderivation_lift_tensor(taylor, q)
    return lambda word: quotient.reduce(lift({word: Fraction(1)}))


def mu(alg, quotient: ShuffleQuotient):
    """C-infinity differential: the degree 1 coderivation lifting the shifted
    product ``tensorco.m2``, reduced.

    ``alg`` is a graded-commutative FiniteAlgebra; words are over the shifted
    letters of its basis.  mu(a_[1,n]) = sum_k (-1)^(a_1+...+a_(k-1))
    a_[1,k-1] (x) m2(a_k, a_(k+1)) (x) a_[k+2,n], reduced.
    """
    if not alg.commutative:
        raise ValueError("mu needs a graded-commutative algebra")
    return lift_coderivation({2: lambda w: m2(w[0], w[1], alg)}, 1, quotient)


def validate_harrison_cochain(C: dict, quotient: ShuffleQuotient):
    """A Harrison cochain must be stored on representative words only."""
    for word in C:
        if not quotient.is_representative(word):
            raise ValueError(f"cochain supported on a non-representative word: {word}")


def d_harrison(C: dict, n: int, alg, module, quotient: ShuffleQuotient):
    """Harrison coboundary of an (n-1)-cochain over a commutative algebra.

    ``C`` maps representative (n-1)-letter words (shifted letters) to module
    elements; the algebra must be concentrated in degree 0 (the classical
    case).  This is the Hochschild coboundary of C read through the quotient;
    with every shifted letter of degree -1 its value on an n-letter class is

        a_1.C(a_2...a_n) + sum_j (-1)^j C(a_1 ... a_j a_(j+1) ... a_n)
        + (-1)^n C(a_1...a_(n-1)).a_n

    and again kills shuffle images.  Returns a callable on length-n words.
    """
    for a in alg.letters:
        if a.degree != 0:
            raise ValueError("Harrison coboundary is for ungraded algebras")
    validate_harrison_cochain(C, quotient)

    def evalC(word: Word) -> dict:
        out: dict = {}
        for rep, coeff in quotient.reduce_word(word).items():
            add_scaled(out, C.get(rep, {}), coeff)
        return out

    return d_hochschild(evalC, n, alg, module)
