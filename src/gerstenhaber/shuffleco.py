"""Shuffle products, shuffle-quotient spaces and the Harrison coboundary.

Letters here carry the degree of the *shifted* space directly (for an algebra
letter of unshifted degree k this is k - 1); all shuffle signs are Koszul
signs on these degrees.  One integer-coded kernel, ``_shuffle``, computes
every signed two-word shuffle: ``bat`` decodes it to letters, and the
quotient tables use it directly.  The quotient of the n-fold tensor space by
the span of all proper shuffle images is presented, per letter multiset, by
a fixed reduction table over its words in lexicographic order.  A table
depends only on the multiset's pattern: its letters coded 0..k-1 in sorted
order (the multiplicity pattern) and each code's parity.  So it is built in
two layers:

* the coded layer, ``_coded_lists`` and ``_coded_rows``: pure functions of
  the pattern, cached for the process (they hold ints only).  The
  representative words are the Lyndon words plus the squares of odd Lyndon
  words for the reversed letter order (``_is_rep``).  Each other word w is
  the lowest word of one shuffle row, that of w's longest proper prefix that
  is a representative with the rest of w; ``exactlin.echelonize``
  back-substitutes these triangular integer rows to reduced row echelon
  form, and each eliminated (pivot) word is rewritten into the
  representative words;
* the relabelling layer, ``_super_lyndon`` and ``ShuffleQuotient._table``:
  a multiset's list and table are its pattern's, decoded through its sorted
  alphabet.  A list is generated where it is read, and a table only where
  ``reduce_word`` reads one.

A reduction row keeps its coefficients as ``echelonize`` returns them,
``int``s unless one is not an integer, so ``reduce_word`` and ``reduce``
stay in int arithmetic on integral tables, and ``ShuffleQuotient.tables`` is
a read-only view of the store itself.  A built table's words are also filed
in one word -> row index holding the same row objects, so ``reduce_word`` is
one dict lookup; the rows are read-only wherever they are reached.  The
coderivation lifts and the Harrison coboundary are the tensor ones of
``tensorco`` read through that reduction.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cache
from itertools import accumulate, combinations, combinations_with_replacement
from operator import add
from types import MappingProxyType

from .exactlin import echelonize
from .graded import grade_digits, koszul_sign, word_deg
from .tensorco import (add_scaled, add_term, coderivation_lift_tensor,
                       d_hochschild, extend, m2)

Word = tuple   # tuple[Letter, ...]
Elem = dict    # dict[Word, int | Fraction]


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
    return {tuple(letters[c] for c in w): v for w, v in raw.items()}


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
            add_term(out, tuple(letters[i] for i in perm), sign)
    return out


def _distinct_permutations(pool: list) -> list:
    """All distinct orderings of a sorted multiset, in lexicographic order."""
    if len(pool) < 2:
        return [tuple(pool)]
    out = []
    last = None
    for i, x in enumerate(pool):
        if last is not None and x == last:
            continue
        last = x
        for tail in _distinct_permutations(pool[:i] + pool[i + 1 :]):
            out.append((x,) + tail)
    return out


def _pattern(multiset: tuple) -> tuple:
    """(alphabet, coded, odd) for a sorted letter multiset: its distinct
    letters in order, the multiset with each letter coded by its position
    there, and the letters' parities.  (coded, odd) keys the coded layer:
    multisets with one multiplicity pattern and one parity per code share
    it, and their coded words decode in the lexicographic order of their
    Letter words."""
    alphabet = list(dict.fromkeys(multiset))
    code = dict(zip(alphabet, range(len(alphabet))))
    return (alphabet, tuple(map(code.__getitem__, multiset)),
            tuple([x.degree % 2 for x in alphabet]))


def _lyndon(w: tuple) -> bool:
    """Whether a coded word is Lyndon for the reversed letter order: greater,
    in the forward order, than each of its proper rotations."""
    return all(w > w[i:] + w[:i] for i in range(1, len(w)))


def _is_rep(w: tuple, odd) -> bool:
    """Whether a coded word is a representative: Lyndon for the reversed
    letter order, or the square u.u of such a word u of odd degree (Radford
    1979; Reutenauer, *Free Lie Algebras*, ch. 6)."""
    h = len(w) // 2
    return _lyndon(w) or (len(w) % 2 == 0 and w[:h] == w[h:]
                          and sum(odd[c] for c in w[:h]) % 2 == 1 and _lyndon(w[:h]))


@cache
def _coded_lists(coded: tuple, odd: tuple) -> tuple:
    """(words, reps) of a coded multiset: its distinct words in
    lexicographic order, and the positions there of its representatives
    (``_is_rep``)."""
    words = tuple(_distinct_permutations(list(coded)))
    return words, tuple(i for i, w in enumerate(words) if _is_rep(w, odd))


@cache
def _coded_rows(coded: tuple, odd: tuple) -> tuple:
    """The reduction rows of a coded multiset, one (pivot, ((position,
    coefficient), ...)) per eliminated word: each word not a representative
    rewritten into the representatives, by positions in ``_coded_lists``.

    One row per eliminated word w = u.v, u its longest proper prefix that is
    a representative: the shuffle of u and v, whose lowest word is w.
    ``echelonize`` reduces them; if their pivots are not exactly the
    eliminated words, this raises ``ArithmeticError``."""
    words, reps = _coded_lists(coded, odd)
    index = {w: i for i, w in enumerate(words)}
    kept = set(reps)
    eliminated = [i for i in range(len(words)) if i not in kept]
    rows = []
    for w in map(words.__getitem__, eliminated):
        p = next(p for p in range(len(w) - 1, 0, -1) if _is_rep(w[:p], odd))
        rows.append({index[x]: c for x, c in _shuffle(w[:p], w[p:], odd).items()})
    rows, pivots = echelonize(rows, len(words))
    if pivots != eliminated:
        raise ArithmeticError(f"the shuffle relations of {coded} (parities {odd}) "
                              "do not eliminate exactly its non-representatives")
    return tuple((col, tuple((u, -v) for u, v in row.items() if u != col))
                 for row, col in zip(rows, pivots))


def _super_lyndon(multiset: tuple) -> list:
    """The representative words of a sorted letter multiset (``_is_rep``),
    in the lexicographic order of its words, the order of the reduction
    table's list: its pattern's coded list, decoded."""
    alphabet, coded, odd = _pattern(multiset)
    words, reps = _coded_lists(coded, odd)
    decode = alphabet.__getitem__
    return [tuple(map(decode, words[i])) for i in reps]


class GradedLetters:
    """The set-up of ``graded_multisets`` on one list of letters, built once
    and read by every walk over that list.

    ``grades`` are the letter grades and ``at`` maps a grade to the
    increasing positions of its letters.  ``coords`` are the letters' grade
    coordinates (the degree and the weight coordinates, ``grade_digits``
    padded to ``width``).  Per coordinate, ``cuts`` holds (values, below,
    above): the values the letters take there, increasing, and for each p
    one past the last position of a letter whose value is among values[:p]
    (``below[p]``) or among values[p:] (``above[p]``), 0 when there is none.
    So the least value over letters[j:] exceeds values[p - 1] exactly when
    j >= below[p], and the largest is below values[p] exactly when
    j >= above[p].
    """

    def __init__(self, letters):
        self.letters = list(letters)
        self.grades = [a.grade for a in self.letters]
        self.at: dict = {}
        for j, g in enumerate(self.grades):
            self.at.setdefault(g, []).append(j)
        digits = {g: grade_digits(g) for g in self.at}
        self.width = max(map(len, digits.values()), default=0)
        pad = {g: t + (0,) * (self.width - len(t)) for g, t in digits.items()}
        self.coords = [pad[g] for g in self.grades]
        # the grades in the order of their last letters, and one past each
        ends = sorted(self.at, key=lambda g: self.at[g][-1])
        stops = [self.at[g][-1] + 1 for g in ends]
        self.cuts = []
        for col in zip(*map(pad.get, ends)):
            last = dict(zip(col, stops))  # value -> one past its last letter
            values = sorted(last)
            self.cuts.append((values,
                              [0, *accumulate(map(last.get, values), max)],
                              [*accumulate(map(last.get, values[::-1]), max)][::-1]
                              + [0]))


def graded_multisets(walk: GradedLetters, length: int, grades) -> list:
    """The multisets of ``length`` letters from ``walk.letters`` whose grade
    lies in ``grades``, in ``combinations_with_replacement`` order.

    One recursion over the list takes nondecreasing letter positions; only
    the range of each grade coordinate over ``grades`` is built per call.  A
    branch that must still take r letters from letters[j:] is cut when, in
    one coordinate, the sum so far plus r times the least or the largest
    value of that coordinate over letters[j:] cannot reach that range.  A
    cut at j also cuts every later letter, so each node reads the first cut
    position of each coordinate from ``walk.cuts`` and walks every letter
    before the first of them.  The last letter is not walked: it is looked
    up by the grade it must have.
    """
    grades = set(grades)
    if not length:
        return [()] if 0 in grades else []
    letters = walk.letters
    if not grades or not letters:
        return []
    width, at, lgrades, coords = walk.width, walk.at, walk.grades, walk.coords
    # a target coordinate past ``width`` is 0 on every letter: no cut reads it
    targets = [grade_digits(t)[:width] for t in grades]
    targets = [t + (0,) * (width - len(t)) for t in targets]
    bounds = [(*walk.cuts[c], min(t[c] for t in targets),
               max(t[c] for t in targets)) for c in range(width)]
    n = len(letters)
    out = []

    def rec(i, r, acc, grade, cur):
        if r == 1:
            hits = []
            for t in grades:
                js = at.get(t - grade, ())
                hits += js[bisect_left(js, i):]
            if len(grades) > 1:
                hits.sort()
            out.extend(acc + (letters[j],) for j in hits)
            return
        # the first j where x + r * (least over letters[j:]) > thi, or
        # x + r * (largest over letters[j:]) < tlo: the least exceeds
        # (thi - x) // r, or the largest is below -((x - tlo) // r)
        stop = n
        for x, (values, below, above, tlo, thi) in zip(cur, bounds):
            stop = min(stop, below[bisect_right(values, (thi - x) // r)],
                       above[bisect_left(values, -((x - tlo) // r))])
        for j in range(i, stop):
            # the looked-up last letter (r == 2 here) needs no coordinates
            rec(j, r - 1, acc + (letters[j],), grade + lgrades[j],
                tuple(map(add, cur, coords[j])) if r > 2 else None)

    rec(0, length, (), 0, (0,) * width)
    return out


class ShuffleQuotient:
    """Reduction to representatives modulo shuffle images, per letter multiset.

    This is the relabelling layer: a multiset's table and list are decoded,
    through its sorted alphabet, from the coded ones of its (multiplicity
    pattern, parities) key, which the process builds once per key; the
    quotient keeps only the decoded, Letter-keyed objects.  Tables are
    decoded lazily per multiset, by ``reduce_word`` only, and kept; the
    construction is deterministic (lexicographic word order, lowest-word
    pivots), so the representative basis does not depend on call order.
    ``reps`` is the one store of representative lists: it holds the
    generated list of every multiset met, with or without a table.  A table
    stores its pattern's list there when there is none; if the stored list
    is not that list, or the coded rows' pivots are not exactly the words
    off it, it raises ``ArithmeticError`` and is not kept.
    ``tables`` is a read-only view (``MappingProxyType``) of the built
    tables, multiset -> {word: the row ``reduce_word`` returns}.  Building a
    table also files each of its words in ``_rows``, one word -> row index
    over every built table that holds the table's own row objects; a word
    whose table is built is reduced by one lookup there.
    ``reduce_word``, ``representatives`` and the view hand out stored rows
    and lists: only read them.
    """

    def __init__(self):
        self._tables: dict[tuple, dict] = {}
        self.tables = MappingProxyType(self._tables)
        self._rows: dict[Word, dict] = {}
        self.reps: dict[tuple, list] = {}

    def _table(self, multiset: tuple) -> dict:
        """Decode, store and index the table of a sorted multiset none of
        whose words is in the index.  The multiset's stored list, or the
        pattern's list stored now when there is none, must be the list the
        coded rows eliminate against, or this raises ``ArithmeticError``."""
        alphabet, coded, odd = _pattern(multiset)
        coded_words, reps = _coded_lists(coded, odd)
        rows = _coded_rows(coded, odd)
        decode = alphabet.__getitem__
        words = [tuple(map(decode, w)) for w in coded_words]
        listed = [words[i] for i in reps]
        if self.reps.setdefault(multiset, listed) != listed:
            raise ArithmeticError(f"the stored list of {multiset} is not the "
                                  "list its shuffle relations leave")
        table = {w: {w: 1} for w in words}
        for col, row in rows:
            table[words[col]] = {words[u]: c for u, c in row}
        self._tables[multiset] = table
        self._rows.update(table)
        return table

    def representatives(self, letters) -> list:
        """The stored representative words of the multiset of ``letters``,
        generated (``_super_lyndon``) when the multiset has none stored; a
        sorted tuple is looked up without sorting.  Builds no table."""
        if type(letters) is not tuple or letters not in self.reps:
            letters = tuple(sorted(letters))
        return self._sorted_reps(letters)

    def _sorted_reps(self, multiset: tuple) -> list:
        """``representatives`` of a multiset its caller already holds as a
        sorted tuple, which is not sorted again."""
        try:
            return self.reps[multiset]
        except KeyError:
            reps = self.reps[multiset] = _super_lyndon(multiset)
            return reps

    def rep_words(self, alphabet, length: int) -> list:
        """Representative words of ``length`` letters over ``alphabet``,
        multiset by multiset in ``combinations_with_replacement`` order of the
        sorted alphabet."""
        words: list = []
        for ms in combinations_with_replacement(sorted(alphabet), length):
            words.extend(self._sorted_reps(ms))
        return words

    def reduce_word(self, word: Word) -> dict:
        """The stored row of ``word``: one lookup in the word index, or, for
        a word of an unbuilt multiset, its table built first."""
        try:
            return self._rows[word]
        except KeyError:
            return self._table(tuple(sorted(word)))[word]

    def reduce(self, elem: Elem) -> Elem:
        out: Elem = {}
        for word, coeff in elem.items():
            add_scaled(out, self.reduce_word(word), coeff)
        return out

    def is_representative(self, word: Word) -> bool:
        """Whether ``word`` is on its multiset's representative list; builds
        no table."""
        return word in self.representatives(word)


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
                add_term(out, (v, u), -sign * cu * cv)
    return out


def delta_elem(elem: Elem, quotient: ShuffleQuotient) -> dict:
    return extend(lambda w: delta(w, quotient), elem)


def lift_coderivation(taylor: dict, q: int, quotient: ShuffleQuotient):
    """Unique cocrochet coderivation of degree q with the given Taylor parts:
    the tensor coderivation lift of a word (``coderivation_lift_tensor``),
    reduced in the quotient."""
    lift = coderivation_lift_tensor(taylor, q)
    return lambda word: quotient.reduce(lift({word: 1}))


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


def d_harrison(C: dict, n: int, alg, quotient: ShuffleQuotient):
    """Harrison coboundary of an (n-1)-cochain over a commutative algebra,
    with coefficients in the algebra itself.

    ``C`` maps representative (n-1)-letter words (shifted letters) to algebra
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

    return d_hochschild(evalC, n, alg)
