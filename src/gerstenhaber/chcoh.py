"""Cochain complexes on packet monomials and their combined coboundary.

A level-N cochain assigns, to every canonical monomial whose packet lengths
sum to N, an element of a target Gerstenhaber algebra; it is symmetric with
Koszul signs (built into monomial canonicalization) and kills shuffle images
(packets are quotient representatives).  The coboundary has a product part
(detach the first or last letter of one packet through the declared letter
morphism, or apply the packet differential) and a bracket part (merge two
packets through the bracket extension, or pull a single-letter packet out
through the morphism into the target bracket).  Everything is exact.

Evaluated on a monomial W the terms are, writing x_i for packet degrees:

  product part, for each packet X_j of length >= 2 with letters a_1..a_p:
    (-1)^(deg a_1 * sum_(i<j) x_i)  mu2'(f1(a_1), f(... X_j minus first ...))
    (-1)^(deg a_p * sum_(i>j) x_i)  mu2'(f(... X_j minus last ...), f1(a_p))
    -(-1)^(sum_(i<j) x_i)           f(... mu(X_j) ...)
  bracket part:
    -eps(x / x_j x_k rest)          f(l2(X_j, X_k) . rest)      for j < k
    eps(x / x_j rest)               l2'(f1(X_j), f(rest))       for length-1 X_j

The letter morphism f1 is supported on letters of grade -1 (degree -1,
torus weight 0) and every image is killed by the target bracket (the
constants projection onto the base field; a unit mapped to a unit), which
``ChContext`` checks.  So the last term is zero and is not built, and every
other term evaluates f one grade above W: the coboundary is block diagonal
by grade, and with these morphisms alone it squares to zero.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, product
from typing import NamedTuple

from .exactlin import SparseMat, solve_in_column_span
from .genv import GerstBasis, h_bracket, h_mu
from .graded import Letter, koszul_sign, slot_terms, word_grade
from .ginfty import (Mono, add_mono, kappa, mono_deg, mono_grade, mono_key,
                     packet_sort_key, pdeg)
from .shuffleco import GradedLetters, ShuffleQuotient, graded_multisets
from .tensorco import ONE, add_scaled, add_term, extend, int_coeffs, int_view

Vec = dict  # dict[Letter, int | Fraction] over the target basis: a Cochain
            # stores Fraction values, d_ch reads them as ints where integers


class TruncationError(Exception):
    """A required shape or length falls outside the declared truncation."""


class Truncation(NamedTuple):
    """Finite window: spatial dimension, max letter tensor degree, max level N,
    max packet count n."""

    d: int
    kmax: int
    Nmax: int
    nmax: int

    def as_dict(self):
        return self._asdict()


def window(trunc: Truncation, level: int, degree: int) -> int:
    """The coordinate window w = t + 2N + (nmax > N) of deciding a cochain
    of ``level`` N whose support has degree ``degree`` t and torus weight 0
    (``is_cocycle``, then ``is_coboundary``): every monomial the decision
    reads touches at most w coordinates, and for a cochain natural under
    relabelling coordinates the decision on R^D is the decision on R^d' with
    d' = min(D, w).  For the headline f3 (N = 3, t = -3) this is 4 when
    nmax >= 4 and 3 otherwise.

    Tensor degrees.  A monomial of M letters in n packets and degree s has
    letter degrees k - 1 >= -1 (k the tensor degree) that sum to s + n,
    since each packet lowers the degree by one, so its tensor degrees sum
    to s + n + M.  The decision reads monomials of four kinds, each of
    degree s = t + N - M, so the sum is t + N + n <= w for each:
      - f's support: level N, n <= N packets;
      - the rows of d(f): level N + 1, n <= min(nmax, N + 1) packets;
      - the rows of the coboundary blocks: level N, n <= min(nmax, N);
      - their columns: level N - 1, n <= min(nmax, N - 1).

    Coordinates.  A letter x^alpha d_I touches the coordinates of alpha and
    of I, and has torus weight alpha - 1_I.  Every monomial the decision
    reads has weight 0 (f's weight; a coboundary term keeps the weight), so
    each coordinate in some letter's alpha is in some letter's I: it touches
    at most sum |I| = sum k <= w coordinates.  In particular every letter has
    k <= w, so a context on R^d' needs no tensor degree cut beyond the clamp
    k <= d'.

    Restriction.  R_S keeps the values of a cochain on the monomials that
    touch only coordinates in S.  A wedge or Schouten bracket touches only
    coordinates its factors touch (a bracket can drop one:
    [x_a d_b, x_b d_c] = x_a d_c), and so does every argument of a term of
    ``d_ch_terms``, the letter morphism included.  So the value of d(g) on
    a monomial W reads g only on monomials inside the coordinates S that W
    touches: R_S d(g) = R_S d(R_S g).  R_S does not commute with d itself:
    d(R_S g) can be nonzero on monomials that touch coordinates outside S.

    Relabelling.  An injective relabelling of coordinates preserves tensor
    degrees, wedge, bracket and the constants projection, so it commutes
    with d on the truncated complexes.  A cochain such as f3 is natural:
    R_S f^(D), relabelled onto 1..|S|, is f^(|S|).

    Hence the decision at D is the one at d'.  A row W of d(f^(D)) touches a
    set S of at most d' coordinates, and d(f^(D))(W) = d(R_S f^(D))(W) is,
    relabelled, a value of d(f^(d')): one vanishes iff the other does.  And
    f^(D) = d(g) gives, restricted to S = {1, 2, 3} and by naturality,
    f^(3) = R_S d(R_S g): the coboundary on R^3 of R_S g.  So when f^(3) is
    not a coboundary, neither is f^(D) for any D >= 3, and a preimage found
    at d' < D cannot happen.
    """
    return degree + 2 * level + (trunc.nmax > level)


def real_target() -> GerstBasis:
    """The base field as a Gerstenhaber algebra: degree 0, product, zero bracket."""
    one = Letter(("R",), -1)
    return GerstBasis([one], int_view({(one.ident, one.ident): {one.ident: 1}}),
                      int_view({}))


class ChContext:
    """Source algebra, its shuffle quotient, target algebra and letter morphism.

    ``f1`` maps source letters to target elements.  It must be supported on
    letters of grade -1 (degree -1 and torus weight 0), send them to target
    letters of grade -1, and each image f1(a) must be killed by the target
    bracket: [f1(a), b] = 0 for every target letter b.  Anything else raises
    ``ValueError``.  For these morphisms the coboundary is block diagonal by
    grade and its target-bracket term vanishes; for others, such as a
    sandbox's identity, it need not square to zero.  The target side of each
    term family is resolved here, once, into a map of target letters:
    ``identity``, and per source letter a of f1 ``mul_left[a]`` (b to
    f1(a) b) and ``mul_right[a]`` (b to b f1(a)), wedges in the target.
    Their coefficients are ints unless not integers.

    A context keeps what depends on it alone, each computed on first use:
    the monomial lists of ``monomials_for_shape``, the set-up of the
    grade-restricted walk (``graded_letters``), ``mono_grades`` (the
    ``mono_grade`` of every monomial a grade-restricted walk listed), and
    the packet operations of ``d_ch_terms``: each packet's degree
    (``degree``) and ``packet_sort_key`` (``sort_key``), the reduced
    ``h_bracket`` of a packet pair (``bracket``) and the one-packet term
    families of a packet (``families``, see ``packet_families``).  Each
    packet operation is a ``functools.cache`` on the context, so it lives as
    long as the context does; ``h_bracket`` and ``h_mu`` are looked up in
    this module when a value is computed.  The context also keeps each
    coboundary block it assembles (``blocks``, the one store ``_block_matrix``
    is reached through): ``is_coboundary``'s block of row grade gW under
    (level N, ``trunc.nmax``, gW), which fixes its rows (the level-N
    monomials of grade gW) and its columns (the level-(N - 1) monomials of
    grade gW + 1), and ``assemble_matrix``'s (matrix, rows, columns) under
    its source shapes.  A block is held until the context is dropped, large
    ones too: at d = 8 the level-4 block of degree -4, weight 0 is
    19 758 x 1304.
    The values are shared: read them, do not change them.
    """

    def __init__(self, source: GerstBasis, target: GerstBasis, f1: dict):
        self.source = source
        self.target = target
        self.identity = {b: {b: 1} for b in target.letters}
        self.mul_left: dict = {}
        self.mul_right: dict = {}
        for a, val in f1.items():
            val = int_coeffs({b: c for b, c in val.items() if c})
            if not val:
                continue
            if a.grade != -1 or any(b.grade != -1 for b in val):
                raise ValueError(f"f1 is not supported in grade -1: {a} -> {val}")
            for b in target.letters:
                if extend(target.bracket, val, {b: ONE}):
                    raise ValueError(f"the target bracket does not kill f1({a}): "
                                     f"[{val}, {b}] != 0")
            self.mul_left[a] = {b: extend(target.wedge, val, {b: ONE})
                                for b in target.letters}
            self.mul_right[a] = {b: extend(target.wedge, {b: ONE}, val)
                                 for b in target.letters}
        self.quotient = ShuffleQuotient()
        self._monomials: dict[tuple, list] = {}  # see monomials_for_shape
        self.mono_grades: dict = {}
        self.blocks: dict = {}
        self.degree = cache(pdeg)
        self.sort_key = cache(packet_sort_key)
        self.bracket = cache(lambda x, y: h_bracket(x, y, self.source, self.quotient))
        self.families = cache(lambda x: packet_families(self, x))

    @cached_property
    def graded_letters(self) -> GradedLetters:
        """The ``graded_multisets`` set-up of the source letters."""
        return GradedLetters(self.source.letters)

    def rep_words(self, length: int) -> list:
        """All representative words of the given length, in canonical order."""
        words = self.quotient.rep_words(self.source.letters, length)
        words.sort(key=packet_sort_key)
        return words


def packet_families(ctx: ChContext, x) -> list:
    """The one-packet term families of a packet ``x`` of two or more
    letters, in term order: (negate, target map, values, operator degree)
    for detaching its first letter, detaching its last letter and its
    ``h_mu``, each kept only when its target map and values are nonzero.
    ``ctx.families`` keeps them per packet."""
    # a detached letter has degree -1.  a_1 is carried left past x_1 ..
    # x_(j-1) (the slot_terms sign) and mu2' adds (-1)^(deg a_1) = -1.  a_p
    # is carried right past x_(j+1) .. x_n, the slot_terms sign times
    # (-1)^(total - x_j), and mu2' adds (-1)^(deg f(M)), deg f(M) = deg M +
    # 1 = total + 2: together (-1)^(x_j)
    fams = []
    for tmap, word, negate in ((ctx.mul_left.get(x[0]), x[1:], True),
                               (ctx.mul_right.get(x[-1]), x[:-1], ctx.degree(x) % 2)):
        if tmap:
            val = ctx.quotient.reduce_word(word)
            if val:
                fams.append((negate, tmap, val, -1))
    val = h_mu(x, ctx.source, ctx.quotient)
    if val:
        fams.append((True, ctx.identity, val, 1))
    return fams


def constants_context(source: GerstBasis) -> ChContext:
    """``source`` mapped onto the base field by the constants projection:
    every letter of degree -1 goes to the unit of ``real_target()``."""
    target = real_target()
    one = target.letters[0]
    return ChContext(source, target, {a: {one: 1}
                                      for a in source.letters if a.degree == -1})


def real_polyvec_context(d: int, kmax: int | None = None) -> ChContext:
    """Homogeneous polyvector fields mapped onto the base field by the
    constants projection."""
    from .genv import polyvec_basis

    return constants_context(polyvec_basis(d, kmax))


# ---------------------------------------------------------------------------
# coboundary terms

def _arg_shape(lens, drop, length) -> tuple:
    """The shape left when the parts at ``drop`` are replaced by one part of
    ``length`` letters."""
    return tuple(sorted([p for i, p in enumerate(lens) if i not in drop] + [length]))


class PacketTable:
    """The cochain side of one coboundary computation: per tuple of packet
    lengths (``live``), the term families of ``d_ch_terms`` whose argument
    shape is in ``shapes``, each tuple's computed on first use.

    With ``support``, the monomials a cochain is nonzero on, ``shapes`` is
    the set of their shapes and ``packets`` the set of their packets, which
    ``d_ch_terms`` reads to skip the terms whose argument cannot be in the
    support; without it ``packets`` is None and nothing is skipped.  The
    packet operations depend on the context alone and are kept on it.
    """

    def __init__(self, shapes=None, support=None):
        self.packets = None
        if support is not None:
            shapes = {tuple(sorted(len(w) for w in m)) for m in support}
            self.packets = {w for m in support for w in m}

        @cache
        def live(lens: tuple) -> tuple:
            """(packets to detach from or apply mu to, packet pairs to
            bracket), in term order."""
            n = len(lens)

            def keep(drop, length):
                return shapes is None or _arg_shape(lens, drop, length) in shapes

            return ([j for j in range(n) if lens[j] >= 2 and keep((j,), lens[j] - 1)],
                    [(j, k) for j in range(n) for k in range(j + 1, n)
                     if keep((j, k), lens[j] + lens[k] - 1)])

        self.live = live


def d_ch_terms(mono: Mono, ctx: ChContext, table: PacketTable):
    """The terms of the coboundary on one monomial, as a list of
    (coefficient, target map, canonical argument monomial): the term is the
    coefficient times the target map (one of ``ctx``'s maps of target
    letters) applied to the cochain's value on the argument.

    ``table`` is a ``PacketTable`` shared by the monomials of one
    computation; term families whose argument shape is not in its ``shapes``
    are not built, since a cochain vanishing off those shapes gets nothing
    from them.  Packet degrees, sort keys, brackets and one-packet families
    are read from ``ctx``, which keeps them across computations.  Every family is one ``graded.slot_terms`` call per packet or
    packet pair, which puts each value into the sorted rest of ``mono`` with
    its sign; the two identity families are the negatives of the terms of
    ``ginfty.m_on_packets`` and ``ginfty.ell_on_packets``.

    A family's argument keeps every packet of ``mono`` the family does not
    touch (all but one packet, or all but a pair).  So on a table with
    ``packets`` (the packets of a cochain's support) a family is built only
    when every untouched packet is in that set, and a monomial with more
    than two packets outside it gets no term, before any degree, key or
    packet operation.  The terms kept are those of the full list whose
    argument can be in the support, in the same order.
    """
    packets = table.packets
    outside = [] if packets is None else \
        [j for j, w in enumerate(mono) if w not in packets]
    if len(outside) > 2:
        return []
    detach, pairs = table.live(tuple(map(len, mono)))
    if outside:
        detach = [j for j in detach if outside == [j]]
        pairs = [p for p in pairs if all(j in p for j in outside)]
    degs = list(map(ctx.degree, mono))
    sort_key = ctx.sort_key
    terms = []
    for j in detach:
        for negate, tmap, val, op_deg in ctx.families(mono[j]):
            terms += [(-c if negate else c, tmap, key) for key, c in
                      slot_terms(mono, degs, (j,), val, op_deg, sort_key)]
    identity = ctx.identity
    for j, k in pairs:
        val = ctx.bracket(mono[j], mono[k])
        if val:
            terms += [(-c, identity, key) for key, c in
                      slot_terms(mono, degs, (j, k), val, 1, sort_key)]
    return terms


def d_ch_value(feval, mono: Mono, ctx: ChContext, table: PacketTable) -> Vec:
    """Value of the coboundary of the cochain ``feval`` on one monomial;
    ``table`` as in ``d_ch_terms``.  The value is in the arithmetic of
    ``feval``'s values: ints on a cochain read as ints where its values are
    integers, as ``d_ch`` reads it."""
    out: Vec = {}
    for coeff, tmap, arg in d_ch_terms(mono, ctx, table):
        for b, cb in feval(arg).items():
            add_scaled(out, tmap[b], coeff * cb)
    return out


def d_ch(f, ctx: ChContext, trunc: "Truncation") -> "Cochain":
    """The coboundary of a cochain as a stored cochain, one level up.

    Evaluates on every monomial of ``_coboundary_monomials``, with a
    ``PacketTable`` built on f's support, so only the terms whose argument
    can be in that support are built; raises TruncationError when a shape
    reachable from f's own support would fall outside the window.  f's
    values are read once, through ``tensorco.int_coeffs``, so the terms add
    up as ints where f's values are integers; the result stores
    ``Fraction`` values, as every ``Cochain`` does.
    """
    table = PacketTable(support=f.values)
    fvals = {m: int_coeffs(v) for m, v in f.values.items()}
    empty: Vec = {}

    def feval(mono: Mono) -> Vec:
        return fvals.get(mono, empty)

    values: dict = {}
    for mono in _coboundary_monomials(f, ctx, trunc, table):
        val = d_ch_value(feval, mono, ctx, table)
        if val:
            values[mono] = val
    return Cochain(values, f.level + 1)


def d_ch_row(mono: Mono, ctx: ChContext, table: PacketTable) -> dict:
    """Symbolic expansion: {(argument mono, out letter, in letter): coeff};
    ``table`` as in ``d_ch_terms``."""
    row: dict = {}
    for coeff, tmap, arg in d_ch_terms(mono, ctx, table):
        for b, img in tmap.items():
            for lo, c in img.items():
                add_term(row, (arg, lo, b), coeff * c)
    return row


# ---------------------------------------------------------------------------
# cochains

class Cochain:
    """A stored cochain: canonical monomial -> target element, plus its level
    and its grade support (the ``mono_grade`` of each monomial it is nonzero
    on: its degree and torus weight)."""

    def __init__(self, values: dict, level: int):
        self.values = {}
        for m, v in values.items():
            vec = {a: Fraction(c) for a, c in v.items() if c}
            if vec:
                self.values[m] = vec
        self.level = level
        self.grade_support = {mono_grade(m) for m in self.values}

    def eval(self, mono: Mono) -> Vec:
        return self.values.get(mono, {})

    def shapes(self):
        return {tuple(sorted(len(w) for w in m)) for m in self.values}

    def is_zero(self):
        return not self.values


def linear_fields(d: int, ctx: ChContext) -> dict:
    """The source letters x_a d_b of the linear vector fields on R^d, by
    (a, b), 1-based; the context must hold tensor degree 1."""
    by_ident = ctx.source.by_ident
    return {(a, b): by_ident[(1, (b,), tuple(int(i == a) for i in range(1, d + 1)))]
            for a in range(1, d + 1) for b in range(1, d + 1)}


def f3_111(d: int, ctx: ChContext) -> Cochain:
    """The scalar 3-cochain on triples of single vector-field packets, stored.

    On linear vector fields with basis letters x_a d_b the value is

        [b1=a2][b2=a3][b3=a1] - [b1=a3][b3=a2][b2=a1]

    (the two cyclic index contractions of the three Jacobians), and 0 whenever
    any packet is longer than one letter or any letter is not a vector field.
    It is alternating in the three odd packets, 1 on each index cycle
    (x_i d_j).(x_j d_k).(x_k d_i) and 0 on a triple on no cycle.  So it
    stores each cycle, started at its least index i <= j, k <= d, as its
    canonical monomial with the ``mono_key`` sign; the diagonal one is zero.
    """
    vf = linear_fields(d, ctx)
    one = ctx.target.letters[0]
    values = {}
    for i in range(1, d + 1):
        for j, k in product(range(i, d + 1), repeat=2):
            mono, sign = mono_key([(vf[i, j],), (vf[j, k],), (vf[k, i],)])
            if mono is not None:
                values[mono] = {one: sign}
    return Cochain(values, 3)


# ---------------------------------------------------------------------------
# shape and monomial enumeration

def level_shapes(N: int, nmax: int) -> list:
    """Partitions of N into at most nmax parts, as sorted tuples."""
    out = []

    def rec(remaining, maxpart, acc):
        if remaining == 0:
            out.append(tuple(sorted(acc)))
            return
        if len(acc) == nmax:
            return
        for p in range(min(remaining, maxpart), 0, -1):
            rec(remaining - p, p, acc + [p])

    rec(N, N, [])
    return sorted(set(out))


def reachable_shapes(shapes) -> list:
    """Shapes one coboundary step away from the given ones."""
    out = set()
    for shape in shapes:
        parts = list(shape)
        for j, p in enumerate(parts):
            out.add(tuple(sorted(parts[:j] + [p + 1] + parts[j + 1:])))
            rest = parts[:j] + parts[j + 1:]
            for q1 in range(1, p + 1):
                out.add(tuple(sorted(rest + [q1, p + 1 - q1])))
    return sorted(out)


def monomials_for_shape(ctx: ChContext, shape, grades=None) -> list:
    """Canonical basis monomials of one shape over the context letters, in
    the ``packet_sort_key`` order of their packets.

    With ``grades``, only the monomials whose ``mono_grade`` lies in it, in
    the same order, and only their packets are tabulated; the walk records
    each one's grade in ``ctx.mono_grades``.  The list is kept
    on the context per (shape, grade set): read it, do not change it.
    Each walk is faster on some workload (slots for ``assemble_matrix``,
    multiset splits for graded calls), so both stay.
    """
    lens = tuple(sorted(shape))
    key = (lens, None if grades is None else frozenset(grades))
    if key not in ctx._monomials:
        ctx._monomials[key] = (_slot_walk(ctx, lens) if grades is None
                               else _split_walk(ctx, lens, key[1]))
    return ctx._monomials[key]


def _slot_walk(ctx: ChContext, lens: tuple) -> list:
    """Every monomial of the sorted packet lengths ``lens``: one recursion
    over the packet slots, each taking the representative words in order."""
    words = {p: ctx.rep_words(p) for p in set(lens)}
    odd = {p: [pdeg(w) % 2 for w in ws] for p, ws in words.items()}
    n = len(lens)
    out = []

    def rec(s, lo, acc):
        if s == n:
            out.append(acc)
            return
        p = lens[s]
        ws, odds = words[p], odd[p]
        same = s + 1 < n and lens[s + 1] == p
        for i in range(lo, len(ws)):
            # equal-length slots take nondecreasing word indices, and a
            # repeated odd packet squares to zero
            rec(s + 1, i + odds[i] if same else 0, acc + (ws[i],))

    rec(0, 0, ())
    return out


def _split_walk(ctx: ChContext, lens: tuple, grades) -> list:
    """The monomials of the sorted packet lengths ``lens`` whose grade lies
    in ``grades``.  A monomial's letter grades sum to its grade plus its
    packet count, so one ``graded_multisets`` walk lists the letter
    multisets of whole monomials.  Each is split into packets, sub-multisets
    for those of two or more letters, shortest first, and the letters left
    over as single-letter ones; equal-length packets are nondecreasing, a
    repeated odd packet squares to zero, and the list is sorted once.  Each
    monomial's grade, its multiset's, goes into ``ctx.mono_grades``."""
    big = [p for p in lens if p > 1]
    out = []

    def split(rest, s, acc):
        if s == len(big):
            if not any(a == b and (a.degree - 1) % 2 for a, b in zip(rest, rest[1:])):
                out.append(tuple((a,) for a in rest) + acc)
            return
        p = big[s]
        prev = acc[-1] if s and big[s - 1] == p else None
        # the k-th p-letter combination of rest leaves the k-th from last of
        # its (len(rest) - p)-letter ones; the dict keeps each sub-multiset
        # once, and each is sorted, as rest is (a walk over the sorted letters)
        for sub, left in dict(zip(combinations(rest, p), reversed(
                list(combinations(rest, len(rest) - p))))).items():
            for w in ctx.quotient._sorted_reps(sub):
                if prev is None or packet_sort_key(w) > packet_sort_key(prev) \
                        or w == prev and not pdeg(w) % 2:
                    split(left, s + 1, acc + (w,))

    for ms in graded_multisets(ctx.graded_letters, sum(lens),
                               {t + len(lens) for t in grades}):
        start = len(out)
        split(ms, 0, ())
        ctx.mono_grades.update(dict.fromkeys(out[start:], word_grade(ms) - len(lens)))
    # packets in one place have one length: their idents in a row order them
    out.sort(key=lambda mono: [a.ident for w in mono for a in w])
    return out


def _coboundary_monomials(f, ctx: ChContext, trunc: Truncation,
                          table: PacketTable):
    """Monomials one level above f on which d(f) can be nonzero, by shape.

    Raises TruncationError when a shape reachable from f's own support falls
    outside the window.  Shapes on which ``table`` (built on f's support)
    keeps no term family are skipped.  Every coboundary term evaluates f one
    grade up: one degree up in the same torus weight, since wedge and
    bracket add weights and the letter morphism is supported in grade -1.
    So only the monomials of grade s - 1, s in f's grade support, are
    enumerated.
    """
    bad = [s for s in reachable_shapes(f.shapes())
           if sum(s) > trunc.Nmax or len(s) > trunc.nmax]
    if bad:
        raise TruncationError(f"required shapes outside truncation: {bad}")
    grades = {s - 1 for s in f.grade_support}
    for shape in level_shapes(f.level + 1, trunc.nmax):
        if any(table.live(shape)):
            yield from monomials_for_shape(ctx, shape, grades)


# ---------------------------------------------------------------------------
# cocycle / coboundary decisions

def _block_matrix(ctx: ChContext, rows: list, cols: list,
                  table: PacketTable) -> SparseMat:
    """Exact coboundary matrix from the ``cols`` monomials to the ``rows``
    monomials; row ri * nt + i and column ci * nt + i carry target letter i
    (nt target letters).  Terms on arguments outside ``cols`` are dropped."""
    tindex = {a: i for i, a in enumerate(ctx.target.letters)}
    nt = len(tindex)
    col_index = {m: i for i, m in enumerate(cols)}
    entries: dict = {}
    for ri, W in enumerate(rows):
        for (arg, lo, li), c in d_ch_row(W, ctx, table).items():
            ci = col_index.get(arg)
            if ci is not None:
                rc = (ri * nt + tindex[lo], ci * nt + tindex[li])
                entries[rc] = entries.get(rc, 0) + c
    return SparseMat(len(rows) * nt, len(cols) * nt, entries)


def is_cocycle(f, ctx: ChContext, trunc: Truncation) -> bool:
    """Whether d(f) vanishes on every monomial inside the truncation.

    The target shapes reachable from f's shapes must fit inside the declared
    window, otherwise a TruncationError reports the missing shapes instead of
    silently shrinking the check.
    """
    return d_ch(f, ctx, trunc).is_zero()


def is_coboundary(f, ctx: ChContext, trunc: Truncation):
    """Exact solve of d(g) = f over all level-(N-1) shapes, or None.

    The system splits into independent blocks by monomial grade (every
    coboundary term references arguments of grade grade(W)+1); each block is
    decided by an exact
    rank comparison, and a preimage is assembled when every block is solvable.
    Only the blocks of the row grades in f's grade support are built and
    solved: every other block has right-hand side zero, which zero solves.
    Each block is kept on the context under (N, ``trunc.nmax``, row grade),
    so a warm context assembles none it has solved before.
    The preimage lists the solutions degree by degree, in the order in which
    the rows first reach each degree, and within a degree by column in
    enumeration order, so it does not depend on how a degree splits into
    weights.
    """
    N = f.level
    if N < 1:
        raise ValueError("level must be >= 1")
    src_shapes = level_shapes(N - 1, trunc.nmax)
    row_shapes = level_shapes(N, trunc.nmax)
    missing = [s for s in f.shapes() if s not in row_shapes]
    if missing:
        raise TruncationError(f"cochain shapes outside truncation: {missing}")

    grades, grade_of = f.grade_support, ctx.mono_grades
    cols: list = []  # every column monomial, in enumeration order
    for shape in src_shapes:
        cols += monomials_for_shape(ctx, shape, {s + 1 for s in grades})
    cols_by_grade: dict[int, list] = {}  # grade -> indices into cols
    for i, mono in enumerate(cols):
        cols_by_grade.setdefault(grade_of[mono], []).append(i)

    rows_by_grade: dict[int, list] = {}
    for shape in row_shapes:
        for mono in monomials_for_shape(ctx, shape, grades):
            rows_by_grade.setdefault(grade_of[mono], []).append(mono)

    tletters = ctx.target.letters
    tindex = {a: i for i, a in enumerate(tletters)}
    nt = len(tletters)
    table = PacketTable()
    by_degree: dict[int, dict] = {}  # row degree -> {column * nt + letter: value}
    for gW, rows in rows_by_grade.items():
        block = cols_by_grade.get(gW + 1, [])
        b: dict[int, Fraction] = {}
        for ri, W in enumerate(rows):
            for lo, c in f.eval(W).items():
                b[ri * nt + tindex[lo]] = c
        if not b and not block:
            continue
        # (N, nmax, gW) fixes the rows and the columns
        key = (N, trunc.nmax, gW)
        if key not in ctx.blocks:
            ctx.blocks[key] = _block_matrix(ctx, rows, [cols[i] for i in block], table)
        x = solve_in_column_span(ctx.blocks[key], b)
        if x is None:
            return None
        by_degree.setdefault(mono_deg(rows[0]), {}).update(
            (block[ci // nt] * nt + ci % nt, c) for ci, c in x.items() if c)
    preimage: dict = {}
    for solved in by_degree.values():
        for key in sorted(solved):
            preimage.setdefault(cols[key // nt], {})[tletters[key % nt]] = solved[key]
    return Cochain(preimage, N - 1)


def assemble_matrix(ctx: ChContext, src_shapes):
    """Exact matrix of the coboundary from the given source shapes.

    Rows run over all monomials of the shapes reachable from the sources
    times target letters, columns over source monomials times target
    letters.  Returns (matrix, row index list, column index list), kept on
    the context under the source shapes: shared values, read them, do not
    change them.
    """
    key = tuple(map(tuple, src_shapes))
    if key not in ctx.blocks:
        cols = []
        for shape in src_shapes:
            cols.extend(monomials_for_shape(ctx, shape))
        rows = []
        for shape in reachable_shapes(src_shapes):
            rows.extend(monomials_for_shape(ctx, shape))
        ctx.blocks[key] = _block_matrix(ctx, rows, cols, PacketTable()), rows, cols
    return ctx.blocks[key]


# ---------------------------------------------------------------------------
# morphism reconstruction

def recursion_single(mono: Mono, taylor, source_quotient: ShuffleQuotient,
                     target_quotient: ShuffleQuotient, cache: dict) -> dict:
    """Single-packet lift via the cocrochet comorphism identity.

    The component on a monomial is the Taylor value plus the unique solution P
    of  kappa(P) = (F (x) F) kappa(monomial)  restricted to single-packet
    pairs; the uncut solve is an exact linear system over candidate
    representative words.  ``cache`` holds the components already lifted, so
    sub-monomials shared by several cuts are solved once.  The paper's signed
    tableau sum gives the same components; the tests keep it as the oracle.
    """
    if mono in cache:
        return cache[mono]
    base: dict = {}
    for a, c in taylor(mono).items():
        add_term(base, (a,), c)
    if sum(len(w) for w in mono) == 1:
        cache[mono] = base
        return base
    R: dict = {}
    for (m1, m2), c in kappa(mono, source_quotient).items():
        F1 = recursion_single(m1, taylor, source_quotient, target_quotient, cache)
        F2 = recursion_single(m2, taylor, source_quotient, target_quotient, cache)
        for w1, c1 in F1.items():
            for w2, c2 in F2.items():
                add_term(R, (w1, w2), c * c1 * c2)
    P = dict(base)
    if R:
        multisets = sorted({tuple(sorted(w1 + w2)) for (w1, w2) in R})
        cands: list = []
        for ms in multisets:
            cands.extend(target_quotient.representatives(ms))
        cands = sorted(set(cands))
        pairs = sorted(R.keys())
        pidx = {p: i for i, p in enumerate(pairs)}
        ents: dict = {}
        for ci, w in enumerate(cands):
            for ((u,), (v,)), c in kappa((w,), target_quotient).items():
                pr = (u, v)
                if pr not in pidx:
                    pidx[pr] = len(pidx)
                    pairs.append(pr)
                ents[(pidx[pr], ci)] = ents.get((pidx[pr], ci), 0) + c
        mat = SparseMat(len(pairs), len(cands), ents)
        x = solve_in_column_span(mat, {pidx[p]: c for p, c in R.items()})
        if x is None:
            raise ArithmeticError(f"uncut solve failed on {mono}")
        for ci, c in x.items():
            add_term(P, cands[ci], c)
    cache[mono] = P
    return P


class TaylorFamily:
    """A finite family of Taylor coefficients for a bicoalgebra morphism.

    ``coeffs`` maps shape tuples to dicts {canonical source monomial: Vec over
    target letters}; monomials must be built from representative packets.
    """

    def __init__(self, coeffs: dict):
        self.coeffs = {tuple(sorted(s)): v for s, v in coeffs.items()}

    def __call__(self, mono: Mono) -> Vec:
        shape = tuple(sorted(len(w) for w in mono))
        return self.coeffs.get(shape, {}).get(mono, {})


def reconstruct_morphism(taylor: TaylorFamily, source_quotient: ShuffleQuotient,
                         target_quotient: ShuffleQuotient):
    """Lift a Taylor family to the bicoalgebra morphism.

    Returns (full, single): ``single`` maps a canonical source monomial to its
    single-packet component {output word: coefficient} by the cocrochet
    recursion (``recursion_single``); ``full`` assembles the whole morphism as
    the sum over unordered packet partitions of products of single components,
    with the Koszul regrouping sign.  The lift satisfies both comorphism
    identities, which is how the sign conventions are validated.
    """
    rec_cache: dict = {}

    def single(mono: Mono) -> dict:
        return recursion_single(mono, taylor, source_quotient, target_quotient,
                                rec_cache)

    def full(mono: Mono) -> dict:
        n = len(mono)
        degs = [pdeg(w) for w in mono]
        out: dict = {}

        def partitions(indices):
            if not indices:
                yield []
                return
            first, rest = indices[0], indices[1:]
            for k in range(len(rest) + 1):
                for others in combinations(rest, k):
                    block = (first,) + others
                    remaining = [i for i in rest if i not in others]
                    for tail in partitions(remaining):
                        yield [block] + tail

        for blocks in partitions(list(range(n))):
            flat = [i for block in blocks for i in block]
            sign = koszul_sign(degs, flat)
            acc = [([], sign)]
            for block in blocks:
                fac = single(tuple(mono[i] for i in block))
                nxt = []
                for packs_sofar, c in acc:
                    for w, cw in fac.items():
                        nxt.append((packs_sofar + [w], c * cw))
                acc = nxt
            for packs_sofar, c in acc:
                add_mono(out, packs_sofar, c)
        return out

    return full, single
