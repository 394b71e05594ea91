"""The differential graded Lie algebra on the shuffle quotient of a Gerstenhaber algebra.

A ``GerstBasis`` packages a finite graded basis with exact structure constants
for the (unshifted) wedge and the bracket; letters carry their shifted degree,
so for a basis element of tensor degree k the letter degree is k - 1.  The
bracket is extended to tensor words by bracketing one letter of the first word
with one letter of the second inside a signed shuffle; that extension descends
to the shuffle quotient.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import combinations

from .graded import Letter
from .polyvec import basis as pv_basis
from .polyvec import (_merge_dirs, check_mono, hom_ident, hom_letter,
                      schouten_monos, wedge_monos)
from .shuffleco import ShuffleQuotient, Word, _shuffle, lift_coderivation
from .tensorco import (add_scaled, add_term, associativity, derivation,
                       fraction_table, jacobi, symmetry)

Vec = dict   # dict[Letter, int | Fraction], int unless not an integer
Elem = dict  # dict[Word, int | Fraction], as Vec

# The keys (``GerstBasis._constants``) of the structures that passed
# ``GerstBasis.validate`` in this process: idents and int/Fraction values only
_validated: set = set()


class GerstBasis:
    """Finite graded basis with exact wedge and bracket structure constants.

    ``wedge_op(i, j)`` and ``bracket_op(i, j)`` map a pair of letter idents
    to a dict ident -> coefficient ({} for a zero product); callers only read
    the returned dicts.  On letters of shifted degrees a, b the wedge has
    shifted degree a + b + 1 and the bracket a + b.  ``wedge``/``bracket``
    return the same constants Letter-keyed, with the zero ones dropped and
    each as the op gives it (an int on integral ops), and
    ``wedge_table``/``bracket_table`` materialise them over all letter pairs
    with Fraction values.  ``wedge``, ``bracket`` and ``mu2`` keep each
    letter-pair result from its first read in a ``functools.cache`` held by
    the basis, so it lives as long as the basis does, and return the kept
    dict: callers must not change it.
    ``validate()`` checks the axioms on basis pairs and triples with the
    ``tensorco`` residuals run on the two ops: the wedge graded commutative
    and associative in the unshifted grading, the bracket graded
    antisymmetric with Jacobi in the shifted one, and each [a, .] a
    derivation of the wedge (Leibniz).  Each residual is checked once per
    orbit of arguments on which it agrees up to sign (see ``validate``).
    A structure whose constants already passed in this process is not
    checked again: a module-level set keeps each passing key (its letters'
    idents and degrees and the wedge and bracket constants on every ordered
    ident pair), never a failing one, and holds idents and values only, no
    ``Letter`` or basis.
    An algebra given by tables passes ``tensorco.int_view``s of them.
    """

    def __init__(self, letters, wedge, bracket, name=""):
        self.letters = sorted(letters)
        self.by_ident = {a.ident: a for a in self.letters}
        self.wedge_op = wedge
        self.bracket_op = bracket
        self.name = name
        # the letter-pair constants behind wedge, bracket and mu2
        self._wedge = cache(lambda a, b: self._on_letters(self.wedge_op(a.ident, b.ident)))
        self._bracket = cache(lambda a, b: self._on_letters(self.bracket_op(a.ident, b.ident)))
        self._mu2 = cache(lambda a, b: {c: -v if a.degree % 2 else v
                                        for c, v in self.wedge(a, b).items()})

    def _on_letters(self, val: dict) -> Vec:
        return {self.by_ident[i]: c for i, c in val.items() if c}

    def wedge(self, a: Letter, b: Letter) -> Vec:
        return self._wedge(a, b)

    def bracket(self, a: Letter, b: Letter) -> Vec:
        return self._bracket(a, b)

    def _table(self, op) -> dict:
        idents = [a.ident for a in self.letters]
        return fraction_table({(i, j): op(i, j) for i in idents for j in idents})

    @property
    def wedge_table(self) -> dict:
        """The wedge over all letter pairs, {(i, j): {ident: Fraction}},
        zero constants and empty entries left out."""
        return self._table(self.wedge_op)

    @property
    def bracket_table(self) -> dict:
        """The bracket over all letter pairs, as ``wedge_table``."""
        return self._table(self.bracket_op)

    def mu2(self, a: Letter, b: Letter) -> Vec:
        """Shifted product: (-1)^(deg a) wedge, of shifted degree +1."""
        return self._mu2(a, b)

    def unshifted(self, letter: Letter) -> int:
        return letter.degree + 1

    def _constants(self) -> tuple:
        """The values ``validate`` reads: (ident, degree) in letter order,
        then the wedge and the bracket on every ordered ident pair in loop
        order, each as a frozenset of its (ident, coefficient) items."""
        idents = [a.ident for a in self.letters]
        pairs = [(a, b) for a in idents for b in idents]
        return (tuple((a.ident, a.degree) for a in self.letters),
                tuple(frozenset(self.wedge_op(a, b).items()) for a, b in pairs),
                tuple(frozenset(self.bracket_op(a, b).items()) for a, b in pairs))

    def validate(self):
        """Check the axioms on basis pairs and triples; raise ValueError
        naming the first that fails, else return self.

        The verdict is a function of ``_constants()`` alone, and the
        process keeps each key that passed in a module-level set: a key
        already there returns self with no check run.  A failure is never
        kept, so a failing structure is checked again each time and raises
        the same first error.  The set holds idents and int/Fraction
        values, no ``Letter`` or basis.

        The degree checks run on every ordered pair.  Each residual runs
        once per orbit of arguments on which it agrees up to sign, on the
        orbit's first member in loop order (positions x, y, z in the sorted
        letters): symmetry on x <= y, as symmetry(b, a) = +-symmetry(a, b);
        and, once the pair loop has passed (so the wedge is graded
        commutative and the bracket graded antisymmetric on all elements),
        associativity on x < z, as (a, b, c) -> (c, b, a) only changes its
        sign and a triple (p, q, p) fails only when (p, p, q) or (q, p, p)
        does, Leibniz on y <= z, likewise under (a, b, c) -> (a, c, b), and
        Jacobi on x <= y <= z, as the Jacobiator is graded antisymmetric.
        A skipped triple fails only with a checked one that comes earlier in
        loop order, so the first error raised is the one that checking every
        ordered pair and triple raises.

        The residuals run on letter idents, with degrees read from ident ->
        degree dicts and the constants from the two ops, so integral
        constants are checked in int arithmetic."""
        key = self._constants()
        if key in _validated:
            return self
        idents = [a.ident for a in self.letters]
        udeg = {a.ident: a.degree + 1 for a in self.letters}
        sdeg = {a.ident: a.degree for a in self.letters}
        unshifted, shifted_deg = udeg.__getitem__, sdeg.__getitem__
        wedge, bracket = self.wedge_op, self.bracket_op
        for x, a in enumerate(idents):
            ka = udeg[a]
            for y, b in enumerate(idents):
                kb = udeg[b]
                for c, coeff in wedge(a, b).items():
                    if coeff and udeg[c] != ka + kb:
                        raise ValueError("wedge not degree 0")
                if x <= y and symmetry(wedge, unshifted, a, b):
                    raise ValueError("wedge not graded commutative")
                for c, coeff in bracket(a, b).items():
                    if coeff and udeg[c] != ka + kb - 1:
                        raise ValueError("bracket not degree -1")
                if x <= y and symmetry(bracket, shifted_deg, a, b, -1):
                    raise ValueError("bracket not graded antisymmetric")
        for x, a in enumerate(idents):
            ad_a = partial(bracket, a)
            for y, b in enumerate(idents):
                for z, c in enumerate(idents):
                    if x < z and associativity(wedge, a, b, c):
                        raise ValueError("wedge not associative")
                    if y <= z and derivation(ad_a, sdeg[a], wedge, unshifted, b, c):
                        raise ValueError("Leibniz axiom fails")
                    if x <= y <= z and jacobi(bracket, shifted_deg, a, b, c):
                        raise ValueError("graded Jacobi fails")
        _validated.add(key)
        return self


def polyvec_basis(d: int, kmax: int | None = None) -> GerstBasis:
    """Homogeneous polyvector fields on R^d up to tensor degree kmax.

    With kmax = d (the default) the space is closed under wedge and bracket,
    so the constants are exact structure constants of the full
    finite-dimensional algebra; below it a product of tensor degree above
    kmax is cut to {}.  Each constant comes from ``wedge_monos`` or
    ``schouten_monos`` on the pair's two basis monomials; the ops keep
    nothing, and the basis's ``wedge``/``bracket`` keep each constant from
    its first read.  Each letter gets its torus weight once, in its grade
    (``hom_letter``).
    """
    if kmax is None:
        kmax = d
    letters = [hom_letter(d, mono) for k in range(kmax + 1) for mono in pv_basis(d, k)]

    def on_idents(formula, shift):
        # an ident is a hom_ident: (tensor degree, directions, exponents)
        def op(i, j):
            k = i[0] + j[0] + shift
            if k > kmax:
                return {}
            out = {}
            for mono, c in formula((i[2], i[1]), (j[2], j[1])).items():
                check_mono(mono, d, k)
                out[hom_ident(mono)] = c
            return out
        return op

    return GerstBasis(letters, on_idents(wedge_monos, 0), on_idents(schouten_monos, -1),
                      name=f"Tpolyhom(d={d})")


def exterior_of_lie(dim: int, lie_table: dict, name="sandbox") -> GerstBasis:
    """Exterior algebra of a Lie algebra with the induced odd bracket.

    Generators e_1..e_dim have tensor degree 1; the wedge is the exterior
    product and the bracket extends ``lie_table`` ([e_i, e_j] as dicts
    generator index -> int coefficient) as a biderivation.  Both are
    int-valued ops on letter idents, each constant computed the first time
    its pair is read and kept for the basis's lifetime.  The result is a
    Gerstenhaber algebra whose axioms ``GerstBasis.validate`` checks on one
    basis pair or triple per orbit on which a residual agrees up to sign.
    """
    def ident(s: tuple) -> tuple:
        return ("sb", len(s), s)

    letters = [Letter(ident(s), r - 1) for r in range(dim + 1)
               for s in combinations(range(1, dim + 1), r)]

    @cache
    def wedge(i, j) -> dict:
        merged, sign = _merge_dirs(i[2], j[2])
        return {} if merged is None else {ident(merged): sign}

    @cache
    def bracket(i, j) -> dict:
        sa, sb = i[2], j[2]
        out: dict = {}
        if not sa or not sb:
            pass
        elif len(sa) == 1 and len(sb) == 1:
            for gen, c in lie_table.get((sa[0], sb[0]), {}).items():
                add_term(out, ident((gen,)), c)
        elif len(sa) == 1:
            # [e, b ^ rest] = [e, b] ^ rest + b ^ [e, rest]; e has degree 1
            b0, rest = ident(sb[:1]), ident(sb[1:])
            for k, v in bracket(i, b0).items():
                add_scaled(out, wedge(k, rest), v)
            for k, v in bracket(i, rest).items():
                add_scaled(out, wedge(b0, k), v)
        else:
            # [a ^ beta, c] = a ^ [beta, c] + (-1)^(|beta|(|c|-1)) [a, c] ^ beta
            a0, beta = ident(sa[:1]), ident(sa[1:])
            for k, v in bracket(beta, j).items():
                add_scaled(out, wedge(a0, k), v)
            sign = -1 if ((len(sa) - 1) * (len(sb) - 1)) % 2 else 1
            for k, v in bracket(a0, j).items():
                add_scaled(out, wedge(k, beta), sign * v)
        return out

    return GerstBasis(letters, wedge, bracket, name=name).validate()


def sandbox_gerstenhaber(rng) -> GerstBasis:
    """A random small Gerstenhaber algebra for property tests.

    Draws a Lie algebra of dimension 2 or 3 (any dimension-2 bracket, or a
    randomized member of the standard dimension-3 families) and returns its
    exterior algebra.  Validation at construction guards the draw.
    """
    dim = rng.choice([2, 2, 3])
    table: dict = {}

    def setbr(i, j, val):
        table[(i, j)] = val
        table[(j, i)] = {g: -c for g, c in val.items()}

    if dim == 2:
        setbr(1, 2, {1: rng.randint(-2, 2), 2: rng.randint(-2, 2)})
    else:
        kind = rng.choice(["heisenberg", "solvable", "sl2", "abelian"])
        if kind == "heisenberg":
            setbr(1, 2, {3: rng.randint(1, 2)})
        elif kind == "solvable":
            setbr(3, 1, {1: rng.randint(-2, 2)})
            setbr(3, 2, {2: rng.randint(-2, 2)})
        elif kind == "sl2":
            setbr(1, 2, {3: 1})
            setbr(3, 1, {1: 2})
            setbr(3, 2, {2: -2})
    return exterior_of_lie(dim, table, name=f"sandbox(dim={dim})")


def _run_shuffles(letters: tuple, odd: list, u0: int, u1: int, v0: int, v1: int):
    """Signed shuffles of the runs letters[u0:u1] and letters[v0:v1], as
    (letter word, +-1) pairs; ``_shuffle`` runs on the positions as codes
    only when both runs are nonempty."""
    if u0 == u1 or v0 == v1:
        return ((letters[u0:u1] + letters[v0:v1], 1),)
    return [(tuple([letters[c] for c in w]), s)
            for w, s in _shuffle(tuple(range(u0, u1)), tuple(range(v0, v1)), odd).items()]


def h_bracket_raw(a: Word, b: Word, basis: GerstBasis) -> Elem:
    """Bracket extension on plain tensor words, before quotient reduction.

    Sum over shuffles of a and b and over positions where a letter a_i of a
    lands immediately before a letter b_j of b; those two letters are
    bracketed in place.  These shuffles are

        (a[:i] ш b[:j]) . [a_i, b_j] . (a[i+1:] ш b[j+1:])

    and the coefficient is the Koszul shuffle sign alone: the signs of the
    two outer shuffles times (-1)^(O(b[:j]) O(a[i:]) + odd(b_j) O(a[i+1:])),
    with O the number of odd letters.  ``_run_shuffles`` gives both outer
    shuffles; one with an empty side is the other side alone, with sign +1,
    and is not run through ``_shuffle``.  Terms are added in loop order.
    """
    p = len(a)
    letters = a + b
    odd = [x.degree % 2 for x in letters]
    out: Elem = {}
    get = out.get
    for i, x in enumerate(a):
        after = sum(odd[i + 1:p])
        for j, y in enumerate(b):
            br = basis.bracket(x, y)
            if not br:
                continue
            flip = (sum(odd[p:p + j]) * (odd[i] + after) + odd[p + j] * after) % 2
            tails = _run_shuffles(letters, odd, i + 1, p, p + j + 1, len(letters))
            for head, sh in _run_shuffles(letters, odd, 0, i, p, p + j):
                for tail, st in tails:
                    sign = -sh * st if flip else sh * st
                    for letter, c in br.items():
                        word = head + (letter,) + tail
                        s = get(word, 0) + (c if sign > 0 else -c)
                        if s:
                            out[word] = s
                        else:
                            del out[word]
    return out


def h_bracket(a: Word, b: Word, basis: GerstBasis, quotient: ShuffleQuotient) -> Elem:
    """Bracket of two quotient classes, reduced to representative words."""
    return quotient.reduce(h_bracket_raw(a, b, basis))


def h_mu(word: Word, basis: GerstBasis, quotient: ShuffleQuotient) -> Elem:
    """C-infinity differential on a quotient class, reduced: the degree 1
    coderivation lift of the shifted product ``mu2``,

        mu(a_[1,n]) = sum_k (-1)^(a_1 + ... + a_(k-1))
                      a_[1,k-1] (x) mu2(a_k, a_(k+1)) (x) a_[k+2,n].
    """
    return lift_coderivation({2: lambda w: basis.mu2(w[0], w[1])}, 1, quotient)(word)
