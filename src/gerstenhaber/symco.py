"""Cofree cocommutative coalgebra on a shifted Lie algebra and its coboundaries.

A symmetric word is stored as a tuple of letters sorted by ident; reordering
an input multiplies the coefficient by the Koszul sign of the sort (with
shifted degrees), and a repeated letter of odd shifted degree kills the word.
Letters of a ``LieData`` carry unshifted degrees, as in the graded Lie axioms.
"""

from __future__ import annotations

from itertools import combinations, product
from operator import attrgetter

from .exactlin import SparseMat
from .graded import Letter, bipartitions, koszul_sort, shifted, unshuffle_sign
from .shuffleco import ShuffleQuotient, d_harrison
from .tensorco import (FiniteAlgebra, add_scaled, coderivation_lift_sym,
                       d_hochschild, derivation, extend, fraction_table,
                       int_coeffs, int_view, jacobi, on_letters, square_zero,
                       symmetry)

Vec = dict   # dict[Letter, int | Fraction], int unless not an integer


def sdeg(letter: Letter) -> int:
    return letter.degree - 1


ident_key = attrgetter("ident")


def sym_key(letters) -> tuple:
    """Canonical (sorted word, Koszul sign) for a list of letters, or (None, 0).

    Sorting is by ident; the sign is computed on shifted degrees.  A repeated
    letter of odd shifted degree makes the square-zero word (None, 0).
    """
    return koszul_sort(letters, [sdeg(a) for a in letters], ident_key)


class LieData:
    """Graded Lie algebra (optionally differential) by structure constants.

    ``bracket[(i, j)]`` maps letter ident pairs to dicts ident -> coefficient,
    stored with Fraction values (``fraction_table``), and uses the unshifted
    grading: degree 0 bracket, antisymmetry [X,Y] = -(-1)^(xy) [Y,X], graded
    Jacobi.  ``diff`` is an optional degree 1
    differential table satisfying the Leibniz rule and squaring to zero.  All
    axioms are checked on basis elements at construction.
    """

    def __init__(self, letters, bracket, diff=None):
        self.letters = list(letters)
        self.by_ident = {a.ident: a for a in self.letters}
        self.bracket_table = fraction_table(bracket)
        self.diff_table = fraction_table(diff or {})
        self._validate()

    def bracket_letters(self, a: Letter, b: Letter) -> Vec:
        return on_letters(self.bracket_table, self.by_ident, (a.ident, b.ident))

    def bracket(self, x: Vec, y: Vec) -> Vec:
        return extend(self.bracket_letters, x, y)

    def d_letter(self, a: Letter) -> Vec:
        return on_letters(self.diff_table, self.by_ident, a.ident)

    def _validate(self):
        idents = [a.ident for a in self.letters]
        deg = {a.ident: a.degree for a in self.letters}
        deg_of = deg.__getitem__
        br = int_view(self.bracket_table)
        for a in idents:
            for b in idents:
                for c, coeff in br(a, b).items():
                    if coeff and deg[c] != deg[a] + deg[b]:
                        raise ValueError("bracket not degree 0")
                if symmetry(br, deg_of, a, b, -1):
                    raise ValueError(f"bracket not antisymmetric on {a},{b}")
        for a in idents:
            for b in idents:
                for c in idents:
                    if jacobi(br, deg_of, a, b, c):
                        raise ValueError(f"Jacobi fails on {a},{b},{c}")
        if self.diff_table:
            diff = {a: int_coeffs(v) for a, v in self.diff_table.items()}
            d = lambda a: diff.get(a, {})
            for a in idents:
                for c, coeff in d(a).items():
                    if coeff and deg[c] != deg[a] + 1:
                        raise ValueError("differential not degree 1")
                if square_zero(d, a):
                    raise ValueError("differential does not square to zero")
            for a in idents:
                for b in idents:
                    if derivation(d, 1, br, deg_of, a, b):
                        raise ValueError("differential not a bracket derivation")


def sym_coproduct(word) -> dict:
    """Coproduct of a symmetric word: signed sum over proper bipartitions,
    {(left_word, right_word): coefficient}; subwords of a sorted word stay
    sorted."""
    return bipartitions(word, [sdeg(a) for a in word])


def ell2(data: LieData, a: Letter, b: Letter) -> Vec:
    """l2(X, Y) = (-1)^x [X, Y], symmetric of degree 1 on the shifted space."""
    sign = -1 if sdeg(a) % 2 else 1
    return {c: sign * v for c, v in data.bracket_letters(a, b).items()}


def ell_lift(data: LieData):
    """Degree 1 coderivation of the symmetric coproduct with parts l1 = d and
    l2 = ``ell2``, by ``tensorco.coderivation_lift_sym``, whose pair step
    adds l2's (-1)^x to the bracket; shifted degrees everywhere."""
    return coderivation_lift_sym({1: data.d_letter, 2: data.bracket_letters},
                                 sdeg, ident_key)


def d_chevalley(F, deg_f: int, g: LieData, h: LieData, phi):
    """Graded Chevalley coboundary of an n-cochain F on S^n(g[1]) valued in h[1].

    ``F`` is a callable on letter lists returning a Vec over h letters;
    ``phi`` maps a g letter to a Vec over h letters (a degree 0 morphism).
    The result is a callable on (n+1)-letter lists:

        sum_i eps(x / x_i rest) l2^h(phi(X_i), F(rest))
        - (-1)^deg_f sum_(i<j) eps(x / x_i x_j rest) F(l2^g(X_i, X_j) . rest)
    """

    def dF(letters) -> Vec:
        n1 = len(letters)
        degs = [sdeg(a) for a in letters]
        out: Vec = {}
        for i in range(n1):
            rest = [letters[k] for k in range(n1) if k != i]
            sign = unshuffle_sign(degs, [i])
            fval = F(rest)
            if not fval:
                continue
            for u, cu in phi(letters[i]).items():
                s = -1 if sdeg(u) % 2 else 1
                add_scaled(out, h.bracket({u: cu}, fval), sign * s)
        fsign = -1 if deg_f % 2 else 1
        for i in range(n1):
            for j in range(i + 1, n1):
                rest = [letters[k] for k in range(n1) if k != i and k != j]
                sign = unshuffle_sign(degs, [i, j])
                for letter, c in ell2(g, letters[i], letters[j]).items():
                    add_scaled(out, F([letter] + rest), -fsign * sign * c)
        return out

    return dF


def d_chevalley_classical(C, n: int, g: LieData):
    """Textbook Chevalley coboundary of an alternating n-cochain of a degree 0
    Lie algebra with trivial coefficients, so no module action term:

        dC(X_0, ..., X_n) = sum_(i<j) (-1)^(i+j) C([X_i, X_j], ... ^i ... ^j ...)

    C is a callable on letter lists; indices in the signs are 0-based.
    """

    def dC(letters) -> Vec:
        out: Vec = {}
        n1 = len(letters)
        assert n1 == n + 1
        for i in range(n1):
            for j in range(i + 1, n1):
                rest = [letters[k] for k in range(n1) if k != i and k != j]
                sign = -1 if (i + j) % 2 else 1
                for letter, c in g.bracket_letters(letters[i], letters[j]).items():
                    add_scaled(out, C([letter] + rest), sign * c)
        return out

    return dC


def classical_matrix(operator: str, n: int) -> SparseMat:
    """Matrix of a classical coboundary from level n to level n + 1: ``dH``
    (Hochschild) or ``dHa`` (Harrison, on shuffle-quotient representatives)
    of the dual numbers R[x]/(x^2) in themselves, or ``dC`` (Chevalley) of
    the Lie algebra [l1, l2] = l1 in R, on alternating cochains.  Column
    ci * nv + i is the cochain sending domain word ci to value letter i
    (nv value letters), row ri * nv + o letter o on codomain word ri."""
    if operator == "dC":
        ls = [Letter(("l", 1), 0), Letter(("l", 2), 0)]
        lie = LieData(ls, {(("l", 1), ("l", 2)): {("l", 1): 1},
                           (("l", 2), ("l", 1)): {("l", 1): -1}})
        dom, cod = (list(combinations(ls, m)) for m in (n, n + 1))
        values = [Letter(("R",), 0)]

        def coboundary(w, v):
            def C(word):
                key, sign = sym_key(word)
                return {v: sign} if key == w else {}
            return d_chevalley_classical(C, n, lie)
    else:
        one, x = Letter(("a", 0), 0), Letter(("a", 1), 0)
        values = [one, x]
        alg = FiniteAlgebra(values, {(one.ident, one.ident): {one.ident: 1},
                                     (one.ident, x.ident): {x.ident: 1},
                                     (x.ident, one.ident): {x.ident: 1}},
                            commutative=True)
        letters = [shifted(a) for a in values]
        if operator == "dH":
            dom, cod = (list(product(letters, repeat=m)) for m in (n, n + 1))

            def coboundary(w, v):
                return d_hochschild(lambda word: {v: 1} if word == w else {},
                                    n + 1, alg)
        else:
            quo = ShuffleQuotient()
            dom, cod = (quo.rep_words(letters, m) for m in (n, n + 1))

            def coboundary(w, v):
                return d_harrison({w: {v: 1}}, n + 1, alg, quo)
    rows = {key: i for i, key in enumerate(product(cod, values))}
    entries = {}
    for ci, (w, v) in enumerate(product(dom, values)):
        dw = coboundary(w, v)
        for wr in cod:
            for vo, c in dw(wr).items():
                entries[rows[wr, vo], ci] = c
    return SparseMat(len(rows), len(dom) * len(values), entries)
