"""Cofree cocommutative coalgebra on a shifted Lie algebra and its coboundaries.

A symmetric word is stored as a tuple of letters sorted by ident; reordering
an input multiplies the coefficient by the Koszul sign of the sort (with
shifted degrees), and a repeated letter of odd shifted degree kills the word.
Letters of a ``LieData`` carry unshifted degrees, as in the graded Lie axioms.
"""

from __future__ import annotations

from fractions import Fraction

from .graded import Letter, bipartitions, koszul_sign, unshuffle_sign
from .tensorco import (add_scaled, add_term, derivation, extend, jacobi,
                       square_zero, symmetry)

Vec = dict   # dict[Letter, Fraction]
SymElem = dict  # dict[tuple[Letter, ...], Fraction]


def sdeg(letter: Letter) -> int:
    return letter.degree - 1


def sym_key(letters) -> tuple:
    """Canonical (sorted word, Koszul sign) for a list of letters, or (None, 0).

    Sorting is by ident; the sign is computed on shifted degrees.  A repeated
    letter of odd shifted degree makes the square-zero word (None, 0).
    """
    idx = sorted(range(len(letters)), key=lambda i: (letters[i].ident, i))
    word = tuple(letters[i] for i in idx)
    for a, b in zip(word, word[1:]):
        if a == b and sdeg(a) % 2:
            return None, 0
    sign = koszul_sign([sdeg(a) for a in letters], idx)
    return word, sign


def add_sym_term(acc: SymElem, letters, coeff: Fraction):
    word, sign = sym_key(letters)
    if word is not None:
        add_term(acc, word, sign * coeff)


class LieData:
    """Graded Lie algebra (optionally differential) by structure constants.

    ``bracket[(i, j)]`` maps letter ident pairs to dicts ident -> Fraction and
    uses the unshifted grading: degree 0 bracket, antisymmetry
    [X,Y] = -(-1)^(xy) [Y,X], graded Jacobi.  ``diff`` is an optional degree 1
    differential table satisfying the Leibniz rule and squaring to zero.  All
    axioms are checked on basis elements at construction.
    """

    def __init__(self, letters, bracket, diff=None, check=True):
        self.letters = list(letters)
        self.by_ident = {a.ident: a for a in self.letters}
        self.bracket_table = {
            key: {i: Fraction(c) for i, c in val.items() if c}
            for key, val in bracket.items()
        }
        self.diff_table = {
            key: {i: Fraction(c) for i, c in val.items() if c}
            for key, val in (diff or {}).items()
        }
        if check:
            self._validate()

    def bracket_letters(self, a: Letter, b: Letter) -> Vec:
        tab = self.bracket_table.get((a.ident, b.ident))
        if not tab:
            return {}
        return {self.by_ident[i]: c for i, c in tab.items()}

    def bracket(self, x: Vec, y: Vec) -> Vec:
        return extend(self.bracket_letters, x, y)

    def d_letter(self, a: Letter) -> Vec:
        tab = self.diff_table.get(a.ident)
        if not tab:
            return {}
        return {self.by_ident[i]: c for i, c in tab.items()}

    def d(self, x: Vec) -> Vec:
        return extend(self.d_letter, x)

    def _validate(self):
        deg = lambda x: x.degree
        for a in self.letters:
            for b in self.letters:
                for c, coeff in self.bracket_letters(a, b).items():
                    if coeff and c.degree != a.degree + b.degree:
                        raise ValueError("bracket not degree 0")
                if symmetry(self.bracket_letters, deg, a, b, -1):
                    raise ValueError(f"bracket not antisymmetric on {a.ident},{b.ident}")
        for a in self.letters:
            for b in self.letters:
                for c in self.letters:
                    if jacobi(self.bracket_letters, deg, a, b, c):
                        raise ValueError(f"Jacobi fails on {a.ident},{b.ident},{c.ident}")
        if self.diff_table:
            for a in self.letters:
                for c, coeff in self.d_letter(a).items():
                    if coeff and c.degree != a.degree + 1:
                        raise ValueError("differential not degree 1")
                if square_zero(self.d_letter, a):
                    raise ValueError("differential does not square to zero")
            for a in self.letters:
                for b in self.letters:
                    if derivation(self.d_letter, 1, self.bracket_letters, deg, a, b):
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
    """Degree 1 coderivation of the symmetric coproduct with parts l1 = d, l2.

    On a word X_1...X_n the value is

        sum_j (-1)^(x_1+...+x_(j-1)) X_1 ... dX_j ... X_n
        + sum_(i<j) eps(x / x_i x_j rest) l2(X_i, X_j) . X_1 ... ^i ... ^j ... X_n

    with shifted degrees everywhere.
    """

    def ell(elem: SymElem) -> SymElem:
        out: SymElem = {}
        for word, coeff in elem.items():
            n = len(word)
            degs = [sdeg(a) for a in word]
            if data.diff_table:
                for j in range(n):
                    sign = -1 if sum(degs[:j]) % 2 else 1
                    for letter, c in data.d_letter(word[j]).items():
                        add_sym_term(
                            out,
                            list(word[:j]) + [letter] + list(word[j + 1 :]),
                            coeff * sign * c,
                        )
            for i in range(n):
                for j in range(i + 1, n):
                    rest = [word[k] for k in range(n) if k != i and k != j]
                    sign = unshuffle_sign(degs, [i, j])
                    for letter, c in ell2(data, word[i], word[j]).items():
                        add_sym_term(out, [letter] + rest, coeff * sign * c)
        return out

    return ell


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
                add_scaled(out, h.bracket({u: cu}, fval), Fraction(sign * s))
        fsign = -1 if deg_f % 2 else 1
        for i in range(n1):
            for j in range(i + 1, n1):
                rest = [letters[k] for k in range(n1) if k != i and k != j]
                sign = unshuffle_sign(degs, [i, j])
                for letter, c in ell2(g, letters[i], letters[j]).items():
                    add_scaled(out, F([letter] + rest), -Fraction(fsign * sign) * c)
        return out

    return dF


def d_chevalley_classical(C, n: int, g: LieData, act=None):
    """Textbook Chevalley coboundary of an alternating n-cochain.

    For a degree 0 Lie algebra and a module action ``act(X, vec) -> vec``
    (``None`` for trivial coefficients):

        dC(X_0, ..., X_n) = sum_i (-1)^i X_i . C(... ^i ...)
            + sum_(i<j) (-1)^(i+j) C([X_i, X_j], ... ^i ... ^j ...)

    C is a callable on letter lists; indices in the signs are 0-based.
    """

    def dC(letters) -> Vec:
        out: Vec = {}
        n1 = len(letters)
        assert n1 == n + 1
        if act is not None:
            for i in range(n1):
                rest = [letters[k] for k in range(n1) if k != i]
                sign = -1 if i % 2 else 1
                add_scaled(out, act(letters[i], C(rest)), Fraction(sign))
        for i in range(n1):
            for j in range(i + 1, n1):
                rest = [letters[k] for k in range(n1) if k != i and k != j]
                sign = -1 if (i + j) % 2 else 1
                for letter, c in g.bracket_letters(letters[i], letters[j]).items():
                    add_scaled(out, C([letter] + rest), Fraction(sign) * c)
        return out

    return dC
