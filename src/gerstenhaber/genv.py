"""The differential graded Lie algebra on the shuffle quotient of a Gerstenhaber algebra.

A ``GerstBasis`` packages a finite graded basis with exact structure constants
for the (unshifted) wedge and the bracket; letters carry their shifted degree,
so for a basis element of tensor degree k the letter degree is k - 1.  The
bracket is extended to tensor words by bracketing one letter of the first word
with one letter of the second inside a signed shuffle; that extension descends
to the shuffle quotient.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import combinations

from .graded import Letter, word_deg
from .polyvec import basis as pv_basis
from .polyvec import _merge_dirs, hom_letter, letter_polyvec, schouten, wedge
from .shuffleco import ShuffleQuotient, Word, _shuffle
from .tensorco import (ONE, add_scaled, add_term, associativity, derivation,
                       extend, jacobi, symmetry)

Vec = dict   # dict[Letter, Fraction]
Elem = dict  # dict[Word, Fraction]


class GerstBasis:
    """Finite graded basis with exact wedge and bracket structure constants.

    ``wedge_table[(i, j)]`` and ``bracket_table[(i, j)]`` map ident pairs to
    dicts ident -> Fraction.  On letters of shifted degrees a, b the wedge has
    shifted degree a + b + 1 and the bracket a + b.  ``validate()`` checks the
    axioms on all basis triples with the ``tensorco`` residuals: the wedge
    graded commutative and associative in the unshifted grading, the bracket
    graded antisymmetric with Jacobi in the shifted one, and each [a, .] a
    derivation of the wedge (Leibniz).
    """

    def __init__(self, letters, wedge_table, bracket_table, name=""):
        self.letters = sorted(letters)
        self.by_ident = {a.ident: a for a in self.letters}
        self.wedge_table = {
            k: {i: Fraction(c) for i, c in v.items() if c}
            for k, v in wedge_table.items()
            if v
        }
        self.bracket_table = {
            k: {i: Fraction(c) for i, c in v.items() if c}
            for k, v in bracket_table.items()
            if v
        }
        self.name = name

    def wedge(self, a: Letter, b: Letter) -> Vec:
        tab = self.wedge_table.get((a.ident, b.ident))
        if not tab:
            return {}
        return {self.by_ident[i]: c for i, c in tab.items()}

    def bracket(self, a: Letter, b: Letter) -> Vec:
        tab = self.bracket_table.get((a.ident, b.ident))
        if not tab:
            return {}
        return {self.by_ident[i]: c for i, c in tab.items()}

    def mu2(self, a: Letter, b: Letter) -> Vec:
        """Shifted product: (-1)^(deg a) wedge, of shifted degree +1."""
        sign = -1 if a.degree % 2 else 1
        return {c: sign * v for c, v in self.wedge(a, b).items()}

    def unshifted(self, letter: Letter) -> int:
        return letter.degree + 1

    def validate(self):
        L = self.letters
        shifted_deg = lambda x: x.degree
        for a in L:
            ka = self.unshifted(a)
            for b in L:
                kb = self.unshifted(b)
                for c, coeff in self.wedge(a, b).items():
                    if coeff and self.unshifted(c) != ka + kb:
                        raise ValueError("wedge not degree 0")
                if symmetry(self.wedge, self.unshifted, a, b):
                    raise ValueError("wedge not graded commutative")
                for c, coeff in self.bracket(a, b).items():
                    if coeff and self.unshifted(c) != ka + kb - 1:
                        raise ValueError("bracket not degree -1")
                if symmetry(self.bracket, shifted_deg, a, b, -1):
                    raise ValueError("bracket not graded antisymmetric")
        for a in L:
            ad_a = partial(self.bracket, a)
            for b in L:
                for c in L:
                    if associativity(self.wedge, a, b, c):
                        raise ValueError("wedge not associative")
                    if derivation(ad_a, a.degree, self.wedge, self.unshifted, b, c):
                        raise ValueError("Leibniz axiom fails")
                    if jacobi(self.bracket, shifted_deg, a, b, c):
                        raise ValueError("graded Jacobi fails")
        return self


def polyvec_basis(d: int, kmax: int | None = None) -> GerstBasis:
    """Tabulated homogeneous polyvector fields on R^d up to tensor degree kmax.

    With kmax = d (the default) the space is closed under wedge and bracket,
    so the tables are exact structure constants of the full finite-dimensional
    algebra.
    """
    if kmax is None:
        kmax = d
    letters = []
    monos = {}
    for k in range(kmax + 1):
        for mono in pv_basis(d, k):
            letter = hom_letter(d, mono)
            letters.append(letter)
            monos[letter.ident] = mono
    wedge_table = {}
    bracket_table = {}
    for a in letters:
        pa = letter_polyvec(d, a)
        for b in letters:
            pb = letter_polyvec(d, b)
            w = wedge(pa, pb)
            if w.k <= kmax and not w.is_zero():
                wedge_table[(a.ident, b.ident)] = {
                    hom_letter(d, m).ident: c for m, c in w.terms.items()
                }
            s = schouten(pa, pb)
            if s.k <= kmax and not s.is_zero():
                bracket_table[(a.ident, b.ident)] = {
                    hom_letter(d, m).ident: c for m, c in s.terms.items()
                }
    return GerstBasis(letters, wedge_table, bracket_table, name=f"Tpolyhom(d={d})")


def exterior_of_lie(dim: int, lie_table: dict, name="sandbox") -> GerstBasis:
    """Exterior algebra of a Lie algebra with the induced odd bracket.

    Generators e_1..e_dim have tensor degree 1; the wedge is the exterior
    product and the bracket extends ``lie_table`` ([e_i, e_j] as dicts
    generator index -> coefficient) as a biderivation.  The result is a
    Gerstenhaber algebra whose axioms are validated on all basis triples.
    """
    subsets = []
    for r in range(dim + 1):
        subsets.extend(combinations(range(1, dim + 1), r))
    letters = {s: Letter(("sb", len(s), s), len(s) - 1) for s in subsets}

    def wedge_ss(sa, sb) -> dict:
        merged, sign = _merge_dirs(sa, sb)
        return {} if merged is None else {merged: sign}

    bracket_cache: dict = {}

    def bracket_ss(sa, sb) -> dict:
        key = (sa, sb)
        if key in bracket_cache:
            return bracket_cache[key]
        out: dict = {}
        if not sa or not sb:
            pass
        elif len(sa) == 1 and len(sb) == 1:
            for gen, c in lie_table.get((sa[0], sb[0]), {}).items():
                add_term(out, (gen,), Fraction(c))
        elif len(sa) == 1:
            # [e, b ^ rest] = [e, b] ^ rest + b ^ [e, rest]; e has degree 1
            b0, rest = (sb[0],), sb[1:]
            add_scaled(out, extend(wedge_ss, bracket_ss(sa, b0), {rest: ONE}))
            add_scaled(out, extend(wedge_ss, {b0: ONE}, bracket_ss(sa, rest)))
        else:
            # [a ^ beta, c] = a ^ [beta, c] + (-1)^(|beta|(|c|-1)) [a, c] ^ beta
            a0, beta = (sa[0],), sa[1:]
            add_scaled(out, extend(wedge_ss, {a0: ONE}, bracket_ss(beta, sb)))
            sign = -1 if (len(beta) * (len(sb) - 1)) % 2 else 1
            add_scaled(out, extend(wedge_ss, bracket_ss(a0, sb), {beta: ONE}),
                       Fraction(sign))
        bracket_cache[key] = out
        return out

    wedge_table = {}
    bracket_table = {}
    for sa, la in letters.items():
        for sb, lb in letters.items():
            for merged, sign in wedge_ss(sa, sb).items():
                wedge_table[(la.ident, lb.ident)] = {letters[merged].ident: sign}
            br = bracket_ss(sa, sb)
            if br:
                bracket_table[(la.ident, lb.ident)] = {
                    letters[s].ident: c for s, c in br.items()
                }
    return GerstBasis(letters.values(), wedge_table, bracket_table, name=name).validate()


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


def zero_gerstenhaber(dim: int = 2) -> GerstBasis:
    """Abelian, zero-product sandbox: every operator built on it vanishes.

    Nothing in the engine uses it; it stays as the degenerate source for
    tests that every term of h_bracket, h_mu and d_ch drops out.
    """
    letters = [Letter(("z", i), 0) for i in range(dim)]
    return GerstBasis(letters, {}, {})


def h_bracket_raw(a: Word, b: Word, basis: GerstBasis) -> Elem:
    """Bracket extension on plain tensor words, before quotient reduction.

    Sum over shuffles of a and b and over positions where a letter a_i of a
    lands immediately before a letter b_j of b; those two letters are
    bracketed in place.  These shuffles are

        (a[:i] ш b[:j]) . [a_i, b_j] . (a[i+1:] ш b[j+1:])

    and the coefficient is the Koszul shuffle sign alone: the signs of the
    two outer shuffles times (-1)^(O(b[:j]) O(a[i:]) + odd(b_j) O(a[i+1:])),
    with O the number of odd letters.
    """
    p = len(a)
    letters = a + b
    odd = [x.degree % 2 for x in letters]

    def shuffles(u, v):
        """Signed shuffles of two runs of positions in a + b, as letter words
        (positions as codes: every coefficient is +-1)."""
        return [(tuple(letters[c] for c in w), s)
                for w, s in _shuffle(tuple(u), tuple(v), odd).items()]

    out: Elem = {}
    for i, x in enumerate(a):
        after = sum(odd[i + 1:p])
        for j, y in enumerate(b):
            br = basis.bracket(x, y)
            if not br:
                continue
            flip = (sum(odd[p:p + j]) * (odd[i] + after) + odd[p + j] * after) % 2
            tails = shuffles(range(i + 1, p), range(p + j + 1, len(letters)))
            for head, sh in shuffles(range(i), range(p, p + j)):
                for tail, st in tails:
                    sign = -sh * st if flip else sh * st
                    for letter, c in br.items():
                        add_term(out, head + (letter,) + tail,
                                 c if sign > 0 else -c)
    return out


def h_bracket(a: Word, b: Word, basis: GerstBasis, quotient: ShuffleQuotient) -> Elem:
    """Bracket of two quotient classes, reduced to representative words."""
    return quotient.reduce(h_bracket_raw(a, b, basis))


def h_bracket_elem(x: Elem, y: Elem, basis: GerstBasis, quotient: ShuffleQuotient) -> Elem:
    return extend(lambda a, b: h_bracket(a, b, basis, quotient), x, y)


def h_mu_raw(word: Word, basis: GerstBasis) -> Elem:
    """C-infinity differential on a word: adjacent shifted products, unreduced.

    mu(a_[1,n]) = sum_k (-1)^(a_1 + ... + a_(k-1))
                  a_[1,k-1] (x) mu2(a_k, a_(k+1)) (x) a_[k+2,n].
    """
    out: Elem = {}
    n = len(word)
    for k in range(n - 1):
        sign = -1 if word_deg(word[:k]) % 2 else 1
        for letter, c in basis.mu2(word[k], word[k + 1]).items():
            add_term(out, word[:k] + (letter,) + word[k + 2 :], Fraction(sign) * c)
    return out


def h_mu(word: Word, basis: GerstBasis, quotient: ShuffleQuotient) -> Elem:
    return quotient.reduce(h_mu_raw(word, basis))


def h_mu_elem(x: Elem, basis: GerstBasis, quotient: ShuffleQuotient) -> Elem:
    return extend(lambda w: h_mu(w, basis, quotient), x)
