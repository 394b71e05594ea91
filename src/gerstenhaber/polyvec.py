"""Polyvector fields with polynomial coefficients over Q, exact throughout.

A monomial is a pair (exponent vector, strictly increasing direction tuple);
a polyvector of tensor degree k is a sparse dict of such monomials.  The
homogeneous subalgebra keeps coefficient degree equal to tensor degree, which
closes under wedge and the Schouten bracket and is finite dimensional.

Directions behave like odd generators: sorting a direction product picks up
the ordinary signature of the sort.  The Schouten bracket is the standard
contraction formula; its normalization is fixed by two requirements checked
in the test suite: on vector fields it is the Lie bracket, and the graded
Leibniz rule holds exactly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from .graded import Letter, koszul_sort, pack_grade
from .tensorco import add_term, extend

Mono = tuple  # (exps: tuple[int, ...], dirs: tuple[int, ...]) with dirs 1-based


class Polyvec:
    """Homogeneous-in-tensor-degree polyvector field on R^d."""

    def __init__(self, d: int, k: int, terms=None):
        self.d = d
        self.k = k
        self.terms: dict[Mono, Fraction] = {}
        if terms:
            for mono, c in terms.items():
                self.add(mono, c)

    def add(self, mono: Mono, coeff):
        coeff = Fraction(coeff)
        if not coeff:
            return
        check_mono(mono, self.d, self.k)
        s = self.terms.get(mono, 0) + coeff
        if s:
            self.terms[mono] = s
        else:
            self.terms.pop(mono, None)

    def __eq__(self, other):
        return (
            isinstance(other, Polyvec)
            and self.d == other.d
            and self.k == other.k
            and self.terms == other.terms
        )

    def __add__(self, other):
        assert self.d == other.d and self.k == other.k
        out = Polyvec(self.d, self.k, self.terms)
        for mono, c in other.terms.items():
            out.add(mono, c)
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "Polyvec":
        c = Fraction(c)
        return Polyvec(self.d, self.k, {m: v * c for m, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        """Coefficient degree equals tensor degree on every monomial."""
        return all(sum(exps) == self.k for exps, _ in self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (exps, dirs), c in sorted(self.terms.items()):
            xs = "*".join(
                "x%d" % (i + 1) if e == 1 else "x%d^%d" % (i + 1, e)
                for i, e in enumerate(exps)
                for _ in [0]
                if e
            )
            ds = "d" + "".join(str(i) for i in dirs) if dirs else ""
            body = " ".join(b for b in (xs, ds) if b)
            bits.append(f"({c}){body if body else '1'}")
        return " + ".join(bits)


def check_mono(mono: Mono, d: int, k: int):
    """Assert that ``mono`` is a monomial on R^d of tensor degree k: d
    exponents and k strictly increasing directions."""
    exps, dirs = mono
    assert len(exps) == d and len(dirs) == k
    assert all(dirs[i] < dirs[i + 1] for i in range(len(dirs) - 1))


def unit(d: int, c=1) -> Polyvec:
    return Polyvec(d, 0, {((0,) * d, ()): Fraction(c)})


def mono_vf(d: int, coord: int, direction: int) -> Polyvec:
    """The linear vector field x_coord d_direction (1-based indices)."""
    exps = [0] * d
    exps[coord - 1] = 1
    return Polyvec(d, 1, {(tuple(exps), (direction,)): Fraction(1)})


def basis(d: int, k: int) -> list[Mono]:
    """All homogeneous basis monomials at tensor degree k.

    Count is C(d, k) * C(d+k-1, k): direction subsets times degree-k exponent
    vectors.
    """
    if not 0 <= k <= d:
        raise ValueError(f"tensor degree {k} out of range for d={d}")
    out = []
    for dirs in combinations(range(1, d + 1), k):
        for bars in combinations_with_replacement(range(d), k):
            exps = [0] * d
            for i in bars:
                exps[i] += 1
            out.append((tuple(exps), dirs))
    return out


def _merge_dirs(da: tuple, db: tuple):
    """Sorted concatenation of direction tuples with its signature, or
    (None, 0) when they share a direction: directions are odd symbols."""
    return koszul_sort(da + db, [1] * (len(da) + len(db)))


def wedge_monos(ma: Mono, mb: Mono) -> dict:
    """Wedge of two basis monomials: {monomial: +-1}, empty when they share
    a direction."""
    (ea, da), (eb, db) = ma, mb
    dirs, sign = _merge_dirs(da, db)
    if dirs is None:
        return {}
    return {(tuple(x + y for x, y in zip(ea, eb)), dirs): sign}


def _contract(out: dict, ma: Mono, mb: Mono, sign: int):
    """out += sign * sum_i (dma/dxi_i) wedge (dmb/dx_i), the half of the
    Schouten bracket.  The right derivative in the odd direction i moves it
    past the later directions of ma, and the coordinate derivative brings
    down the exponent of x_i in mb."""
    (ea, da), (eb, db) = ma, mb
    for pos, i in enumerate(da):
        e = eb[i - 1]
        if not e:
            continue
        dirs, s = _merge_dirs(da[:pos] + da[pos + 1:], db)
        if dirs is None:
            continue
        if (len(da) - 1 - pos) % 2:
            s = -s
        exps = [x + y for x, y in zip(ea, eb)]
        exps[i - 1] -= 1
        add_term(out, (tuple(exps), dirs), sign * s * e)


def schouten_monos(ma: Mono, mb: Mono) -> dict:
    """Schouten bracket of two basis monomials, {monomial: int}:

        [a, b] = a.b - (-1)^((k_a - 1)(k_b - 1)) b.a  with
        a.b = sum_i (da/dxi_i) wedge (db/dx_i).
    """
    out: dict = {}
    _contract(out, ma, mb, 1)
    _contract(out, mb, ma, 1 if (len(ma[1]) - 1) * (len(mb[1]) - 1) % 2 else -1)
    return out


def wedge(a: Polyvec, b: Polyvec) -> Polyvec:
    """Bilinear extension of ``wedge_monos``, tensor degree k_a + k_b."""
    if a.d != b.d:
        raise ValueError("dimension mismatch")
    return Polyvec(a.d, a.k + b.k, extend(wedge_monos, a.terms, b.terms))


def schouten(a: Polyvec, b: Polyvec) -> Polyvec:
    """Bilinear extension of ``schouten_monos``, tensor degree k_a + k_b - 1."""
    if a.d != b.d:
        raise ValueError("dimension mismatch")
    return Polyvec(a.d, a.k + b.k - 1, extend(schouten_monos, a.terms, b.terms))


def mu2(a: Polyvec, b: Polyvec) -> Polyvec:
    """Shifted product on G[1]: (-1)^(k_a - 1) a wedge b."""
    sign = -1 if (a.k - 1) % 2 else 1
    return wedge(a, b).scale(sign)


def f1(a: Polyvec) -> Fraction:
    """Projection onto the constants: the value for k = 0, else 0.

    This is a morphism of Gerstenhaber algebras onto the base field with the
    trivial bracket.
    """
    if a.k != 0:
        return Fraction(0)
    return a.terms.get(((0,) * a.d, ()), Fraction(0))


def hom_letter(d: int, mono: Mono) -> Letter:
    """Letter for a homogeneous basis monomial, graded in the shifted space.

    Its grade carries the torus weight alpha - 1_I of x^alpha d_I: the
    diagonal torus of GL(d) scales x_i by t_i and d_i by 1/t_i.  Wedge and
    Schouten bracket add weights, so each weight space is a subcomplex.
    """
    exps, dirs = mono
    weight = [e - (i + 1 in dirs) for i, e in enumerate(exps)]
    return Letter(hom_ident(mono), len(dirs) - 1, pack_grade(len(dirs) - 1, weight))


def hom_ident(mono: Mono) -> tuple:
    """The ident of ``hom_letter``: (tensor degree, directions, exponents)."""
    exps, dirs = mono
    return (len(dirs), dirs, exps)


def letter_polyvec(d: int, letter: Letter) -> Polyvec:
    k, dirs, exps = letter.ident
    return Polyvec(d, k, {(exps, dirs): Fraction(1)})
