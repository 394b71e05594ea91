"""Independent oracles and fixtures the tests check the engine against.

The engine does not call any of these:

* ``Polyvec`` and its helpers: polyvector fields on R^d as explicit sparse
  sums of basis monomials, with the wedge, the Schouten bracket, the
  shifted product and the constants projection built on the engine's
  monomial rules (``polyvec.wedge_monos``/``schouten_monos``);
* ``kernel_basis`` and ``mul_vec``: the right null space of a ``SparseMat``
  and its product with a sparse column vector, for checking exact solves
  and matrix identities;
* ``zero_gerstenhaber``: the abelian, zero-product algebra on which every
  operator vanishes;
* ``associativity``, ``jacobi`` and ``derivation``: the former bodies of the
  ``tensorco`` residuals, which build each term through ``extend`` and a
  one-key dict, and ``exterior_bracket``: the former bracket recursion of
  ``genv.exterior_of_lie``, written the same way.
"""

from __future__ import annotations

from fractions import Fraction

from gerstenhaber.exactlin import SparseMat, echelonize
from gerstenhaber.genv import GerstBasis
from gerstenhaber.graded import Letter
from gerstenhaber.polyvec import Mono, check_mono, schouten_monos, wedge_monos
from gerstenhaber.tensorco import ONE, add_scaled, add_term, extend, int_view


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


def unit(d: int, c=1) -> Polyvec:
    return Polyvec(d, 0, {((0,) * d, ()): Fraction(c)})


def mono_vf(d: int, coord: int, direction: int) -> Polyvec:
    """The linear vector field x_coord d_direction (1-based indices)."""
    exps = [0] * d
    exps[coord - 1] = 1
    return Polyvec(d, 1, {(tuple(exps), (direction,)): Fraction(1)})


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


def letter_polyvec(d: int, letter: Letter) -> Polyvec:
    """The polyvector of a ``polyvec.hom_letter`` letter."""
    k, dirs, exps = letter.ident
    return Polyvec(d, k, {(exps, dirs): Fraction(1)})


def kernel_basis(m: SparseMat) -> list[dict]:
    """Basis of the right null space, one sparse column vector per free column."""
    rows, pivots = echelonize(m.rows(), m.ncols)
    pivset = set(pivots)
    basis = []
    for free in range(m.ncols):
        if free in pivset:
            continue
        vec = {free: 1}
        for r, col in enumerate(pivots):
            v = rows[r].get(free)
            if v:
                vec[col] = -v
        basis.append(vec)
    return basis


def mul_vec(m: SparseMat, x: dict) -> dict:
    """m.x for a sparse column vector x, {row: value} without zeros."""
    out: dict = {}
    for (r, c), v in m.entries.items():
        xc = x.get(c)
        if xc:
            s = out.get(r, 0) + v * xc
            if s:
                out[r] = s
            else:
                out.pop(r, None)
    return out


def zero_gerstenhaber(dim: int = 2) -> GerstBasis:
    """Abelian, zero-product sandbox: every operator built on it vanishes,
    the degenerate source for tests that every term of h_bracket, h_mu and
    d_ch drops out."""
    letters = [Letter(("z", i), 0) for i in range(dim)]
    return GerstBasis(letters, int_view({}), int_view({}))


def associativity(op, a, b, c) -> dict:
    """op(op(a, b), c) - op(a, op(b, c))."""
    out = extend(op, op(a, b), {c: ONE})
    return add_scaled(out, extend(op, {a: ONE}, op(b, c)), -1)


def jacobi(op, deg, a, b, c) -> dict:
    """The sum of (-1)^(xz) op(op(x, y), z) over the cyclic rotations
    (x, y, z) of (a, b, c)."""
    out: dict = {}
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        add_scaled(out, extend(op, op(x, y), {z: ONE}),
                   -1 if deg(x) * deg(z) % 2 else 1)
    return out


def derivation(D, d_deg, op, deg, a, b) -> dict:
    """D(op(a, b)) - op(D a, b) - (-1)^(d_deg a) op(a, D b)."""
    out = extend(D, op(a, b))
    add_scaled(out, extend(op, D(a), {b: ONE}), -1)
    return add_scaled(out, extend(op, {a: ONE}, D(b)),
                      1 if d_deg * deg(a) % 2 else -1)


def exterior_bracket(wedge, lie_table: dict):
    """The bracket op of ``genv.exterior_of_lie`` on the sandbox idents
    ("sb", r, s) over the basis's ``wedge`` op, as a memoised recursion."""
    memo: dict = {}

    def ident(s: tuple) -> tuple:
        return ("sb", len(s), s)

    def bracket(i, j) -> dict:
        if (i, j) in memo:
            return memo[i, j]
        sa, sb = i[2], j[2]
        out: dict = {}
        if not sa or not sb:
            pass
        elif len(sa) == 1 and len(sb) == 1:
            for gen, c in lie_table.get((sa[0], sb[0]), {}).items():
                add_term(out, ident((gen,)), c)
        elif len(sa) == 1:
            b0, rest = ident(sb[:1]), ident(sb[1:])
            add_scaled(out, extend(wedge, bracket(i, b0), {rest: ONE}))
            add_scaled(out, extend(wedge, {b0: ONE}, bracket(i, rest)))
        else:
            a0, beta = ident(sa[:1]), ident(sa[1:])
            add_scaled(out, extend(wedge, {a0: ONE}, bracket(beta, j)))
            sign = -1 if ((len(sa) - 1) * (len(sb) - 1)) % 2 else 1
            add_scaled(out, extend(wedge, bracket(a0, j), {beta: ONE}), sign)
        memo[i, j] = out
        return out

    return bracket
