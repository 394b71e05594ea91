"""Basis monomials of polyvector fields on R^d and their exact products.

A monomial is a pair (exponent vector, strictly increasing direction tuple);
a polyvector of tensor degree k is a sparse dict of such monomials (the
tests' ``Polyvec`` oracle, in ``tests/oracles.py``, is one).  The
homogeneous subalgebra keeps coefficient degree equal to tensor degree, which
closes under wedge and the Schouten bracket and is finite dimensional.

Directions behave like odd generators: sorting a direction product picks up
the ordinary signature of the sort.  The Schouten bracket is the standard
contraction formula; its normalization is fixed by two requirements checked
in the test suite: on vector fields it is the Lie bracket, and the graded
Leibniz rule holds exactly.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

from .graded import Letter, koszul_sort, pack_grade
from .tensorco import add_term

Mono = tuple  # (exps: tuple[int, ...], dirs: tuple[int, ...]) with dirs 1-based


def check_mono(mono: Mono, d: int, k: int):
    """Assert that ``mono`` is a monomial on R^d of tensor degree k: d
    exponents and k strictly increasing directions."""
    exps, dirs = mono
    assert len(exps) == d and len(dirs) == k
    assert all(dirs[i] < dirs[i + 1] for i in range(len(dirs) - 1))


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
