"""The coordinate window of the headline decision (``chcoh.window``).

Restriction R_S keeps a cochain's values on the monomials that touch only
coordinates in S; relabelling moves a cochain along an injective map of
coordinates.  The tests check the two facts the window rests on: the value
of d(g) on a monomial reads g only inside the coordinates it touches
(R_S d(g) = R_S d(R_S g), while d(R_S g) = R_S d(g) is false), and f3 is
natural under relabelling.  Then they check the windowed ``cocycle``
against the library's decision on the whole of R^D.
"""

import json
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerstenhaber.chcoh import (Cochain, Truncation, TruncationError, d_ch,
                                f3_111, is_coboundary, is_cocycle,
                                level_shapes, linear_fields,
                                monomials_for_shape, real_polyvec_context,
                                window)
from gerstenhaber.cli import main
from gerstenhaber.ginfty import mono_key

# one context per (d, kmax), so the examples share their quotient tables
CONTEXTS = {(3, 2): real_polyvec_context(3, 2), (4, 1): real_polyvec_context(4, 1)}
TRUNC = {dk: Truncation(*dk, 4, 4) for dk in CONTEXTS}
LEVEL2 = {dk: [m for shape in level_shapes(2, 4)
               for m in monomials_for_shape(ctx, shape)]
          for dk, ctx in CONTEXTS.items()}


def touched(mono) -> set:
    """The coordinates (1-based) the letters x^alpha d_I of a monomial touch:
    those of alpha and of I."""
    out = set()
    for w in mono:
        for a in w:
            _, dirs, exps = a.ident
            out.update(dirs)
            out.update(i for i, e in enumerate(exps, 1) if e)
    return out


def restrict(f: Cochain, S) -> Cochain:
    """R_S f: f's values on the monomials inside the coordinates S."""
    return Cochain({m: v for m, v in f.values.items() if touched(m) <= set(S)},
                   f.level)


def relabel(f: Cochain, sigma: dict, ctx) -> Cochain:
    """f, a cochain on single-letter packets, moved along the injective
    coordinate map ``sigma`` (old -> new, 1-based) into ``ctx``: each letter
    x^alpha d_I to x^sigma(alpha) d_sigma(I), with the sign that sorts
    sigma(I), and each monomial made canonical with its Koszul sign."""
    m = len(ctx.source.letters[0].ident[2])
    values = {}
    for mono, val in f.values.items():
        packets, sign = [], 1
        for (a,) in mono:
            k, dirs, exps = a.ident
            new = [sigma[i] for i in dirs]
            sign *= (-1) ** sum(x > y for x, y in combinations(new, 2))
            moved = [0] * m
            for i, e in enumerate(exps, 1):
                if e:
                    moved[sigma[i] - 1] = e
            packets.append((ctx.source.by_ident[k, tuple(sorted(new)), tuple(moved)],))
        key, s = mono_key(packets)
        values[key] = {b: sign * s * c for b, c in val.items()}
    return Cochain(values, f.level)


WINDOWS = [(dk, S) for dk in sorted(CONTEXTS) for n in (2, 3) if n < dk[0]
           for S in combinations(range(1, dk[0] + 1), n)]


@settings(max_examples=25, deadline=None)
@given(window_case=st.sampled_from(WINDOWS),
       picks=st.lists(st.tuples(st.booleans(), st.integers(0, 10 ** 6),
                                st.integers(1, 3)), min_size=1, max_size=6))
def test_restriction_reads_only_the_touched_coordinates(window_case, picks):
    """R_S d(g) = R_S d(R_S g) for level-2 cochains g on R^3 (k <= 2) and
    R^4 (k <= 1) and proper coordinate sets S of size 2 or 3.  Each value
    of g sits on a monomial inside S or on any monomial, so R_S g keeps
    part of g and drops part."""
    dk, S = window_case
    ctx, trunc = CONTEXTS[dk], TRUNC[dk]
    anywhere = LEVEL2[dk]
    inside = [m for m in anywhere if touched(m) <= set(S)]
    one = ctx.target.letters[0]
    values = {}
    for ins, i, c in picks:
        pool = inside if ins else anywhere
        values[pool[i % len(pool)]] = {one: c}
    g = Cochain(values, 2)
    assert restrict(d_ch(g, ctx, trunc), S).values == \
        restrict(d_ch(restrict(g, S), ctx, trunc), S).values


def test_restriction_does_not_commute_with_d():
    """[x1 d2, x2 d3] = x1 d3: g = 1 on (x1 d3).(x3 d1) lies inside S = {1, 3},
    yet d(g) is nonzero on (x1 d2).(x2 d3).(x3 d1), which touches 2.  So
    d(R_S g) != R_S d(g), while R_S d(g) = R_S d(R_S g) holds."""
    dk = (3, 2)
    ctx, trunc, S = CONTEXTS[dk], TRUNC[dk], {1, 3}
    vf = linear_fields(3, ctx)
    mono, sign = mono_key([(vf[1, 3],), (vf[3, 1],)])
    g = Cochain({mono: {ctx.target.letters[0]: sign}}, 2)
    assert restrict(g, S).values == g.values
    dg = d_ch(g, ctx, trunc)
    row, _ = mono_key([(vf[1, 2],), (vf[2, 3],), (vf[3, 1],)])
    assert dg.eval(row) and touched(row) == {1, 2, 3}
    assert restrict(dg, S).values != d_ch(restrict(g, S), ctx, trunc).values
    assert restrict(dg, S).values == restrict(d_ch(restrict(g, S), ctx, trunc), S).values


@pytest.mark.parametrize("S", [S for n in (3, 4, 5) for S in combinations(range(1, 6), n)])
def test_f3_is_natural_under_relabelling(S):
    """R_S f3 on R^5, relabelled onto 1..|S| in order and in reverse order,
    is f3 on R^|S|."""
    big = real_polyvec_context(5, 1)
    f5 = restrict(f3_111(5, big), S)
    small = real_polyvec_context(len(S), 1)
    want = f3_111(len(S), small)
    assert want.values
    for order in (S, S[::-1]):
        sigma = {s: i for i, s in enumerate(order, 1)}
        assert relabel(f5, sigma, small).values == want.values


def test_window_of_the_headline():
    """w = t + 2N + (nmax > N): 4 for f3 with nmax >= 4, else 3."""
    for nmax, w in ((2, 3), (3, 3), (4, 4), (9, 4)):
        assert window(Truncation(5, 5, 4, nmax), 3, -3) == w


def full_report(D, kmax=None, Nmax=4, nmax=4):
    """The library's decision on the whole of R^D (every tensor degree up to
    kmax), as ``cocycle --format json`` reports it."""
    kmax = D if kmax is None else kmax
    ctx = real_polyvec_context(D, kmax)
    trunc = Truncation(D, kmax, Nmax, nmax)
    f3 = f3_111(D, ctx)
    vf = linear_fields(D, ctx)
    probe, sign = mono_key([(vf[1, 2],), (vf[2, 3],), (vf[3, 1],)])
    value = sign * f3.eval(probe).get(ctx.target.letters[0], 0)
    cocycle = is_cocycle(f3, ctx, trunc)
    pre = is_coboundary(f3, ctx, trunc)
    assert pre is None
    return {"value": str(value), "cocycle": cocycle, "coboundary": False,
            "truncation": trunc.as_dict()}


@pytest.mark.parametrize("D, kmax", [(5, None), (6, None), (7, None), (8, None),
                                     (5, 1), (5, 2), (6, 1), (6, 2)])
def test_windowed_cocycle_is_the_full_decision(D, kmax, capsys):
    """``cocycle --d D`` decides on R^min(D, 4); its report is the library's
    decision on all of R^D, at full kmax up to D = 8."""
    argv = ["cocycle", "--d", str(D), "--format", "json"]
    if kmax is not None:
        argv += ["--kmax", str(kmax)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out) == full_report(D, kmax)


@pytest.mark.parametrize("D", [5, 6])
@pytest.mark.parametrize("flag, value", [("--nmax", 2), ("--nmax", 3), ("--Nmax", 3)])
def test_windowed_truncation_errors_read_as_the_full_ones(D, flag, value, capsys):
    """A truncation too small for the decision is the same exit-2 error,
    word for word, as the library's decision on all of R^D raises."""
    assert main(["cocycle", "--d", str(D), flag, str(value)]) == 2
    captured = capsys.readouterr()
    bounds = {"Nmax": 4, "nmax": 4, flag.lstrip("-"): value}
    with pytest.raises(TruncationError) as ex:
        full_report(D, **bounds)
    assert captured.out == ""
    assert captured.err == f"insufficient truncation: {ex.value}\n"
