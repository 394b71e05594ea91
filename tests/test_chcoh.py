import hashlib
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest

from gerstenhaber import chcoh
from gerstenhaber.chcoh import (ChContext, Cochain, PacketTable, TaylorFamily,
                                Truncation, TruncationError,
                                _coboundary_monomials,
                                assemble_matrix, d_ch, d_ch_row, d_ch_terms, d_ch_value,
                                f3_111, is_coboundary, is_cocycle, level_shapes,
                                monomials_for_shape, reachable_shapes,
                                real_polyvec_context, real_target,
                                reconstruct_morphism, recursion_single)
from gerstenhaber.genv import (GerstBasis, h_bracket, h_mu, polyvec_basis,
                               sandbox_gerstenhaber)
from gerstenhaber.ginfty import (Mono, big_delta, kappa, mono_deg, mono_grade,
                                 mono_key, pdeg)
from gerstenhaber.graded import Letter, word_grade
from gerstenhaber.polyvec import hom_letter
from gerstenhaber.prng import SplitMix64
from gerstenhaber.shuffleco import ShuffleQuotient
from gerstenhaber.suites import suite_chcoh
from gerstenhaber.symco import LieData, d_chevalley_classical
from gerstenhaber.tensorco import add_scaled, add_term, int_view
from oracles import letter_polyvec, mul_vec, zero_gerstenhaber


def vf_letter(d, a, b):
    exps = [0] * d
    exps[a - 1] = 1
    return hom_letter(d, (tuple(exps), (b,)))


def f3_oracle_value(d, letters):
    """Index-summation oracle on polynomial coefficients, written directly."""
    pvs = [letter_polyvec(d, a) for a in letters]
    if any(p.k != 1 for p in pvs):
        return Fraction(0)

    def jac(p):
        # entry [i][k] = coefficient of d_k p^i for linear fields
        out = [[Fraction(0)] * d for _ in range(d)]
        for (exps, dirs), c in p.terms.items():
            i = dirs[0] - 1
            for k in range(d):
                if exps[k] == 1 and sum(exps) == 1:
                    out[i][k] += c
        return out

    J = [jac(p) for p in pvs]
    total = Fraction(0)
    for i1 in range(d):
        for i2 in range(d):
            for i3 in range(d):
                total += J[0][i1][i3] * J[1][i2][i1] * J[2][i3][i2]
                total -= J[0][i1][i2] * J[2][i3][i1] * J[1][i2][i3]
    return total


def test_f3_headline_value():
    ctx = real_polyvec_context(3)
    f3 = f3_111(3, ctx)
    one = ctx.target.letters[0]
    mono, sign = mono_key([(vf_letter(3, 1, 2),), (vf_letter(3, 2, 3),), (vf_letter(3, 3, 1),)])
    assert sign * f3.eval(mono).get(one, 0) == 1


def test_f3_against_index_oracle():
    rng = SplitMix64(71)
    ctx = real_polyvec_context(3)
    f3 = f3_111(3, ctx)
    one = ctx.target.letters[0]
    vfs = [a for a in ctx.source.letters if a.degree == 0]
    for _ in range(60):
        letters = [rng.choice(vfs) for _ in range(3)]
        mono, sign = mono_key([(a,) for a in letters])
        if mono is None:
            # squares of odd packets vanish; the oracle value must agree
            assert f3_oracle_value(3, letters) == 0
            continue
        got = sign * f3.eval(mono).get(one, Fraction(0))
        # oracle evaluated in the same argument order
        assert f3_oracle_value(3, letters) == got


def f3_walk_oracle(d, ctx) -> Cochain:
    """f3 by walking every shape (1, 1, 1) monomial of grade -3 (degree -3,
    weight 0, the only ones the formula can be nonzero on) and evaluating
    the two contractions on the coordinates of its letters."""
    one = ctx.target.letters[0]

    def coords(letter):
        k, dirs, exps = letter.ident
        return (exps.index(1) + 1, dirs[0]) if k == 1 else None

    def fn(mono):
        cs = [coords(w[0]) for w in mono]
        if None in cs:
            return {}
        (a1, b1), (a2, b2), (a3, b3) = cs
        val = int(b1 == a2 and b2 == a3 and b3 == a1) \
            - int(b1 == a3 and b3 == a2 and b2 == a1)
        return {one: val}

    return Cochain({m: fn(m) for m in monomials_for_shape(ctx, (1, 1, 1), {-3})}, 3)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_f3_cycles_match_walk_oracle(d):
    """f3 built from its index cycles stores the same values as the formula
    evaluated on every grade -3 monomial of shape (1, 1, 1), at full kmax
    and at kmax 1."""
    for kmax in (d, 1):
        ctx = real_polyvec_context(d, kmax)
        f3 = f3_111(d, ctx)
        assert f3.values and f3.values == f3_walk_oracle(d, ctx).values


def test_f3_vanishes_off_vector_fields():
    ctx = real_polyvec_context(3)
    f3 = f3_111(3, ctx)
    biv = [a for a in ctx.source.letters if a.degree == 1][0]
    vf = vf_letter(3, 1, 2)
    mono, _ = mono_key([(biv,), (vf,), (vf_letter(3, 2, 3),)])
    assert f3.eval(mono) == {}
    # diagonal triple: both contractions cancel
    assert f3_oracle_value(3, [vf_letter(3, 1, 1)] * 3) == 0


def test_d_m_cancellation_on_detached_constants():
    ctx = real_polyvec_context(3)
    f3 = f3_111(3, ctx)
    const = [a for a in ctx.source.letters if a.degree == -1][0]
    quo = ctx.quotient
    w = sorted(quo.reduce_word((const, vf_letter(3, 1, 2))))[0]
    mono, _ = mono_key([w, (vf_letter(3, 2, 3),), (vf_letter(3, 3, 1),)])
    # with f3's shapes the bracket part has no live family on this monomial
    table = PacketTable(f3.shapes())
    detach, pairs = table.live(tuple(len(p) for p in mono))
    assert detach == [2] and pairs == []
    assert d_ch_value(f3.eval, mono, ctx, table) == {}


def test_coboundary_steps_do_not_sort_or_unshuffle(monkeypatch):
    """The coboundary puts each term into the sorted rest of its monomial:
    d_ch(f3) at d = 3 calls neither ``koszul_sort`` nor ``unshuffle_sign``
    (the polyvector constants, which sort directions, are not patched)."""
    import gerstenhaber.ginfty as ginfty
    import gerstenhaber.graded as graded
    from gerstenhaber.chcoh import d_ch

    ctx = real_polyvec_context(3, 1)
    f3 = f3_111(3, ctx)
    calls = []
    for mod in (graded, ginfty):
        for name in ("koszul_sort", "unshuffle_sign"):
            if hasattr(mod, name):
                fn = getattr(mod, name)
                monkeypatch.setattr(mod, name, lambda *a, _f=fn, _n=name, **k:
                                    calls.append(_n) or _f(*a, **k))
    assert d_ch(f3, ctx, Truncation(3, 1, 4, 4)).is_zero()
    assert calls == []


def test_d_ell_is_classical_chevalley_on_vector_fields():
    """On four single vector-field packets the bracket part is minus the
    alternating classical coboundary of the trace 3-cochain, computed here
    independently from the Lie algebra of linear vector fields; both vanish."""
    from oracles import schouten

    d = 3
    ctx = real_polyvec_context(d)
    f3 = f3_111(d, ctx)
    one = ctx.target.letters[0]
    vfs = [a for a in ctx.source.letters if a.degree == 0]
    bracket = {}
    for a in vfs:
        for b in vfs:
            val = schouten(letter_polyvec(d, a), letter_polyvec(d, b))
            tab = {hom_letter(d, m).ident: c for m, c in val.terms.items()}
            if tab:
                bracket[(a.ident, b.ident)] = tab
    lie = LieData([Letter(a.ident, 0) for a in vfs], bracket)

    def trace_cochain(letters):
        val = f3_oracle_value(d, letters)
        return {one: val} if val else {}

    dC = d_chevalley_classical(trace_cochain, 3, lie)
    rng = SplitMix64(72)
    for _ in range(25):
        letters = [rng.choice(vfs) for _ in range(4)]
        classical = dC([lie.by_ident[a.ident] for a in letters])
        assert not {k: v for k, v in classical.items() if v}
        mono, sign = mono_key([(a,) for a in letters])
        if mono is None:
            continue
        # single-letter packets: the product part has no live family
        table = PacketTable()
        assert table.live((1, 1, 1, 1))[0] == []
        got = d_ch_value(f3.eval, mono, ctx, table)
        assert not {k: v for k, v in got.items() if v}


def cochain_digest(c):
    """sha256 of a cochain's values, monomial order included."""
    text = repr([(tuple(tuple(a.ident for a in w) for w in mono),
                  sorted((str(a.ident), str(v)) for a, v in val.items()))
                 for mono, val in c.values.items()])
    return hashlib.sha256(text.encode()).hexdigest()


def roundtrip_small():
    """A seeded level-3 coboundary f = d(g) at d=2 and its preimage."""
    rng = SplitMix64(73)
    ctx = real_polyvec_context(2)
    one = ctx.target.letters[0]
    trunc = Truncation(2, 2, 4, 4)
    vals = {}
    for shape in level_shapes(2, 4):
        for mono in monomials_for_shape(ctx, shape):
            if rng.randrange(4) == 0:
                vals[mono] = {one: Fraction(rng.randint(-2, 2))}
    g = Cochain(vals, 2)
    dg = {}
    for shape in reachable_shapes(level_shapes(2, 4)):
        for mono in monomials_for_shape(ctx, shape):
            v = d_ch_value(g.eval, mono, ctx, PacketTable())
            if v:
                dg[mono] = v
    f = Cochain(dg, 3)
    return ctx, trunc, f, is_coboundary(f, ctx, trunc)


def test_coboundary_roundtrip_small():
    ctx, trunc, f, pre = roundtrip_small()
    assert pre is not None
    for shape in reachable_shapes(level_shapes(2, 4)):
        for mono in monomials_for_shape(ctx, shape):
            assert d_ch_value(pre.eval, mono, ctx, PacketTable()) == f.eval(mono)
    zero = is_coboundary(Cochain({}, 3), ctx, trunc)
    assert zero is not None and zero.is_zero()


def test_coboundary_roundtrip_small_golden_preimage():
    """The preimage, monomial order included, is pinned: solving only the
    blocks of f's degree support gives the one that solving every block
    gives."""
    _, _, _, pre = roundtrip_small()
    assert len(pre.values) == 14
    assert cochain_digest(pre) == \
        "0e2034727db9ea9ad4ba176077ec0030abdb40bfc2c0ddafbf039615c9eed66f"


def test_coboundary_roundtrip_d3_golden():
    """The d = 3, k <= 1 round trip: f = d_ch(g) for a seeded level-2 g and
    the preimage ``is_coboundary`` finds, each pinned with its monomial
    order; d_ch of the preimage is f again."""
    rng = SplitMix64(41)
    ctx = real_polyvec_context(3, 1)
    one = ctx.target.letters[0]
    trunc = Truncation(3, 1, 4, 4)
    vals = {}
    for shape in level_shapes(2, 4):
        for mono in monomials_for_shape(ctx, shape):
            if rng.randrange(3) == 0:
                vals[mono] = {one: Fraction(rng.choice([-2, -1, 1, 2]))}
    f = d_ch(Cochain(vals, 2), ctx, trunc)
    pre = is_coboundary(f, ctx, trunc)
    assert pre is not None
    assert d_ch(pre, ctx, trunc).values == f.values
    assert (len(vals), len(f.values), len(pre.values)) == (28, 146, 29)
    assert cochain_digest(f) == \
        "3684066e09bafb08e3999928a6ead4a5cdcb1f0726bbc71f586823ebea4a72c7"
    assert cochain_digest(pre) == \
        "9c8b7abb8df7a368ef45ba6c04a4d92220397c2123de5e1548b876cef29dd883"


@pytest.mark.parametrize("d,kmax", [(2, 2), (3, 1)])
def test_degree_restricted_enumeration_keeps_order(d, kmax):
    """Restricted to the grades of one degree (or of one grade), the
    enumerator returns exactly the filtered full list, in the same order,
    from a cold context."""
    full_ctx = real_polyvec_context(d, kmax)
    for N in (1, 2, 3):
        for shape in level_shapes(N, 4):
            full = monomials_for_shape(full_ctx, shape)
            degs = sorted({mono_deg(m) for m in full})

            def grades_of(ds):
                return {mono_grade(m) for m in full if mono_deg(m) in ds}

            for deg in degs:
                ctx = real_polyvec_context(d, kmax)
                assert monomials_for_shape(ctx, shape, grades_of({deg})) == \
                    [m for m in full if mono_deg(m) == deg]
            pair = set(degs[:2])
            assert monomials_for_shape(real_polyvec_context(d, kmax), shape,
                                       grades_of(pair)) == \
                [m for m in full if mono_deg(m) in pair]
            for g in sorted({mono_grade(m) for m in full}):
                assert monomials_for_shape(full_ctx, shape, {g}) == \
                    [m for m in full if mono_grade(m) == g]


def test_monomials_for_shape_keeps_each_list_on_the_context(monkeypatch):
    """A second call with the same shape and grade set returns the list of
    the first, with no table built and no multiset walked; another grade set
    gives its own filtered list, and the empty set none."""
    import gerstenhaber.chcoh as chcoh

    full = monomials_for_shape(real_polyvec_context(3, 1), (1, 2))
    allg = sorted({mono_grade(m) for m in full})
    grades, other = set(allg[::2]), set(allg[1::2])
    ctx = real_polyvec_context(3, 1)
    first = monomials_for_shape(ctx, (1, 2), grades)
    built = len(ctx.quotient.tables)

    def walk(*args):
        raise AssertionError("graded_multisets called on a kept list")

    with monkeypatch.context() as m:
        m.setattr(chcoh, "graded_multisets", walk)
        assert monomials_for_shape(ctx, (2, 1), set(grades)) is first
    assert len(ctx.quotient.tables) == built
    assert first == [m for m in full if mono_grade(m) in grades]
    assert monomials_for_shape(ctx, (1, 2), other) == \
        [m for m in full if mono_grade(m) in other]
    assert monomials_for_shape(ctx, (1, 2), set()) == []


def test_graded_walks_record_each_monomial_grade():
    """Every monomial a grade-restricted walk lists has its ``mono_grade``
    in ``ctx.mono_grades``."""
    ctx = real_polyvec_context(3, 1)
    for shape in level_shapes(3, 4):
        allg = sorted({mono_grade(m) for m in monomials_for_shape(ctx, shape)})
        for grades in ({allg[0]}, set(allg[::2]), set(allg)):
            got = monomials_for_shape(ctx, shape, grades)
            assert got and all(ctx.mono_grades[m] == mono_grade(m) for m in got)


def monomials_for_shape_oracle(ctx, shape, grades=None) -> list:
    """The former enumerator: every combo of every packet-length group, with
    repeated odd packets and off-grade combos filtered out afterwards."""
    by_len: dict[int, int] = {}
    for p in shape:
        by_len[p] = by_len.get(p, 0) + 1
    groups = []
    for p in sorted(by_len):
        words = ctx.rep_words(p)
        wdeg = [pdeg(w) for w in words]
        choices = []
        for combo in combinations_with_replacement(range(len(words)), by_len[p]):
            if any(i == j and wdeg[i] % 2 for i, j in zip(combo, combo[1:])):
                continue
            choices.append([words[i] for i in combo])
        groups.append(choices)
    out = []

    def rec(i, acc):
        if i == len(groups):
            out.append(tuple(acc))
            return
        for packs in groups[i]:
            rec(i + 1, acc + packs)

    rec(0, [])
    if grades is None:
        return out
    return [m for m in out if mono_grade(m) in grades]


def test_monomials_for_shape_matches_combo_oracle():
    """The one walk over packet slots returns the former per-group combo
    enumeration, order included, with and without grades: the grades of
    some degrees, also of degrees no monomial reaches (their weight-0
    grade), and single grades; on sandboxes (weight 0 throughout, with odd
    packets) a grade is a degree."""
    compared = 0
    for ctx in table_contexts():
        for N in (1, 2, 3, 4):
            for shape in level_shapes(N, 4):
                full = monomials_for_shape(ctx, shape)
                assert full == monomials_for_shape_oracle(ctx, shape)
                degs = sorted({mono_deg(m) for m in full})
                lo, hi = (degs[0], degs[-1]) if degs else (0, 0)
                allg = sorted({mono_grade(m) for m in full})
                for degrees in ([{deg} for deg in degs[:3] + degs[-2:]]
                                + [set(degs[::2]), {lo - 3}, {hi + 3},
                                   {lo - 1, hi + 1}, {lo - 2, hi}]):
                    grades = {mono_grade(m) for m in full if mono_deg(m) in degrees}
                    grades |= {deg for deg in degrees if deg not in degs}
                    got = monomials_for_shape(ctx, shape, grades)
                    assert got == monomials_for_shape_oracle(ctx, shape, grades)
                    assert got == [m for m in full if mono_deg(m) in degrees]
                for grades in [{g} for g in allg[:3] + allg[-2:]] + [set(allg[1::3])]:
                    got = monomials_for_shape(ctx, shape, grades)
                    assert got == monomials_for_shape_oracle(ctx, shape, grades)
                    assert got == [m for m in full if mono_grade(m) in grades]
                compared += len(full)
    assert compared > 15000


def referenced_shapes_oracle(shape) -> set:
    """Shapes of the cochain arguments appearing in the coboundary on
    ``shape``, written out by hand: letter detachment and the packet
    differential shorten one part, and the bracket merges two parts into one
    of their combined length minus one (the target bracket term, which would
    drop one length-1 part, is zero for every accepted letter morphism)."""
    parts = list(shape)
    out = set()
    for j, p in enumerate(parts):
        rest = parts[:j] + parts[j + 1:]
        if p > 1:
            out.add(tuple(sorted(rest + [p - 1])))
    for j in range(len(parts)):
        for k in range(j + 1, len(parts)):
            rest = [parts[i] for i in range(len(parts)) if i not in (j, k)]
            out.add(tuple(sorted(rest + [parts[j] + parts[k] - 1])))
    return out


def test_live_shape_selection_matches_referenced_oracle():
    """The row shapes d_ch walks (level N + 1 shapes on which a PacketTable
    built on f's shapes keeps a term family) are the shapes reachable from
    level N that reference one of f's shapes, for every set of f's shapes."""
    from itertools import combinations

    ctx = real_polyvec_context(2, 1)
    cases = 0
    for nmax in (1, 2, 3, 4):
        for N in (1, 2, 3, 4):
            shapes = level_shapes(N, nmax)
            want_rows = [s for s in reachable_shapes(shapes) if len(s) <= nmax]
            for r in range(len(shapes) + 1):
                for fshapes in map(set, combinations(shapes, r)):
                    table = PacketTable(fshapes)
                    got = [s for s in level_shapes(N + 1, nmax)
                           if any(table.live(s))]
                    assert got == [s for s in want_rows
                                   if referenced_shapes_oracle(s) & fshapes]
                    cases += 1
    assert cases > 100


def test_headline_decision_builds_only_deciding_tables():
    """Deciding f3 at d=3, k<=1 builds a reduction table only where
    ``reduce_word`` reads one: the nine one-letter multisets of the vector
    field letters (degree 0) and the three pairs of the constant (degree -1)
    with an x_i d_i (weight 0); every other representative list is
    generated.  The lazily built tables, and the lists of their multisets,
    equal those of a quotient that builds every table up to length 3."""
    ctx = real_polyvec_context(3, 1)
    f3 = f3_111(3, ctx)
    trunc = Truncation(3, 1, 4, 4)
    assert is_cocycle(f3, ctx, trunc)
    assert is_coboundary(f3, ctx, trunc) is None
    built = sorted(ctx.quotient.tables)
    fields = [a for a in ctx.source.letters if a.degree == 0]
    const = [a for a in ctx.source.letters if a.degree == -1]
    euler = [a for a in fields if a.grade == 0]
    assert len(fields) == 9 and len(const) == 1 and len(euler) == 3
    assert built == sorted([(a,) for a in fields] +
                           [tuple(sorted((c, a))) for c in const for a in euler])
    assert len(ctx.quotient.reps) > len(built)
    eager = ShuffleQuotient()
    for n in (1, 2, 3):
        for ms in combinations_with_replacement(ctx.source.letters, n):
            eager.reduce_word(ms)
    assert len(eager.tables) == 285
    assert ([ctx.quotient.representatives(ms) for ms in built] ==
            [eager.representatives(ms) for ms in built])
    assert all(ctx.quotient.tables[ms] == eager.tables[ms] for ms in built)


def unit_context(sandbox):
    """A sandbox mapped onto itself through its unit (the one letter of
    degree -1), which its bracket kills."""
    return ChContext(sandbox, sandbox, {a: {a: Fraction(1)} for a in sandbox.letters
                                        if a.degree == -1})


def pruning_contexts(rng):
    """The polyvector context (degree -1 letter morphism, zero target
    bracket) and a sandbox mapped onto itself through its unit, whose
    several target letters exercise target maps other than the base
    field's."""
    return [real_polyvec_context(2, 1), unit_context(sandbox_gerstenhaber(rng))]


def pruning_cochains():
    """(context, level-2 cochain) pairs, seeded: on each of
    ``pruning_contexts``, cochains on the shape (2,), on (1, 1) and on every
    level-2 shape.  On the polyvector context a third of the monomials is
    nonzero (sparse); on the sandbox every one is (dense): it has few of
    them, and a sparse draw can have a zero coboundary."""
    rng = SplitMix64(77)
    for ctx in pruning_contexts(rng):
        every = ctx.target is ctx.source
        for shapes in ([(2,)], [(1, 1)], level_shapes(2, 4)):
            vals = {}
            for shape in shapes:
                for mono in monomials_for_shape(ctx, shape):
                    if every or rng.randrange(3) == 0:
                        vals[mono] = {b: Fraction(rng.randint(1, 3))
                                      for b in ctx.target.letters
                                      if rng.randrange(2) == 0}
            yield ctx, Cochain(vals, 2)


def test_d_ch_pruning_matches_full_evaluation():
    """Enumerating d(g) by g's degrees, shapes and packets drops only zero
    values: the result equals d_ch_value on every level-3 monomial, in
    order, for each of ``pruning_cochains``."""
    from gerstenhaber.chcoh import d_ch

    trunc = Truncation(2, 1, 4, 4)
    for ctx, g in pruning_cochains():
        full = {}
        for shape in reachable_shapes(level_shapes(2, 4)):
            for mono in monomials_for_shape(ctx, shape):
                v = d_ch_value(g.eval, mono, ctx, PacketTable())
                if v:
                    full[mono] = v
        assert full
        assert list(d_ch(g, ctx, trunc).values.items()) == list(full.items())


def support_filter_cases():
    """(context, cochain, rows): f3 at d = 3, 4, 5 with the level-4 rows
    its coboundary is evaluated on, and each of ``pruning_cochains`` with
    every monomial of the shapes one coboundary step up."""
    for d in (3, 4, 5):
        ctx = real_polyvec_context(d)
        f = f3_111(d, ctx)
        grades = {s - 1 for s in f.grade_support}
        yield ctx, f, [m for shape in level_shapes(4, 4)
                       for m in monomials_for_shape(ctx, shape, grades)]
    for ctx, g in pruning_cochains():
        yield ctx, g, [m for shape in reachable_shapes(level_shapes(2, 4))
                       for m in monomials_for_shape(ctx, shape)]


def test_support_filter_keeps_every_term_that_reaches_the_support():
    """On a table built from a cochain's support, d_ch_terms returns an
    ordered subsequence of the unfiltered list that keeps every term whose
    argument lies in the support: on f3 at d = 3 ... 5, on the sparse and
    dense cochains of ``pruning_cochains`` and so on a unit-context
    sandbox.  Some terms and some whole monomials are skipped."""
    dropped = skipped = 0
    for ctx, f, rows in support_filter_cases():
        table, unfiltered = PacketTable(support=f.values), PacketTable()
        for W in rows:
            kept = d_ch_terms(W, ctx, table)
            full = d_ch_terms(W, ctx, unfiltered)
            rest = iter(full)
            assert all(any(t == u for u in rest) for t in kept), W
            assert [t for t in kept if t[2] in f.values] == \
                [t for t in full if t[2] in f.values], W
            dropped += len(full) - len(kept)
            skipped += bool(full) and not kept
    assert dropped and skipped


def test_d_ch_terms_shape_filter_is_exact():
    """Restricted to argument shapes, d_ch_terms returns exactly the full
    term list filtered by argument shape, in order."""
    rng = SplitMix64(78)
    for ctx in pruning_contexts(rng):
        for shape in level_shapes(3, 4) + level_shapes(4, 4):
            monos = monomials_for_shape(ctx, shape)
            for mono in [monos[rng.randrange(len(monos))] for _ in range(4) if monos]:
                full = d_ch_terms(mono, ctx, PacketTable())
                for keep in level_shapes(len(sum(mono, ())) - 1, 4):
                    want = [t for t in full
                            if tuple(sorted(len(w) for w in t[2])) == keep]
                    assert d_ch_terms(mono, ctx, PacketTable({keep})) == want


def table_contexts():
    """d = 2, k <= 2 and d = 3, k <= 1 mapped to the base field, and two
    seeded sandboxes mapped onto themselves through their units."""
    rng = SplitMix64(80)
    out = [real_polyvec_context(2, 2), real_polyvec_context(3, 1)]
    for _ in range(2):
        out.append(unit_context(sandbox_gerstenhaber(rng)))
    return out


def test_shared_packet_table_matches_fresh_tables():
    """One PacketTable shared by every monomial gives each monomial the
    d_ch_terms list of a fresh table, order included, with and without
    shapes."""
    compared = 0
    for ctx in table_contexts():
        monos = [m for shape in level_shapes(2, 4) + level_shapes(3, 4)
                 for m in monomials_for_shape(ctx, shape)]
        keeps = level_shapes(1, 4) + level_shapes(2, 4)
        for shapes in [None] + [{keep} for keep in keeps]:
            table = PacketTable(shapes)
            for mono in monos:
                assert d_ch_terms(mono, ctx, table) == \
                    d_ch_terms(mono, ctx, PacketTable(shapes)), mono
                compared += 1
    assert compared > 8000


def count_packet_ops(monkeypatch):
    """Count the h_bracket and h_mu calls of the row assembly, by argument."""
    from collections import Counter

    import gerstenhaber.chcoh as chcoh

    calls = Counter()
    bracket, mu = chcoh.h_bracket, chcoh.h_mu

    def counted_bracket(x, y, basis, quotient):
        calls["bracket", x, y] += 1
        return bracket(x, y, basis, quotient)

    def counted_mu(x, basis, quotient):
        calls["mu", x] += 1
        return mu(x, basis, quotient)

    monkeypatch.setattr(chcoh, "h_bracket", counted_bracket)
    monkeypatch.setattr(chcoh, "h_mu", counted_mu)
    return calls


def test_decisions_compute_each_packet_operation_once_per_call(monkeypatch):
    """Within one d_ch, is_cocycle, is_coboundary or assemble_matrix call
    each packet pair is bracketed and each packet's mu is taken at most
    once.  The context keeps them: a second identical call on the same
    context computes none, and the call on a fresh context computes the
    first call's operations again."""
    from gerstenhaber.chcoh import d_ch

    calls = count_packet_ops(monkeypatch)
    ctx = real_polyvec_context(3, 1)
    trunc = Truncation(3, 1, 4, 4)
    one = ctx.target.letters[0]
    rng = SplitMix64(81)
    vals = {mono: {one: Fraction(rng.choice([-2, -1, 1, 2]))}
            for shape in level_shapes(2, 4)
            for mono in monomials_for_shape(ctx, shape) if rng.randrange(3) == 0}
    g = Cochain(vals, 2)
    f = d_ch(g, ctx, trunc)
    runs = [((3, 1), lambda ctx: d_ch(g, ctx, trunc)),
            ((3, 1), lambda ctx: is_cocycle(f, ctx, trunc)),
            ((3, 1), lambda ctx: is_coboundary(f, ctx, trunc)),
            ((2, 1), lambda ctx: assemble_matrix(ctx, level_shapes(2, 3)))]
    for dk, run in runs:
        ctx = real_polyvec_context(*dk)
        calls.clear()
        run(ctx)
        assert calls and max(calls.values()) == 1
        first = dict(calls)
        calls.clear()
        run(ctx)
        assert not calls
        run(real_polyvec_context(*dk))
        assert calls == first


def round_trip_repr(g, ctx, trunc) -> str:
    """repr of the values of d_ch(g), its preimage and d_ch of that, in order."""
    from gerstenhaber.chcoh import d_ch

    f = d_ch(g, ctx, trunc)
    pre = is_coboundary(f, ctx, trunc)
    back = d_ch(pre, ctx, trunc)
    assert back.values == f.values
    return repr([list(c.values.items()) for c in (f, pre, back)])


def test_warm_context_round_trip_matches_a_fresh_context():
    """The round trip d_ch, is_coboundary, d_ch on a seeded level-2 cochain
    at d = 3, k <= 1 gives the same values, order included, on a context
    that kept the packet operations of an earlier round trip as on a fresh
    context."""
    warm = real_polyvec_context(3, 1)
    trunc = Truncation(3, 1, 4, 4)
    one = warm.target.letters[0]
    rng = SplitMix64(82)
    g = Cochain({mono: {one: Fraction(rng.choice([-2, -1, 1, 2]))}
                 for shape in level_shapes(2, 4)
                 for mono in monomials_for_shape(warm, shape)
                 if rng.randrange(3) == 0}, 2)
    first = round_trip_repr(g, warm, trunc)
    assert warm.bracket.cache_info().currsize and warm.families.cache_info().currsize
    assert round_trip_repr(g, warm, trunc) == first
    assert round_trip_repr(g, real_polyvec_context(3, 1), trunc) == first


def seeded_cochain(ctx, shapes, level, seed, keep=3) -> Cochain:
    """A cochain of the given level on about 1/keep of the monomials of
    ``shapes``, with values in {-2, -1, 1, 2}."""
    one = ctx.target.letters[0]
    rng = SplitMix64(seed)
    return Cochain({mono: {one: Fraction(rng.choice([-2, -1, 1, 2]))}
                    for shape in shapes for mono in monomials_for_shape(ctx, shape)
                    if rng.randrange(keep) == 0}, level)


def count_assembly(monkeypatch) -> Counter:
    """A Counter of the ``_block_matrix`` and ``d_ch_terms`` calls made
    from now on."""
    calls = Counter()
    for name in ("_block_matrix", "d_ch_terms"):
        monkeypatch.setattr(chcoh, name, lambda *a, _f=getattr(chcoh, name), _n=name:
                            calls.update([_n]) or _f(*a))
    return calls


def test_warm_context_solves_another_cochain_from_its_kept_blocks(monkeypatch):
    """A second ``is_coboundary`` on a context, on another seeded cochain of
    the same level whose grades the first one covered, assembles nothing:
    no ``_block_matrix`` and no ``d_ch_terms`` call.  Its preimage is the
    one a fresh context returns, repr included."""
    warm = real_polyvec_context(3, 1)
    trunc = Truncation(3, 1, 4, 4)
    f1 = d_ch(seeded_cochain(warm, level_shapes(2, 4), 2, 84, keep=1), warm, trunc)
    f2 = d_ch(seeded_cochain(warm, level_shapes(2, 4), 2, 85), warm, trunc)
    assert f2.values != f1.values and f2.grade_support <= f1.grade_support
    assert is_coboundary(f1, warm, trunc) is not None
    calls = count_assembly(monkeypatch)
    pre = is_coboundary(f2, warm, trunc)
    assert not calls
    monkeypatch.undo()
    fresh = is_coboundary(f2, real_polyvec_context(3, 1), trunc)
    assert pre is not None and repr(pre.values) == repr(fresh.values)
    assert d_ch(pre, warm, trunc).values == f2.values


def test_kept_blocks_are_keyed_by_level_and_packet_count():
    """One context deciding d(g) for g of levels 2 and 3, at nmax 3 and then
    4, gives what a fresh context gives each time: a block kept for one
    level or one packet count is not read for another."""
    warm = real_polyvec_context(2, 1)
    for nmax in (3, 4):
        trunc = Truncation(2, 1, 4, nmax)
        for level in (2, 3):
            # shapes with a part to spare, so d(g) fits under nmax
            shapes = [s for s in level_shapes(level, nmax) if len(s) < nmax]
            g = seeded_cochain(warm, shapes, level, 86 + 2 * nmax + level)
            f = d_ch(g, warm, trunc)
            pre = is_coboundary(f, warm, trunc)
            fresh = is_coboundary(f, real_polyvec_context(2, 1), trunc)
            assert pre is not None and repr(pre.values) == repr(fresh.values)


def test_assemble_matrix_keeps_each_block_by_its_source_shapes(monkeypatch):
    """The level-1 outer matrix and the level-2 inner matrix of criterion 3
    have one source shape list: the second call assembles nothing and
    returns the kept matrix and lists."""
    ctx = real_polyvec_context(2, 1)
    calls = count_assembly(monkeypatch)
    outer = assemble_matrix(ctx, reachable_shapes(level_shapes(1, 3)))
    assert calls["_block_matrix"] == 1
    inner = assemble_matrix(ctx, level_shapes(2, 3))
    assert calls["_block_matrix"] == 1 and inner is outer
    assert (inner[0].nrows, inner[0].ncols) == (110, 22)


def test_dropped_basis_context_and_table_are_freed():
    """A GerstBasis, ChContext and PacketTable that have kept letter-pair
    constants, packet operations and live families are freed once dropped:
    each memo lives on its object, not on a class or a module."""
    import gc
    import weakref

    ctx = real_polyvec_context(2, 1)
    table = PacketTable({(1, 1)})
    rows = 0
    for shape in level_shapes(3, 4):
        for mono in monomials_for_shape(ctx, shape)[::7]:
            rows += bool(d_ch_terms(mono, ctx, table))
    a, b = ctx.source.letters[-2:]
    assert ctx.source.mu2(a, b) is ctx.source.mu2(a, b)
    assert rows and ctx.bracket.cache_info().currsize
    assert ctx.families.cache_info().currsize and table.live.cache_info().currsize
    refs = [weakref.ref(obj) for obj in (ctx.source, ctx, table)]
    del ctx, table, a, b
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def test_d_ch_with_zero_morphism_is_minus_packet_codifferential():
    """With the zero letter morphism no term detaches a letter or reaches
    the target bracket, so d_ch(f)(W) = -sum c f(m) over l + m on packets
    (``ginfty.lm_on_packets``, written independently).  This pins the sign
    of the bracket part against the product part, which d_CH^2 = 0 alone
    does not."""
    from gerstenhaber.genv import polyvec_basis
    from gerstenhaber.ginfty import lm_on_packets

    rng = SplitMix64(79)
    compared = nonzero = 0
    for source in (polyvec_basis(2, 1), sandbox_gerstenhaber(rng),
                   polyvec_basis(2, 2)):
        ctx = ChContext(source, real_target(), {})
        one = ctx.target.letters[0]
        vals = {}
        for shape in level_shapes(2, 4):
            for mono in monomials_for_shape(ctx, shape):
                if rng.randrange(3) == 0:
                    vals[mono] = {one: Fraction(rng.choice([-2, -1, 1, 2]))}
        f = Cochain(vals, 2)
        monos = [m for shape in level_shapes(3, 4)
                 for m in monomials_for_shape(ctx, shape)]
        step = -(-len(monos) // 150)
        for W in monos[::step]:
            want: dict = {}
            for m, c in lm_on_packets(W, ctx.source, ctx.quotient).items():
                add_scaled(want, f.eval(m), -c)
            assert d_ch_value(f.eval, W, ctx, PacketTable()) == want, W
            compared += 1
            nonzero += bool(want)
    assert compared >= 300 and nonzero >= 50


@pytest.mark.parametrize("d,kmax", [(2, 2), (3, 1)])
def test_d_ch_keeps_the_torus_weight(d, kmax):
    """On every level-2 and level-3 row, every d_ch_row entry has an argument
    of the row's weight and one degree up (one grade up), and target letters
    of weight 0: d_CH is block diagonal by grade, which the grade-restricted
    decisions rely on."""
    ctx = real_polyvec_context(d, kmax)
    table = PacketTable()
    rows = 0
    for shape in level_shapes(2, 4) + level_shapes(3, 4):
        for W in monomials_for_shape(ctx, shape):
            for arg, lo, li in d_ch_row(W, ctx, table):
                assert mono_grade(arg) - mono_deg(arg) == mono_grade(W) - mono_deg(W)
                assert mono_grade(arg) == mono_grade(W) + 1
                assert lo.grade == lo.degree and li.grade == li.degree
            rows += 1
    assert rows > 300


def test_letter_morphism_must_keep_weights():
    """A letter morphism onto a target letter of another weight is refused:
    the grade-restricted enumeration would silently drop rows."""
    source = polyvec_basis(3, 1)
    target = real_target()
    one = target.letters[0]
    with pytest.raises(ValueError):
        ChContext(source, target, {vf_letter(3, 1, 2): {one: Fraction(1)}})
    ChContext(source, target, {vf_letter(3, 1, 2): {one: Fraction(0)}})


def test_letter_morphism_contract():
    """ChContext refuses every letter morphism but those supported in grade
    -1 with images of grade -1 that the target bracket kills: a sandbox's
    identity, an image [u, v] = u does not kill (in a hand-built,
    unvalidated target) and an image of degree 0 are refused; the sandbox's
    unit, and u in a target with zero bracket, are accepted."""
    sandbox = sandbox_gerstenhaber(SplitMix64(83))
    with pytest.raises(ValueError):
        ChContext(sandbox, sandbox, {a: {a: Fraction(1)} for a in sandbox.letters})
    unit_context(sandbox)
    source = polyvec_basis(2, 1)
    consts = [a for a in source.letters if a.degree == -1]
    u, v = Letter(("u",), -1), Letter(("v",), 0)
    onto_u = {a: {u: Fraction(1)} for a in consts}
    with pytest.raises(ValueError):
        ChContext(source, GerstBasis([u, v], int_view({}),
                                     int_view({(u.ident, v.ident): {u.ident: 1}})),
                  onto_u)
    ChContext(source, GerstBasis([u, v], int_view({}), int_view({})), onto_u)
    with pytest.raises(ValueError):
        ChContext(source, GerstBasis([u, v], int_view({}), int_view({})),
                  {a: {v: Fraction(1)} for a in consts})


def unit_sandbox_cochains():
    """Four seeded sandboxes mapped onto themselves through their units,
    each with a seeded level-1 and level-2 cochain whose every value has a
    nonzero coefficient on every target letter."""
    rng = SplitMix64(82)
    for _ in range(4):
        ctx = unit_context(sandbox_gerstenhaber(rng))
        for level in (1, 2):
            vals = {mono: {b: Fraction(rng.choice([-2, -1, 1, 2]))
                           for b in ctx.target.letters}
                    for shape in level_shapes(level, 4)
                    for mono in monomials_for_shape(ctx, shape)
                    if rng.randrange(2) == 0}
            yield ctx, Cochain(vals, level)


def test_d_ch_squares_to_zero_on_multi_letter_targets():
    """d_CH^2 = 0 with a target of several letters, not only the base field:
    d(g) is nonzero and d(d(g)) is zero for every unit-mapped sandbox
    cochain."""
    from gerstenhaber.chcoh import d_ch

    trunc = Truncation(2, 1, 4, 4)
    cases = 0
    for ctx, g in unit_sandbox_cochains():
        dg = d_ch(g, ctx, trunc)
        assert not dg.is_zero()
        assert d_ch(dg, ctx, trunc).is_zero()
        cases += 1
    assert cases == 8


def test_coboundary_roundtrip_on_multi_letter_targets():
    """f = d(g), g' = is_coboundary(f) and d(g') == f for every unit-mapped
    sandbox cochain: the grade-blocked solve handles several target
    letters."""
    from gerstenhaber.chcoh import d_ch

    trunc = Truncation(2, 1, 4, 4)
    for ctx, g in unit_sandbox_cochains():
        f = d_ch(g, ctx, trunc)
        pre = is_coboundary(f, ctx, trunc)
        assert pre is not None
        assert d_ch(pre, ctx, trunc).values == f.values


def test_truncation_insufficiency_reported():
    ctx = real_polyvec_context(3)
    f3 = f3_111(3, ctx)
    with pytest.raises(TruncationError):
        is_cocycle(f3, ctx, Truncation(3, 3, 3, 3))


def test_assemble_matrix_zero_sandbox_and_column_count():
    ctx = ChContext(zero_gerstenhaber(2), real_target(), {})
    shapes = level_shapes(2, 2)
    mat, rows, cols = assemble_matrix(ctx, shapes)
    assert mat.is_zero()
    want = sum(len(monomials_for_shape(ctx, s)) for s in shapes)
    assert len(cols) == want and mat.ncols == want * len(ctx.target.letters)


def test_assemble_consecutive_product_zero_small():
    ctx = real_polyvec_context(2, 1)
    src = level_shapes(1, 3)
    mid = reachable_shapes(src)
    m1, rows1, _ = assemble_matrix(ctx, src)
    m2, _, cols2 = assemble_matrix(ctx, mid)
    assert cols2 == rows1
    assert m2.mul(m1).is_zero()


# ---------------------------------------------------------------------------
# the paper's signed tableau sum, kept as an independent oracle for the
# morphism lift (the library lifts by the cocrochet recursion)

def _compositions(p: int):
    """All ways to cut a length-p packet into contiguous nonempty parts."""
    out = []
    for mask in range(1 << (p - 1)):
        parts = []
        start = 0
        for i in range(p - 1):
            if mask & (1 << i):
                parts.append((start, i + 1))
                start = i + 1
        parts.append((start, p))
        out.append(parts)
    return out


def _column_assignments(part_counts, t):
    """Assignments of each row's parts to strictly increasing columns in 1..t."""
    from itertools import combinations as comb

    rows = []
    for r in part_counts:
        rows.append(list(comb(range(t), r)))
    out = []

    def rec(i, acc):
        if i == len(rows):
            out.append(list(acc))
            return
        for choice in rows[i]:
            rec(i + 1, acc + [choice])

    rec(0, [])
    return out


def _wdeg(word) -> int:
    return sum(a.degree for a in word)


def tableau_sign(cols, tcells) -> int:
    """Sign carrying a tableau from reading order to column order.

    Cells are consumed column by column, inside a column in row order; pulling
    a cell out of the remaining reading-order sequence crosses every cell
    still in front of it.  Crossing factors are Koszul signs on word degrees,
    with a suspension marker on one side in all but one case:

      crossing cell   crossed cell    factor exponent (word degrees)
      whole           whole           (ws+1)(wc+1)
      whole           piece            ws (wc+1)
      piece joining   piece            ws (wc+1)
      piece opening   piece            ws  wc
      piece           whole           (ws+1) wc

    and a piece that opens a new column, is not the last piece of its row and
    crossed at least one piece contributes one extra (-1)^(its word degree).
    The convention is pinned by the comorphism identities; it has been checked
    against the cocrochet-recursion lift on every shape with at most two cut
    packets of length at most 2 plus uncut packets, and on single packets of
    length up to 4.
    """
    remaining = list(tcells)
    e = 0
    for col in cols:
        for ci, c in enumerate(col):
            idx = next(i for i, r in enumerate(remaining) if r[0] == c[0])
            skipped = remaining[:idx]
            opens = ci == 0
            not_row_last = c[3] and c[4] < c[5] - 1
            wc = _wdeg(c[2]) % 2
            skipped_piece = any(s[3] for s in skipped)
            for s in skipped:
                ws = _wdeg(s[2]) % 2
                if not c[3]:
                    e += (ws + 1) * (wc + 1) if not s[3] else ws * (wc + 1)
                elif not s[3]:
                    e += (ws + 1) * wc
                elif not opens:
                    e += ws * (wc + 1)
                else:
                    e += ws * wc
            if c[3] and opens and not_row_last and skipped_piece:
                e += wc
            remaining.pop(idx)
    return -1 if e % 2 else 1


def _iter_tableaux(mono: Mono):
    """Yield (columns, reading-order cells) over all admissible tableaux.

    A cell is (uid, row, word, is_piece, piece_index, row_piece_count).
    Cut parts are contiguous, occupy strictly increasing columns, every
    column holds at least one part (wholes attach to part columns) and the
    column count exceeds the cut count by one.
    """
    n = len(mono)
    all_cuts = [_compositions(len(w)) for w in mono]

    def rec(j, chosen):
        if j < n:
            for cuts in all_cuts[j]:
                yield from rec(j + 1, chosen + [cuts])
            return
        tcells = []
        uid = 0
        rowcells = {}
        for i in range(n):
            rowcells[i] = []
            cnt = len(chosen[i])
            for piidx, (s, e) in enumerate(chosen[i]):
                c = (uid, i, mono[i][s:e], cnt > 1, piidx, cnt)
                tcells.append(c)
                rowcells[i].append(c)
                uid += 1
        cut_rows = [i for i in range(n) if len(chosen[i]) > 1]
        if not cut_rows:
            yield [list(tcells)], tcells
            return
        t = sum(len(c) - 1 for c in chosen) + 1
        part_counts = [len(chosen[i]) for i in cut_rows]
        whole_rows = [i for i in range(n) if len(chosen[i]) == 1]
        for assign in _column_assignments(part_counts, t):
            colparts = [[] for _ in range(t)]
            for ri, row in enumerate(cut_rows):
                for piidx, colu in enumerate(assign[ri]):
                    colparts[colu].append(rowcells[row][piidx])
            if any(not cp for cp in colparts):
                continue

            def place(w, acc):
                if w == len(whole_rows):
                    cols = [
                        sorted(colparts[cidx] + acc[cidx], key=lambda c: c[1])
                        for cidx in range(t)
                    ]
                    yield cols, tcells
                    return
                row = whole_rows[w]
                for cidx in range(t):
                    if colparts[cidx]:
                        acc2 = [list(c) for c in acc]
                        acc2[cidx].append(rowcells[row][0])
                        yield from place(w + 1, acc2)

            yield from place(0, [[] for _ in range(t)])

    yield from rec(0, [])


def tableau_terms(mono: Mono, taylor, source_quotient: ShuffleQuotient,
                  target_quotient: ShuffleQuotient) -> dict:
    """Single-packet component of the lifted bicoalgebra morphism.

    Sums the signed tableaux: each column's cells (reduced to representative
    words) form a monomial handed to the Taylor family, the column values form
    one output word, reduced in the target quotient.  Returns
    {representative output word: coefficient}.
    """
    out: dict = {}
    for cols, tcells in _iter_tableaux(mono):
        sign = Fraction(tableau_sign(cols, tcells))
        val = {(): sign}
        dead = False
        for col in cols:
            colvec: dict = {}
            stack = [([], Fraction(1), 0)]
            while stack:
                ws, c, i = stack.pop()
                if i == len(col):
                    cm, csign = mono_key(ws)
                    if cm is not None:
                        for a, ca in taylor(cm).items():
                            add_term(colvec, a, c * ca * csign)
                    continue
                for rw, rc in source_quotient.reduce_word(col[i][2]).items():
                    stack.append((ws + [rw], c * rc, i + 1))
            if not colvec:
                dead = True
                break
            nxt: dict = {}
            for w, cw in val.items():
                for a, ca in colvec.items():
                    add_term(nxt, w + (a,), cw * ca)
            val = nxt
        if dead:
            continue
        for w, cw in val.items():
            add_scaled(out, target_quotient.reduce_word(w), cw)
    return out


# ---------------------------------------------------------------------------
# morphism reconstruction

def rand_family(rng, src, src_quo, tgt, shapes=((1,), (2,), (1, 1))):
    coeffs = {}
    for shape in shapes:
        tbl = {}
        for _ in range(14):
            packs = []
            for p in shape:
                w = tuple(rng.choice(src.letters) for _ in range(p))
                red = src_quo.reduce_word(w)
                if not red:
                    break
                packs.append(sorted(red)[0])
            if len(packs) != len(shape):
                continue
            key, sgn = mono_key(packs)
            if key is None or key in tbl:
                continue
            want = mono_deg(key) + 1
            choices = [a for a in tgt.letters if a.degree == want]
            if not choices:
                continue
            tbl[key] = {rng.choice(choices): Fraction(rng.randint(1, 3)) * sgn}
        coeffs[tuple(sorted(shape))] = tbl
    return TaylorFamily(coeffs)


def rand_mono(rng, src, src_quo, maxpack=2, maxlen=2):
    packs = []
    for _ in range(rng.randint(1, maxpack)):
        w = tuple(rng.choice(src.letters) for _ in range(rng.randint(1, maxlen)))
        red = src_quo.reduce_word(w)
        if not red:
            return None
        packs.append(sorted(red)[0])
    key, _ = mono_key(packs)
    return key


def test_tableau_matches_recursion_lift():
    rng = SplitMix64(74)
    checked = 0
    for _ in range(25):
        src = sandbox_gerstenhaber(rng)
        tgt = sandbox_gerstenhaber(rng)
        src_quo, tgt_quo = ShuffleQuotient(), ShuffleQuotient()
        fam = rand_family(rng, src, src_quo, tgt)
        cache = {}
        for _ in range(6):
            mono = rand_mono(rng, src, src_quo)
            if mono is None:
                continue
            got = tableau_terms(mono, fam, src_quo, tgt_quo)
            want = recursion_single(mono, fam, src_quo, tgt_quo, cache)
            assert {k: v for k, v in got.items() if v} == {
                k: v for k, v in want.items() if v
            }
            checked += 1
    assert checked > 50


# the packet-length shapes on which the tableau sign was pinned against the
# recursion lift
TABLEAU_PINNED_SHAPES = [
    (1,), (2,), (3,), (4,), (1, 1), (1, 2), (1, 3), (2, 2), (1, 1, 1),
    (1, 1, 2), (1, 1, 3), (1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 1, 1, 1),
]


def shaped_mono(rng, src, src_quo, shape):
    packs = []
    for p in shape:
        red = src_quo.reduce_word(tuple(rng.choice(src.letters) for _ in range(p)))
        if not red:
            return None
        packs.append(sorted(red)[0])
    return mono_key(packs)[0]


def test_tableau_oracle_matches_lift_on_pinned_shapes():
    """The paper's signed tableau sum equals the lift's single-packet
    component on every pinned shape, for Taylor families on every shape of
    at most three letters."""
    rng = SplitMix64(79)
    fshapes = [s for N in (1, 2, 3) for s in level_shapes(N, 3)]
    checked, nonzero = [], []
    for _ in range(12):
        src = sandbox_gerstenhaber(rng)
        tgt = sandbox_gerstenhaber(rng)
        src_quo, tgt_quo = ShuffleQuotient(), ShuffleQuotient()
        fam = rand_family(rng, src, src_quo, tgt, fshapes)
        _, single = reconstruct_morphism(fam, src_quo, tgt_quo)
        for shape in TABLEAU_PINNED_SHAPES:
            for _ in range(4):
                mono = shaped_mono(rng, src, src_quo, shape)
                if mono is None:
                    continue
                got = tableau_terms(mono, fam, src_quo, tgt_quo)
                want = {k: v for k, v in single(mono).items() if v}
                assert {k: v for k, v in got.items() if v} == want
                checked.append(shape)
                if want:
                    nonzero.append(shape)
    assert len(checked) > 500 and len(nonzero) > 250
    # every shape that admits a cut is compared on a nonzero value
    assert {s for s in TABLEAU_PINNED_SHAPES if max(s) > 1} <= set(nonzero)


def test_comorphism_identities():
    """The lifted morphism respects both costructures exactly."""
    rng = SplitMix64(75)
    checked = 0
    for _ in range(20):
        src = sandbox_gerstenhaber(rng)
        tgt = sandbox_gerstenhaber(rng)
        src_quo, tgt_quo = ShuffleQuotient(), ShuffleQuotient()
        fam = rand_family(rng, src, src_quo, tgt)
        full, single = reconstruct_morphism(fam, src_quo, tgt_quo)
        for _ in range(5):
            mono = rand_mono(rng, src, src_quo)
            if mono is None:
                continue
            # (F x F) Delta = Delta' F
            lhs = {}
            for (a, b), c in big_delta(mono).items():
                for a2, c2 in full(a).items():
                    for b2, c3 in full(b).items():
                        add_term(lhs, (a2, b2), c * c2 * c3)
            rhs = {}
            for m2, c in full(mono).items():
                for pair, c2 in big_delta(m2).items():
                    add_term(rhs, pair, c * c2)
            assert {k: v for k, v in lhs.items() if v} == {
                k: v for k, v in rhs.items() if v
            }
            # (F x F) kappa = kappa' F
            lhs = {}
            for (a, b), c in kappa(mono, src_quo).items():
                for a2, c2 in full(a).items():
                    for b2, c3 in full(b).items():
                        add_term(lhs, (a2, b2), c * c2 * c3)
            rhs = {}
            for m2, c in full(mono).items():
                for pair, c2 in kappa(m2, tgt_quo).items():
                    add_term(rhs, pair, c * c2)
            assert {k: v for k, v in lhs.items() if v} == {
                k: v for k, v in rhs.items() if v
            }
            checked += 1
    assert checked > 30


def test_suite_green():
    for name, ok, bad in suite_chcoh(7, 20):
        assert ok, f"{name}: {bad}"


def test_f3_value_at_d4():
    ctx = real_polyvec_context(4, 1)
    f3 = f3_111(4, ctx)
    one = ctx.target.letters[0]
    mono, sign = mono_key(
        [(vf_letter(4, 1, 2),), (vf_letter(4, 2, 3),), (vf_letter(4, 3, 1),)]
    )
    assert sign * f3.eval(mono).get(one, 0) == 1
    assert f3_oracle_value(4, [vf_letter(4, 1, 2), vf_letter(4, 2, 3),
                               vf_letter(4, 3, 1)]) == 1


def test_d_ch_operator_squares_to_zero_as_cochain():
    from gerstenhaber.chcoh import d_ch

    rng = SplitMix64(76)
    ctx = real_polyvec_context(2, 1)
    one = ctx.target.letters[0]
    trunc = Truncation(2, 1, 4, 4)
    vals = {}
    for shape in level_shapes(2, 4):
        for mono in monomials_for_shape(ctx, shape):
            if rng.randrange(3) == 0:
                vals[mono] = {one: Fraction(rng.randint(-2, 2))}
    g = Cochain(vals, 2)
    dg = d_ch(g, ctx, trunc)
    assert dg.level == 3
    assert d_ch(dg, ctx, trunc).is_zero()
    # and the concrete 3-cochain is annihilated at d=3
    ctx3 = real_polyvec_context(3)
    assert d_ch(f3_111(3, ctx3), ctx3, Truncation(3, 3, 4, 4)).is_zero()


def test_row_assembly_coefficients_are_ints_on_integral_tables():
    """Coefficient policy: on integral tables and constants every coefficient
    of the coboundary path is an int, from the reduction rows through the
    packet operators to ``d_ch_row`` on the level-3 monomials that a level-2
    cochain at d = 3, k <= 1 reaches."""
    def ints(vals):
        return all(type(c) is int for c in vals)

    ctx = real_polyvec_context(3, 1)
    source, quo = ctx.source, ctx.quotient
    packets = {n: ctx.rep_words(n) for n in (1, 2, 3)}
    for ms in quo.tables:
        for w in set(permutations(ms)):
            assert ints(quo.reduce_word(w).values())
    for a in source.letters:
        for b in source.letters:
            assert ints(source.wedge(a, b).values())
            assert ints(source.bracket(a, b).values())
    for x in packets[1] + packets[2]:
        for y in packets[1]:
            assert ints(h_bracket(x, y, source, quo).values())
    for x in packets[2] + packets[3]:
        assert ints(h_mu(x, source, quo).values())

    one = ctx.target.letters[0]
    g = Cochain({m: {one: Fraction(1)} for s in level_shapes(2, 4)
                 for m in monomials_for_shape(ctx, s)}, 2)
    table = PacketTable(g.shapes())
    rows = list(_coboundary_monomials(g, ctx, Truncation(3, 1, 4, 4), table))
    assert len(rows) > 100
    for mono in rows:
        row = d_ch_row(mono, ctx, table)
        assert ints(row.values())


def test_fractional_cochain_values_round_trip_exactly():
    """A level-2 cochain with values in {+-1/3, +-3/2} at d = 3, k <= 1:
    its coboundary has a preimage whose coboundary is the same, exactly."""
    rng = SplitMix64(19)
    ctx = real_polyvec_context(3, 1)
    one = ctx.target.letters[0]
    trunc = Truncation(3, 1, 4, 4)
    choices = [Fraction(1, 3), Fraction(-1, 3), Fraction(3, 2), Fraction(-3, 2)]
    vals = {mono: {one: rng.choice(choices)}
            for shape in level_shapes(2, 4)
            for mono in monomials_for_shape(ctx, shape) if rng.randrange(3) == 0}
    f = d_ch(Cochain(vals, 2), ctx, trunc)
    assert any(v[one].denominator > 1 for v in f.values.values())
    pre = is_coboundary(f, ctx, trunc)
    assert pre is not None
    assert d_ch(pre, ctx, trunc).values == f.values


@pytest.mark.parametrize("d,kmax,level", [(2, 2, 1), (2, 2, 2), (3, 1, 1), (3, 1, 2)])
def test_d_ch_matches_the_assembled_matrix(d, kmax, level):
    """d_ch, which reads the cochain as ints where its values are integers,
    equals the assembled coboundary matrix applied to the cochain's vector,
    on values mixing integers and fractions; every value it returns is a
    Fraction."""
    rng = SplitMix64(20 + 10 * d + level)
    ctx = real_polyvec_context(d, kmax)
    tletters = ctx.target.letters
    tindex = {a: i for i, a in enumerate(tletters)}
    nt = len(tletters)
    choices = [Fraction(c) for c in (1, -1, 2, -2)] + \
        [Fraction(1, 3), Fraction(-1, 3), Fraction(3, 2), Fraction(-3, 2)]
    mat, rows, cols = assemble_matrix(ctx, level_shapes(level, 4))
    vals = {mono: {rng.choice(tletters): rng.choice(choices)}
            for mono in cols if rng.randrange(2) == 0}
    g = Cochain(vals, level)
    assert {type(c) for v in vals.values() for c in v.values()} == {Fraction}
    assert any(c.denominator == 1 for v in vals.values() for c in v.values())
    assert any(c.denominator > 1 for v in vals.values() for c in v.values())

    col_index = {m: ci for ci, m in enumerate(cols)}
    x = {col_index[m] * nt + tindex[a]: c
         for m, v in g.values.items() for a, c in v.items()}
    want: dict = {}
    for r, c in mul_vec(mat, x).items():
        want.setdefault(rows[r // nt], {})[tletters[r % nt]] = c
    got = d_ch(g, ctx, Truncation(d, kmax, 4, 4))
    assert want and got.level == level + 1
    assert got.values == want
    assert all(type(c) is Fraction for v in got.values.values() for c in v.values())
