"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines; every check
is exact (rational arithmetic, no tolerances anywhere).
"""

import time
from fractions import Fraction

from gerstenhaber.chcoh import (Truncation, assemble_matrix, f3_111,
                                is_coboundary, is_cocycle, level_shapes,
                                reachable_shapes, real_polyvec_context)
from gerstenhaber.genv import h_bracket, h_mu, polyvec_basis, sandbox_gerstenhaber
from gerstenhaber.ginfty import (big_delta, ell_on_packets, kappa,
                                 lm_on_packets, m_on_packets, mono_deg,
                                 mono_key)
from gerstenhaber.graded import Letter, word_deg
from gerstenhaber.polyvec import basis as pv_basis
from gerstenhaber.polyvec import hom_letter
from gerstenhaber.prng import SplitMix64
from gerstenhaber.shuffleco import (ShuffleQuotient, bat, bat3, bat_elem,
                                    delta, delta_elem)
from gerstenhaber.suites import suite_shuffle, suite_symco, suite_tensorco
from gerstenhaber.symco import LieData, d_chevalley_classical
from gerstenhaber.tensorco import add_scaled, add_term, extend


# Oracle helpers of criteria 4-6: the bracket and mu extended linearly to
# quotient elements, and an operator on one factor of a pair of monomials.

def h_bracket_elem(x, y, basis, quotient):
    return extend(lambda a, b: h_bracket(a, b, basis, quotient), x, y)


def h_mu_elem(x, basis, quotient):
    return extend(lambda w: h_mu(w, basis, quotient), x)


def pair_apply_left(op, pairs):
    """(op (x) id) with no crossing sign: op acts on the left factor."""
    out = {}
    for (a, b), c in pairs.items():
        for m2, c2 in op(a).items():
            add_term(out, (m2, b), c * c2)
    return out


def pair_apply_right(op, op_degree, pairs):
    """(id (x) op): crossing the left factor costs (-1)^(op_degree * deg left)."""
    out = {}
    for (a, b), c in pairs.items():
        sign = -1 if (op_degree % 2) and (mono_deg(a) % 2) else 1
        for m2, c2 in op(b).items():
            add_term(out, (a, m2), sign * c * c2)
    return out


def report(num, ok, text):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def vf_letter(d, a, b):
    exps = [0] * d
    exps[a - 1] = 1
    return hom_letter(d, (tuple(exps), (b,)))


def rand_rep(rng, letters, n, quo):
    red = quo.reduce_word(tuple(rng.choice(letters) for _ in range(n)))
    return sorted(red)[0] if red else None


def test_criterion_1_headline_value():
    t0 = time.time()
    ctx = real_polyvec_context(3)
    f3 = f3_111(3, ctx)
    one = ctx.target.letters[0]
    mono, sign = mono_key(
        [(vf_letter(3, 1, 2),), (vf_letter(3, 2, 3),), (vf_letter(3, 3, 1),)]
    )
    value = sign * f3.eval(mono).get(one, Fraction(0))
    dt = time.time() - t0
    report(1, value == 1 and dt < 1.0,
           f"3-cochain value on (x1 d2).(x2 d3).(x3 d1) = {value} in {dt:.2f}s")


def test_criterion_2_cocycle_not_coboundary():
    t0 = time.time()
    ctx = real_polyvec_context(3)
    trunc = Truncation(3, 3, 4, 4)
    f3 = f3_111(3, ctx)
    cocycle = is_cocycle(f3, ctx, trunc)
    preimage = is_coboundary(f3, ctx, trunc)
    dt = time.time() - t0
    report(2, cocycle and preimage is None and dt < 300,
           f"d=3: coboundary of the 3-cochain vanishes ({cocycle}) and the "
           f"level-2 system is infeasible ({preimage is None}) in {dt:.1f}s")


def test_criterion_2_headline_at_d4():
    """The headline pipeline at d=4 over all tensor degrees (k <= 4)."""
    t0 = time.time()
    ctx = real_polyvec_context(4)
    trunc = Truncation(4, 4, 4, 4)
    f3 = f3_111(4, ctx)
    mono, sign = mono_key(
        [(vf_letter(4, 1, 2),), (vf_letter(4, 2, 3),), (vf_letter(4, 3, 1),)]
    )
    value = sign * f3.eval(mono).get(ctx.target.letters[0], Fraction(0))
    cocycle = is_cocycle(f3, ctx, trunc)
    preimage = is_coboundary(f3, ctx, trunc)
    dt = time.time() - t0
    report(2, value == 1 and cocycle and preimage is None,
           f"d=4: value {value}, coboundary of the 3-cochain vanishes "
           f"({cocycle}) and the level-2 system is infeasible "
           f"({preimage is None}) in {dt:.1f}s")


def test_criterion_3_exact_matrix_squares():
    t0 = time.time()
    ctx = real_polyvec_context(2, 2)
    ok = True
    sizes = []
    # level n's reachable shapes are level n + 1's shapes for n = 1, 2, so
    # each matrix is built once: level n's m2 is level n + 1's m1
    src = level_shapes(1, 3)
    m1, rows1, _ = assemble_matrix(ctx, src)
    for n in (1, 2, 3):
        mid = reachable_shapes(src)
        assert n == 3 or mid == level_shapes(n + 1, 3)
        m2, rows2, cols2 = assemble_matrix(ctx, mid)
        ok = ok and cols2 == rows1 and m2.mul(m1).is_zero()
        sizes.append(f"{m2.nrows}x{m2.ncols}*{m1.nrows}x{m1.ncols}")
        src, m1, rows1 = mid, m2, rows2
    dt = time.time() - t0
    report(3, ok and dt < 120,
           f"consecutive coboundary matrices multiply to zero at d=2, k<=2 "
           f"({'; '.join(sizes)}) in {dt:.1f}s")


def test_criterion_4_lie_structure_identities():
    t0 = time.time()
    rng = SplitMix64(104)
    quo = ShuffleQuotient()
    counts = {"antisym": 0, "jacobi": 0, "derivation": 0}
    ok = True
    while min(counts.values()) < 50:
        for basis in (polyvec_basis(2), sandbox_gerstenhaber(rng)):
            a = rand_rep(rng, basis.letters, rng.randint(1, 3), quo)
            b = rand_rep(rng, basis.letters, rng.randint(1, 3), quo)
            if a is None or b is None:
                continue
            s = -1 if (word_deg(a) % 2 and word_deg(b) % 2) else 1
            lhs = h_bracket(a, b, basis, quo)
            rhs = {k: -s * v for k, v in h_bracket(b, a, basis, quo).items()}
            ok = ok and {k: v for k, v in lhs.items() if v} == {
                k: v for k, v in rhs.items() if v}
            counts["antisym"] += 1

            lhs2 = h_mu_elem(h_bracket(a, b, basis, quo), basis, quo)
            rhs2 = h_bracket_elem(h_mu(a, basis, quo), {b: Fraction(1)}, basis, quo)
            s = -1 if word_deg(a) % 2 else 1
            add_scaled(rhs2, h_bracket_elem({a: Fraction(1)}, h_mu(b, basis, quo),
                                            basis, quo), Fraction(s))
            ok = ok and {k: v for k, v in lhs2.items() if v} == {
                k: v for k, v in rhs2.items() if v}
            counts["derivation"] += 1

            c = rand_rep(rng, basis.letters, rng.randint(1, 2), quo)
            a2 = rand_rep(rng, basis.letters, rng.randint(1, 2), quo)
            b2 = rand_rep(rng, basis.letters, rng.randint(1, 2), quo)
            if c is None or a2 is None or b2 is None:
                continue
            da, db, dc = (word_deg(x) % 2 for x in (a2, b2, c))
            acc = {}
            s = -1 if (da and dc) else 1
            add_scaled(acc, h_bracket_elem(h_bracket(a2, b2, basis, quo),
                                           {c: Fraction(1)}, basis, quo), Fraction(s))
            s = -1 if (db and da) else 1
            add_scaled(acc, h_bracket_elem(h_bracket(b2, c, basis, quo),
                                           {a2: Fraction(1)}, basis, quo), Fraction(s))
            s = -1 if (dc and db) else 1
            add_scaled(acc, h_bracket_elem(h_bracket(c, a2, basis, quo),
                                           {b2: Fraction(1)}, basis, quo), Fraction(s))
            ok = ok and not {k: v for k, v in acc.items() if v}
            counts["jacobi"] += 1
    dt = time.time() - t0
    report(4, ok and dt < 60,
           f"bracket extension identities on {counts} seeded instances "
           f"(polyvector and sandbox letters) in {dt:.1f}s")


def test_criterion_5_bicoalgebra_identities():
    t0 = time.time()
    rng = SplitMix64(105)
    quo = ShuffleQuotient()
    count = 0
    ok = True
    while count < 50:
        for basis in (polyvec_basis(2), sandbox_gerstenhaber(rng)):
            packs = []
            for _ in range(rng.randint(1, 3)):
                w = rand_rep(rng, basis.letters, rng.randint(1, 2), quo)
                if w is None:
                    break
                packs.append(w)
            else:
                mono, _ = mono_key(packs)
                if mono is None:
                    continue
                K = lambda m: kappa(m, quo)
                ell = lambda m: ell_on_packets(m, basis, quo)
                mm = lambda m: m_on_packets(m, basis, quo)

                trip = {}
                for (a, b), c in K(mono).items():
                    for (x, y), c2 in K(a).items():
                        add_term(trip, (x, y, b), c * c2)
                acc = dict(trip)
                for (x, y, z), c in trip.items():
                    dx, dy, dz = (mono_deg(t) % 2 for t in (x, y, z))
                    s = -1 if (dx and (dy + dz) % 2) else 1
                    add_term(acc, (y, z, x), s * c)
                    s = -1 if (dz and (dx + dy) % 2) else 1
                    add_term(acc, (z, x, y), s * c)
                ok = ok and not {k: v for k, v in acc.items() if v}

                lhs = {}
                for (a, b), c in K(mono).items():
                    for (x, y), c2 in big_delta(b).items():
                        add_term(lhs, (a, x, y), c * c2)
                rhs = {}
                for (a, b), c in big_delta(mono).items():
                    for (x, y), c2 in K(a).items():
                        add_term(rhs, (x, y, b), c * c2)
                tmp = {}
                for (a, b), c in big_delta(mono).items():
                    s = -1 if mono_deg(a) % 2 else 1
                    for (x, y), c2 in K(b).items():
                        add_term(tmp, (a, x, y), s * c * c2)
                for (a, x, y), c in tmp.items():
                    s = -1 if (mono_deg(a) % 2 and mono_deg(x) % 2) else 1
                    add_term(rhs, (x, a, y), s * c)
                for k, v in rhs.items():
                    add_term(lhs, k, -v)
                ok = ok and not {k: v for k, v in lhs.items() if v}

                for op in (mm, ell):
                    lhs = pair_apply_left(op, K(mono))
                    for k, v in pair_apply_right(op, 1, K(mono)).items():
                        add_term(lhs, k, v)
                    for m2, c in op(mono).items():
                        for pr, c2 in K(m2).items():
                            add_term(lhs, pr, c * c2)
                    ok = ok and not {k: v for k, v in lhs.items() if v}

                sq = {}
                for m2, c in lm_on_packets(mono, basis, quo).items():
                    for m3, c2 in lm_on_packets(m2, basis, quo).items():
                        add_term(sq, m3, c * c2)
                ok = ok and not {k: v for k, v in sq.items() if v}
                count += 1
    dt = time.time() - t0
    report(5, ok and dt < 120,
           f"coJacobi, coLeibniz, both coderivation laws and the master "
           f"equation on {count} seeded monomials in {dt:.1f}s")


def test_criterion_6_structural_identity_battery():
    t0 = time.time()
    rng = SplitMix64(106)
    quo = ShuffleQuotient()
    counts = dict(comm=0, assoc=0, coanti=0, cojac=0, dbat=0, mumu=0)
    ok = True
    while min(counts.values()) < 50:
        basis = sandbox_gerstenhaber(rng) if counts["comm"] % 2 else polyvec_basis(2)
        a = tuple(rng.choice(basis.letters) for _ in range(rng.randint(1, 3)))
        b = tuple(rng.choice(basis.letters) for _ in range(rng.randint(1, 3)))
        s = -1 if (word_deg(a) % 2 and word_deg(b) % 2) else 1
        ok = ok and {k: v for k, v in bat(a, b).items() if v} == {
            k: s * v for k, v in bat(b, a).items() if v}
        counts["comm"] += 1

        a2 = a[:2]
        b2 = b[:2]
        c2 = tuple(rng.choice(basis.letters) for _ in range(rng.randint(1, 2)))
        tri = bat3(a2, b2, c2)
        ok = ok and tri == bat_elem(bat(a2, b2), {c2: Fraction(1)})
        ok = ok and tri == bat_elem({a2: Fraction(1)}, bat(b2, c2))
        counts["assoc"] += 1

        ok = ok and not delta_elem(bat(a2, b2), quo)
        counts["dbat"] += 1

        w = rand_rep(rng, basis.letters, rng.randint(1, 4), quo)
        if w is not None:
            dl = delta(w, quo)
            sw = {}
            for (x, y), c in dl.items():
                s = -1 if (word_deg(x) % 2 and word_deg(y) % 2) else 1
                add_term(sw, (y, x), s * c)
            ok = ok and sw == {k: -v for k, v in dl.items()}
            counts["coanti"] += 1
            trip = {}
            for (x, y), c in dl.items():
                for (u, v), c2 in delta(x, quo).items():
                    add_term(trip, (u, v, y), c * c2)
            acc = dict(trip)
            for (x, y, z), c in trip.items():
                dx, dy, dz = (word_deg(t) % 2 for t in (x, y, z))
                s = -1 if (dx and (dy + dz) % 2) else 1
                add_term(acc, (y, z, x), s * c)
                s = -1 if (dz and (dx + dy) % 2) else 1
                add_term(acc, (z, x, y), s * c)
            ok = ok and not {k: v for k, v in acc.items() if v}
            counts["cojac"] += 1

            out = h_mu_elem(h_mu(w, basis, quo), basis, quo)
            ok = ok and not {k: v for k, v in out.items() if v}
            counts["mumu"] += 1
    # the three classical coboundaries square to zero (seeded suites)
    squares_ok = all(okk for _, okk, _ in suite_tensorco(106, 50)) and \
        all(okk for _, okk, _ in suite_symco(106, 50)) and \
        all(okk for name, okk, _ in suite_shuffle(106, 50, polyvec_basis(2)))
    ok = ok and squares_ok
    dt = time.time() - t0
    report(6, ok and dt < 120,
           f"shuffle commutativity/associativity, cocrochet laws, vanishing on "
           f"shuffle images, square-zero differentials on >=50 instances each "
           f"({counts}) in {dt:.1f}s")


def test_criterion_7_classical_chevalley_recovery():
    e1, e2 = Letter(("g", 1), 0), Letter(("g", 2), 0)
    lie = LieData([e1, e2], {
        (e1.ident, e2.ident): {e1.ident: Fraction(1)},
        (e2.ident, e1.ident): {e1.ident: Fraction(-1)},
    })
    out = Letter(("R",), 0)
    C1 = lambda ls: ({out: Fraction(1)} if tuple(ls) == (e1,) else {})
    C2 = lambda ls: ({out: Fraction(1)} if tuple(ls) == (e2,) else {})
    v1 = d_chevalley_classical(C1, 1, lie)([e1, e2])
    v2 = d_chevalley_classical(C2, 1, lie)([e1, e2])
    ok = v1 == {out: Fraction(-1)} and v2 == {}
    report(7, ok,
           f"textbook coboundary on the solvable algebra: dual of e1 gives "
           f"{dict(v1)}, dual of e2 gives {dict(v2)}")


def test_criterion_8_morphism_reconstruction():
    from gerstenhaber.chcoh import TaylorFamily, reconstruct_morphism

    t0 = time.time()
    rng = SplitMix64(108)
    checked = 0
    ok = True
    while checked < 50:
        src = sandbox_gerstenhaber(rng)
        tgt = sandbox_gerstenhaber(rng)
        src_quo, tgt_quo = ShuffleQuotient(), ShuffleQuotient()
        coeffs = {}
        for shape in ((1,), (2,), (1, 1)):
            tbl = {}
            for _ in range(14):
                packs = []
                for p in shape:
                    w = rand_rep(rng, src.letters, p, src_quo)
                    if w is None:
                        break
                    packs.append(w)
                if len(packs) != len(shape):
                    continue
                key, sgn = mono_key(packs)
                if key is None or key in tbl:
                    continue
                choices = [a for a in tgt.letters if a.degree == mono_deg(key) + 1]
                if choices:
                    tbl[key] = {rng.choice(choices): Fraction(rng.randint(1, 3)) * sgn}
            coeffs[shape] = tbl
        fam = TaylorFamily(coeffs)
        full, _ = reconstruct_morphism(fam, src_quo, tgt_quo)
        for _ in range(5):
            packs = []
            for _ in range(rng.randint(1, 2)):
                w = rand_rep(rng, src.letters, rng.randint(1, 2), src_quo)
                if w is None:
                    break
                packs.append(w)
            else:
                mono, _ = mono_key(packs)
                if mono is None:
                    continue
                lhs = {}
                for (a, b), c in big_delta(mono).items():
                    for a2, c2 in full(a).items():
                        for b2, c3 in full(b).items():
                            add_term(lhs, (a2, b2), c * c2 * c3)
                for m2, c in full(mono).items():
                    for pair, c2 in big_delta(m2).items():
                        add_term(lhs, pair, -c * c2)
                ok = ok and not {k: v for k, v in lhs.items() if v}
                lhs = {}
                for (a, b), c in kappa(mono, src_quo).items():
                    for a2, c2 in full(a).items():
                        for b2, c3 in full(b).items():
                            add_term(lhs, (a2, b2), c * c2 * c3)
                for m2, c in full(mono).items():
                    for pair, c2 in kappa(m2, tgt_quo).items():
                        add_term(lhs, pair, -c * c2)
                ok = ok and not {k: v for k, v in lhs.items() if v}
                checked += 1
    dt = time.time() - t0
    report(8, ok and dt < 60,
           f"lifted morphisms satisfy both comorphism identities on {checked} "
           f"seeded inputs in {dt:.1f}s")


def test_criterion_9_dimension_table():
    got = [len(pv_basis(3, k)) for k in range(4)]
    # independent enumeration: monomial count times direction subset count
    from itertools import combinations, product
    oracle = []
    for k in range(4):
        subsets = sum(1 for _ in combinations(range(3), k))
        monos = sum(1 for e in product(range(k + 1), repeat=3) if sum(e) == k)
        oracle.append(subsets * monos)
    ok = got == [1, 9, 18, 10] and oracle == got
    report(9, ok, f"dimension table at d=3: {got} (enumeration oracle {oracle})")
