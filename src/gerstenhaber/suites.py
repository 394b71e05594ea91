"""Randomized verification suites for the structural identities.

Each suite runs seeded trials of the exact identities its module is built on
and returns (name, passed, counterexample) triples; the command line driver
prints them and the test suite asserts them.  All randomness flows through
the package generator, so a seed fixes every trial.
"""

from __future__ import annotations

from fractions import Fraction

from .genv import (GerstBasis, h_bracket, h_bracket_elem, h_bracket_raw, h_mu,
                   h_mu_elem, polyvec_basis, sandbox_gerstenhaber)
from .ginfty import (big_delta, kappa, ell_on_packets, lm_on_packets,
                     m_on_packets, mono_deg, mono_key, pair_apply_left,
                     pair_apply_right)
from .graded import Letter, shifted, word_deg
from .prng import SplitMix64
from .shuffleco import (ShuffleQuotient, bat, bat3, bat_elem, delta,
                        delta_elem, d_harrison, mu)
from .symco import LieData, d_chevalley, ell_lift, sym_coproduct, sym_key
from .tensorco import (Bimodule, FiniteAlgebra, add_scaled, add_term,
                       d_hochschild, deconcat, m_differential)

Result = tuple  # (name, bool, str)


def _rand_word(letters, n, rng):
    return tuple(rng.choice(letters) for _ in range(n))


def _rand_rep_packet(letters, n, rng, quo):
    red = quo.reduce_word(_rand_word(letters, n, rng))
    if not red:
        return None
    return rng.choice(sorted(red))


def _basis_pair(rng):
    """A source of letters: polyvec on even trials, sandbox on odd ones."""
    if rng.randrange(2):
        return sandbox_gerstenhaber(rng)
    return polyvec_basis(2)


# ---------------------------------------------------------------------------
# algebra / Lie generators for the classical complexes

def random_assoc_algebra(rng) -> FiniteAlgebra:
    kind = rng.randrange(4)
    if kind == 0:
        # truncated polynomials Q[x]/(x^3), degree 0
        ls = [Letter(("p", i), 0) for i in range(3)]
        prod = {}
        for i in range(3):
            for j in range(3):
                if i + j < 3:
                    prod[(("p", i), ("p", j))] = {("p", i + j): Fraction(1)}
        return FiniteAlgebra(ls, prod, commutative=True)
    if kind == 1:
        # exterior algebra on one odd generator
        one, th = Letter(("e", 0), 0), Letter(("e", 1), 1)
        prod = {
            (one.ident, one.ident): {one.ident: Fraction(1)},
            (one.ident, th.ident): {th.ident: Fraction(1)},
            (th.ident, one.ident): {th.ident: Fraction(1)},
        }
        return FiniteAlgebra([one, th], prod, commutative=True)
    if kind == 2:
        # dual numbers: unit and a square-zero generator
        one, x = Letter(("d", 0), 0), Letter(("d", 1), 0)
        prod = {
            (one.ident, one.ident): {one.ident: Fraction(1)},
            (one.ident, x.ident): {x.ident: Fraction(1)},
            (x.ident, one.ident): {x.ident: Fraction(1)},
        }
        return FiniteAlgebra([one, x], prod, commutative=True)
    # strictly upper triangular 2x2 style: x*y = z, all else 0 (noncommutative ok)
    x, y, z = (Letter(("n", i), 0) for i in range(3))
    prod = {(x.ident, y.ident): {z.ident: Fraction(1)}}
    return FiniteAlgebra([x, y, z], prod)


def random_lie(rng) -> LieData:
    kind = rng.randrange(5)
    if kind == 0:
        ls = [Letter(("l", 1), 0), Letter(("l", 2), 0)]
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        br = {(("l", 1), ("l", 2)): {("l", 1): Fraction(a), ("l", 2): Fraction(b)},
              (("l", 2), ("l", 1)): {("l", 1): Fraction(-a), ("l", 2): Fraction(-b)}}
        return LieData(ls, br)
    if kind == 1:
        # Heisenberg
        ls = [Letter(("l", i), 0) for i in (1, 2, 3)]
        c = Fraction(rng.randint(1, 2))
        br = {(("l", 1), ("l", 2)): {("l", 3): c},
              (("l", 2), ("l", 1)): {("l", 3): -c}}
        return LieData(ls, br)
    if kind == 2:
        # graded abelian with differential d(u) = v
        u, v = Letter(("l", "u"), 0), Letter(("l", "v"), 1)
        return LieData([u, v], {}, diff={("l", "u"): {("l", "v"): Fraction(1)}})
    if kind == 3:
        # odd generator with [v,v] = w, w central (graded Heisenberg)
        v, w = Letter(("l", "v"), 1), Letter(("l", "w"), 2)
        br = {(("l", "v"), ("l", "v")): {("l", "w"): Fraction(2)}}
        return LieData([v, w], br)
    ls = [Letter(("l", i), 0) for i in (1, 2)]
    return LieData(ls, {})


# ---------------------------------------------------------------------------
# suites

def suite_tensorco(seed: int, trials: int) -> list:
    rng = SplitMix64(seed)
    results = []

    bad = None
    for _ in range(trials):
        alg = random_assoc_algebra(rng)
        letters = [shifted(a) for a in alg.letters]
        w = _rand_word(letters, rng.randint(1, 5), rng)
        # coassociativity of deconcatenation
        lhs: dict = {}
        for (a, b), c in deconcat(w).items():
            for (x, y), c2 in deconcat(b).items():
                add_term(lhs, (a, x, y), c * c2)
        rhs: dict = {}
        for (a, b), c in deconcat(w).items():
            for (x, y), c2 in deconcat(a).items():
                add_term(rhs, (x, y, b), c * c2)
        if lhs != rhs:
            bad = f"coassociativity fails on {w}"
            break
    results.append(("tensorco: deconcatenation coassociative", bad is None, bad))

    bad = None
    for _ in range(trials):
        alg = random_assoc_algebra(rng)
        mdiff = m_differential(alg)
        letters = [shifted(a) for a in alg.letters]
        w = _rand_word(letters, rng.randint(1, 5), rng)
        elem = {w: Fraction(1)}
        # coderivation law (m x id + id x m) Delta = Delta m, Koszul signs
        lhs: dict = {}
        for (a, b), c in deconcat(w).items():
            for w2, c2 in mdiff({a: Fraction(1)}).items():
                add_term(lhs, (w2, b), c * c2)
            s = -1 if word_deg(a) % 2 else 1
            for w2, c2 in mdiff({b: Fraction(1)}).items():
                add_term(lhs, (a, w2), s * c * c2)
        rhs: dict = {}
        for w2, c2 in mdiff(elem).items():
            for pair, c3 in deconcat(w2).items():
                add_term(rhs, pair, c2 * c3)
        if lhs != rhs:
            bad = f"coderivation law fails on {w}"
            break
        if mdiff(mdiff(elem)):
            bad = f"m.m != 0 on {w}"
            break
    results.append(("tensorco: m is a square-zero coderivation", bad is None, bad))

    bad = None
    for _ in range(trials):
        alg = random_assoc_algebra(rng)
        module = Bimodule.regular(alg)
        letters = [shifted(a) for a in alg.letters]
        arity = rng.randint(1, 3)
        table: dict = {}
        for _ in range(4):
            w = _rand_word(letters, arity, rng)
            table[w] = {rng.choice(alg.letters): Fraction(rng.randint(-2, 2))}
        C = lambda word: table.get(word, {})
        dC = d_hochschild(C, arity + 1, alg, module)
        ddC = d_hochschild(dC, arity + 2, alg, module, value_parity=1)
        for _ in range(6):
            w = _rand_word(letters, arity + 2, rng)
            if {k: v for k, v in ddC(w).items() if v}:
                bad = f"d_H^2 != 0 on {w}"
                break
        if bad:
            break
    results.append(("tensorco: Hochschild coboundary squares to zero", bad is None, bad))
    return results


def suite_symco(seed: int, trials: int) -> list:
    rng = SplitMix64(seed)
    results = []

    bad = None
    for _ in range(trials):
        lie = random_lie(rng)
        letters = list(lie.letters)
        word, sign = sym_key(_rand_word(letters, rng.randint(1, 5), rng))
        if word is None:
            continue
        cop = sym_coproduct(word)
        # cocommutativity
        swapped: dict = {}
        for (a, b), c in cop.items():
            s = -1 if ((word_deg(a) - len(a)) % 2 and (word_deg(b) - len(b)) % 2) else 1
            add_term(swapped, (b, a), s * c)
        if swapped != cop:
            bad = f"cocommutativity fails on {word}"
            break
        # coassociativity
        lhs: dict = {}
        for (a, b), c in cop.items():
            for (x, y), c2 in sym_coproduct(b).items():
                add_term(lhs, (a, x, y), c * c2)
        rhs: dict = {}
        for (a, b), c in cop.items():
            for (x, y), c2 in sym_coproduct(a).items():
                add_term(rhs, (x, y, b), c * c2)
        if lhs != rhs:
            bad = f"coassociativity fails on {word}"
            break
    results.append(("symco: coproduct cocommutative and coassociative", bad is None, bad))

    bad = None
    for _ in range(trials):
        lie = random_lie(rng)
        ell = ell_lift(lie)
        word, sign = sym_key(_rand_word(lie.letters, rng.randint(1, 4), rng))
        if word is None:
            continue
        if ell(ell({word: Fraction(1)})):
            bad = f"l.l != 0 on {word}"
            break
    results.append(("symco: lifted codifferential squares to zero", bad is None, bad))

    bad = None
    for _ in range(trials):
        lie = random_lie(rng)
        if lie.diff_table:
            continue
        deg_f = rng.randrange(2)
        table: dict = {}
        n = rng.randint(1, 2)
        for _ in range(4):
            word, sign = sym_key(_rand_word(lie.letters, n, rng))
            if word is None:
                continue
            table[word] = {rng.choice(lie.letters): Fraction(sign * rng.randint(-2, 2))}
        phi = lambda a: {a: Fraction(1)}
        F = lambda ls: _eval_sym(table, ls)
        dF = d_chevalley(F, deg_f, lie, lie, phi)
        ddF = d_chevalley(dF, deg_f + 1, lie, lie, phi)
        for _ in range(6):
            args = [rng.choice(lie.letters) for _ in range(n + 2)]
            if {k: v for k, v in ddF(args).items() if v}:
                bad = f"d_L^2 != 0 on {args}"
                break
        if bad:
            break
    results.append(("symco: Chevalley coboundary squares to zero", bad is None, bad))
    return results


def _eval_sym(table, letters):
    word, sign = sym_key(letters)
    if word is None:
        return {}
    val = table.get(word, {})
    return {k: sign * v for k, v in val.items()}


def suite_shuffle(seed: int, trials: int) -> list:
    rng = SplitMix64(seed)
    results = []
    quo = ShuffleQuotient()

    bad = None
    for _ in range(trials):
        basis = _basis_pair(rng)
        a = _rand_word(basis.letters, rng.randint(1, 3), rng)
        b = _rand_word(basis.letters, rng.randint(1, 3), rng)
        s = -1 if (word_deg(a) % 2 and word_deg(b) % 2) else 1
        lhs = bat(a, b)
        rhs = {k: s * v for k, v in bat(b, a).items()}
        if {k: v for k, v in lhs.items() if v} != {k: v for k, v in rhs.items() if v}:
            bad = f"commutativity fails on {a}, {b}"
            break
    results.append(("shuffle: graded commutativity of the shuffle product", bad is None, bad))

    bad = None
    for _ in range(trials):
        basis = _basis_pair(rng)
        a = _rand_word(basis.letters, rng.randint(1, 2), rng)
        b = _rand_word(basis.letters, rng.randint(1, 2), rng)
        c = _rand_word(basis.letters, rng.randint(1, 2), rng)
        tri = bat3(a, b, c)
        left = bat_elem(bat(a, b), {c: Fraction(1)})
        right = bat_elem({a: Fraction(1)}, bat(b, c))
        if not (tri == left == right):
            bad = f"associativity fails on {a}, {b}, {c}"
            break
    results.append(("shuffle: shuffle product associativity", bad is None, bad))

    bad = None
    for _ in range(trials):
        basis = _basis_pair(rng)
        a = _rand_word(basis.letters, rng.randint(1, 2), rng)
        b = _rand_word(basis.letters, rng.randint(1, 2), rng)
        if quo.reduce(bat(a, b)):
            bad = f"shuffle image does not vanish: {a}, {b}"
            break
        if delta_elem(bat(a, b), quo):
            bad = f"cocrochet of a shuffle image nonzero: {a}, {b}"
            break
    results.append(("shuffle: shuffle images vanish in the quotient", bad is None, bad))

    bad = None
    for _ in range(trials):
        basis = _basis_pair(rng)
        w = _rand_rep_packet(basis.letters, rng.randint(1, 4), rng, quo)
        if w is None:
            continue
        dl = delta(w, quo)
        # coantisymmetry
        sw: dict = {}
        for (a, b), c in dl.items():
            s = -1 if (word_deg(a) % 2 and word_deg(b) % 2) else 1
            add_term(sw, (b, a), s * c)
        neg = {k: -v for k, v in dl.items()}
        if sw != neg:
            bad = f"coantisymmetry fails on {w}"
            break
        # coJacobi
        trip: dict = {}
        for (a, b), c in dl.items():
            for (x, y), c2 in delta(a, quo).items():
                add_term(trip, (x, y, b), c * c2)
        acc = dict(trip)
        for (x, y, z), c in trip.items():
            dx, dy, dz = word_deg(x) % 2, word_deg(y) % 2, word_deg(z) % 2
            s = -1 if (dx and (dy + dz) % 2) else 1  # cycle to (y,z,x)
            add_term(acc, (y, z, x), s * c)
            s = -1 if (dz and (dx + dy) % 2) else 1  # cycle to (z,x,y)
            add_term(acc, (z, x, y), s * c)
        if {k: v for k, v in acc.items() if v}:
            bad = f"coJacobi fails on {w}"
            break
    results.append(("shuffle: cocrochet coantisymmetry and coJacobi", bad is None, bad))

    bad = None
    for _ in range(trials):
        alg = random_assoc_algebra(rng)
        if not alg.commutative:
            continue
        mufun = mu(alg, quo)
        letters = [shifted(a) for a in alg.letters]
        w = _rand_rep_packet(letters, rng.randint(1, 4), rng, quo)
        if w is None:
            continue
        out = mufun(w)
        again: dict = {}
        for w2, c in out.items():
            add_scaled(again, mufun(w2), c)
        if {k: v for k, v in again.items() if v}:
            bad = f"mu.mu != 0 on {w}"
            break
    results.append(("shuffle: quotient differential squares to zero", bad is None, bad))

    bad = None
    for _ in range(trials):
        alg = random_assoc_algebra(rng)
        if not alg.commutative or any(a.degree != 0 for a in alg.letters):
            continue
        module = Bimodule.regular(alg)
        letters = [shifted(a) for a in alg.letters]
        n = rng.randint(1, 2)
        table: dict = {}
        for ms_try in range(4):
            w = _rand_rep_packet(letters, n, rng, quo)
            if w is not None:
                table[w] = {rng.choice(alg.letters): Fraction(rng.randint(-2, 2))}
        dC = d_harrison(table, n + 1, alg, module, quo)
        # store the coboundary on every representative, then take d again
        from itertools import combinations_with_replacement
        table2: dict = {}
        for ms in combinations_with_replacement(sorted(letters), n + 1):
            for w in quo.representatives(ms):
                v = dC(w)
                if v:
                    table2[w] = v
        ddC = d_harrison(table2, n + 2, alg, module, quo)
        for _ in range(6):
            w = _rand_rep_packet(letters, n + 2, rng, quo)
            if w is None:
                continue
            if {k: v for k, v in ddC(w).items() if v}:
                bad = f"d_Ha^2 != 0 on {w}"
                break
        if bad:
            break
    results.append(("shuffle: Harrison coboundary squares to zero", bad is None, bad))
    return results


def suite_genv(seed: int, trials: int, corrupt=False) -> list:
    rng = SplitMix64(seed)
    results = []
    quo = ShuffleQuotient()

    def basis_for(trial):
        if corrupt:
            return _corrupt_sandbox(rng)
        return sandbox_gerstenhaber(rng) if trial % 2 else polyvec_basis(2)

    bad = None
    for t in range(trials):
        basis = basis_for(t)
        a = _rand_rep_packet(basis.letters, rng.randint(1, 3), rng, quo)
        b = _rand_rep_packet(basis.letters, rng.randint(1, 3), rng, quo)
        if a is None or b is None:
            continue
        s = -1 if (word_deg(a) % 2 and word_deg(b) % 2) else 1
        lhs = h_bracket(a, b, basis, quo)
        rhs = {k: -s * v for k, v in h_bracket(b, a, basis, quo).items()}
        if {k: v for k, v in lhs.items() if v} != {k: v for k, v in rhs.items() if v}:
            bad = f"antisymmetry fails on {a}, {b}"
            break
    results.append(("bracket extension: graded antisymmetry", bad is None, bad))

    bad = None
    for t in range(trials):
        basis = basis_for(t)
        words = []
        for _ in range(3):
            w = _rand_rep_packet(basis.letters, rng.randint(1, 2), rng, quo)
            if w is None:
                break
            words.append(w)
        if len(words) < 3:
            continue
        a, b, c = words
        da, db, dc = (word_deg(x) % 2 for x in words)
        acc: dict = {}
        s = -1 if (da and dc) else 1
        add_scaled(acc, h_bracket_elem(h_bracket(a, b, basis, quo), {c: Fraction(1)}, basis, quo), Fraction(s))
        s = -1 if (db and da) else 1
        add_scaled(acc, h_bracket_elem(h_bracket(b, c, basis, quo), {a: Fraction(1)}, basis, quo), Fraction(s))
        s = -1 if (dc and db) else 1
        add_scaled(acc, h_bracket_elem(h_bracket(c, a, basis, quo), {b: Fraction(1)}, basis, quo), Fraction(s))
        if {k: v for k, v in acc.items() if v}:
            bad = f"Jacobi fails on {a}, {b}, {c}"
            break
    results.append(("bracket extension: graded Jacobi", bad is None, bad))

    bad = None
    for t in range(trials):
        basis = basis_for(t)
        a = _rand_rep_packet(basis.letters, rng.randint(1, 3), rng, quo)
        b = _rand_rep_packet(basis.letters, rng.randint(1, 3), rng, quo)
        if a is None or b is None:
            continue
        lhs = h_mu_elem(h_bracket(a, b, basis, quo), basis, quo)
        rhs = h_bracket_elem(h_mu(a, basis, quo), {b: Fraction(1)}, basis, quo)
        s = -1 if word_deg(a) % 2 else 1
        add_scaled(rhs, h_bracket_elem({a: Fraction(1)}, h_mu(b, basis, quo), basis, quo), Fraction(s))
        if {k: v for k, v in lhs.items() if v} != {k: v for k, v in rhs.items() if v}:
            bad = f"differential-bracket compatibility fails on {a}, {b}"
            break
    results.append(("bracket extension: differential is a bracket derivation", bad is None, bad))

    bad = None
    for t in range(trials):
        basis = basis_for(t)
        p, q, r = (rng.randint(1, 2) for _ in range(3))
        a = _rand_word(basis.letters, p, rng)
        b = _rand_word(basis.letters, q, rng)
        c = _rand_word(basis.letters, r, rng)
        lhs: dict = {}
        for w, cf in bat(a, b).items():
            add_scaled(lhs, h_bracket_raw(w, c, basis), cf)
        rhs: dict = {}
        for w, cf in h_bracket_raw(b, c, basis).items():
            add_scaled(rhs, bat(a, w), cf)
        s = -1 if (word_deg(a) % 2 and word_deg(b) % 2) else 1
        for w, cf in h_bracket_raw(a, c, basis).items():
            add_scaled(rhs, bat(b, w), Fraction(s) * cf)
        if {k: v for k, v in lhs.items() if v} != {k: v for k, v in rhs.items() if v}:
            bad = f"compatibility with shuffles fails on {a}, {b}, {c}"
            break
    results.append(("bracket extension: compatibility with shuffle images", bad is None, bad))
    return results


def _corrupt_sandbox(rng) -> GerstBasis:
    """A sandbox with one bracket constant deliberately broken (no validation)."""
    basis = sandbox_gerstenhaber(rng)
    btab = dict(basis.bracket_table)
    letters = basis.letters
    gens = [a for a in letters if a.degree == 0]
    if len(gens) >= 2:
        a, b = gens[0], gens[1]
        tab = dict(btab.get((a.ident, b.ident), {}))
        tab[gens[0].ident] = tab.get(gens[0].ident, Fraction(0)) + 1
        btab[(a.ident, b.ident)] = tab
    out = GerstBasis(letters, basis.wedge_table, btab, name=basis.name + "*corrupt")
    return out


def suite_ginfty(seed: int, trials: int) -> list:
    rng = SplitMix64(seed)
    results = []
    quo = ShuffleQuotient()

    def rand_mono(basis, maxpack=3, maxlen=2):
        packs = []
        for _ in range(rng.randint(1, maxpack)):
            w = _rand_rep_packet(basis.letters, rng.randint(1, maxlen), rng, quo)
            if w is None:
                return None
            packs.append(w)
        key, _ = mono_key(packs)
        return key

    checks = {
        "ginfty: coJacobi of the cocrochet": None,
        "ginfty: coLeibniz of cocrochet and coproduct": None,
        "ginfty: product codifferential is a cocrochet coderivation": None,
        "ginfty: bracket codifferential is a cocrochet coderivation": None,
        "ginfty: master equation": None,
    }
    for t in range(trials):
        basis = sandbox_gerstenhaber(rng) if t % 2 else polyvec_basis(2)
        mono = rand_mono(basis)
        if mono is None:
            continue
        K = lambda m: kappa(m, quo)
        ell = lambda m: ell_on_packets(m, basis, quo)
        mm = lambda m: m_on_packets(m, basis, quo)

        trip: dict = {}
        for (a, b), c in K(mono).items():
            for (x, y), c2 in K(a).items():
                add_term(trip, (x, y, b), c * c2)
        acc = dict(trip)
        for (x, y, z), c in trip.items():
            dx, dy, dz = mono_deg(x) % 2, mono_deg(y) % 2, mono_deg(z) % 2
            s = -1 if (dx and (dy + dz) % 2) else 1
            add_term(acc, (y, z, x), s * c)
            s = -1 if (dz and (dx + dy) % 2) else 1
            add_term(acc, (z, x, y), s * c)
        if {k: v for k, v in acc.items() if v} and checks["ginfty: coJacobi of the cocrochet"] is None:
            checks["ginfty: coJacobi of the cocrochet"] = f"fails on {mono}"

        lhs: dict = {}
        for (a, b), c in K(mono).items():
            for (x, y), c2 in big_delta(b).items():
                add_term(lhs, (a, x, y), c * c2)
        rhs: dict = {}
        for (a, b), c in big_delta(mono).items():
            for (x, y), c2 in K(a).items():
                add_term(rhs, (x, y, b), c * c2)
        tmp: dict = {}
        for (a, b), c in big_delta(mono).items():
            s = -1 if mono_deg(a) % 2 else 1
            for (x, y), c2 in K(b).items():
                add_term(tmp, (a, x, y), s * c * c2)
        for (a, x, y), c in tmp.items():
            s = -1 if (mono_deg(a) % 2 and mono_deg(x) % 2) else 1
            add_term(rhs, (x, a, y), s * c)
        diff = dict(lhs)
        for k, v in rhs.items():
            add_term(diff, k, -v)
        if {k: v for k, v in diff.items() if v} and checks["ginfty: coLeibniz of cocrochet and coproduct"] is None:
            checks["ginfty: coLeibniz of cocrochet and coproduct"] = f"fails on {mono}"

        for name, op in (("ginfty: product codifferential is a cocrochet coderivation", mm),
                         ("ginfty: bracket codifferential is a cocrochet coderivation", ell)):
            lhs = pair_apply_left(op, K(mono))
            for k, v in pair_apply_right(op, 1, K(mono)).items():
                add_term(lhs, k, v)
            rhs: dict = {}
            for m2, c in op(mono).items():
                for pr, c2 in K(m2).items():
                    add_term(rhs, pr, -c * c2)
            diff = dict(lhs)
            for k, v in rhs.items():
                add_term(diff, k, -v)
            if {k: v for k, v in diff.items() if v} and checks[name] is None:
                checks[name] = f"fails on {mono}"

        sq: dict = {}
        for m2, c in lm_on_packets(mono, basis, quo).items():
            for m3, c2 in lm_on_packets(m2, basis, quo).items():
                add_term(sq, m3, c * c2)
        if {k: v for k, v in sq.items() if v} and checks["ginfty: master equation"] is None:
            checks["ginfty: master equation"] = f"fails on {mono}"

    for name, bad in checks.items():
        results.append((name, bad is None, bad))
    return results


def suite_chcoh(seed: int, trials: int) -> list:
    from .chcoh import (ChContext, Cochain, Truncation, d_ch, is_cocycle,
                        level_shapes, monomials_for_shape, real_target)

    rng = SplitMix64(seed)
    results = []
    trunc = Truncation(2, 1, 4, 4)

    bad = None
    for t in range(max(1, trials // 10)):
        src = sandbox_gerstenhaber(rng) if t % 2 else polyvec_basis(2, 1)
        tgt = real_target()
        one = tgt.letters[0]
        f1 = {a: {one: Fraction(1)} for a in src.letters if a.degree == -1}
        ctx = ChContext(src, tgt, f1)
        vals = {}
        for shape in level_shapes(2, 3):
            for mono in monomials_for_shape(ctx, shape):
                if rng.randrange(3) == 0:
                    vals[mono] = {one: Fraction(rng.randint(-2, 2))}
        dg = d_ch(Cochain(vals, 2), ctx, trunc)
        ok, where = is_cocycle(dg, ctx, trunc, report=True)
        if not ok:
            bad = f"d_CH^2 != 0 at {where}"
            break
    results.append(("chcoh: combined coboundary squares to zero", bad is None, bad))
    return results


SUITES = {
    "tensorco": suite_tensorco,
    "symco": suite_symco,
    "shuffle": suite_shuffle,
    "genv": suite_genv,
    "ginfty": suite_ginfty,
    "chcoh": suite_chcoh,
}


def run_suites(names, seed: int, trials: int, corrupt=False) -> list:
    out = []
    for name in names:
        fn = SUITES[name]
        if name == "genv":
            out.extend(fn(seed, trials, corrupt=corrupt))
        else:
            out.extend(fn(seed, trials))
    return out
