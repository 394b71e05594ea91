"""Randomized verification suites for the structural identities.

Each suite runs seeded trials of the exact identities its module is built on
and returns (name, passed, counterexample) triples; the command line driver
prints them and the test suite asserts them.  A trial is a seeded draw and,
where the identity is one of the shared graded identities, one call of its
``tensorco`` residual.  All randomness flows through the package generator,
so a seed fixes every trial.
"""

from __future__ import annotations

from .genv import (GerstBasis, h_bracket, h_bracket_raw, h_mu, polyvec_basis,
                   sandbox_gerstenhaber)
from .ginfty import (big_delta, kappa, ell_on_packets, lm_on_packets,
                     m_on_packets, mono_deg, mono_key)
from .graded import Letter, shifted, word_deg
from .prng import SplitMix64
from .shuffleco import (ShuffleQuotient, bat, bat3, bat_elem, delta,
                        delta_elem, d_harrison, mu)
from .symco import LieData, d_chevalley, ell_lift, sym_coproduct, sym_key
from .tensorco import (ONE, FiniteAlgebra, add_scaled, add_term,
                       associativity, coassociativity, coderivation, cojacobi,
                       cosymmetry, d_hochschild, deconcat, derivation, extend,
                       jacobi, m_differential, square_zero, symmetry)

Result = tuple  # (name, bool, str)


def _rand_word(letters, n, rng):
    return tuple(rng.choice(letters) for _ in range(n))


def _rand_rep_packet(letters, n, rng, quo):
    red = quo.reduce_word(_rand_word(letters, n, rng))
    if not red:
        return None
    return rng.choice(sorted(red))


def _basis_pair(rng, pv: GerstBasis) -> GerstBasis:
    """A source of letters: a fresh sandbox or the given polyvector basis, by
    a coin flip."""
    if rng.randrange(2):
        return sandbox_gerstenhaber(rng)
    return pv


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
                    prod[(("p", i), ("p", j))] = {("p", i + j): 1}
        return FiniteAlgebra(ls, prod, commutative=True)
    if kind == 1:
        # exterior algebra on one odd generator
        one, th = Letter(("e", 0), 0), Letter(("e", 1), 1)
        prod = {
            (one.ident, one.ident): {one.ident: 1},
            (one.ident, th.ident): {th.ident: 1},
            (th.ident, one.ident): {th.ident: 1},
        }
        return FiniteAlgebra([one, th], prod, commutative=True)
    if kind == 2:
        # dual numbers: unit and a square-zero generator
        one, x = Letter(("d", 0), 0), Letter(("d", 1), 0)
        prod = {
            (one.ident, one.ident): {one.ident: 1},
            (one.ident, x.ident): {x.ident: 1},
            (x.ident, one.ident): {x.ident: 1},
        }
        return FiniteAlgebra([one, x], prod, commutative=True)
    # strictly upper triangular 2x2 style: x*y = z, all else 0 (noncommutative ok)
    x, y, z = (Letter(("n", i), 0) for i in range(3))
    prod = {(x.ident, y.ident): {z.ident: 1}}
    return FiniteAlgebra([x, y, z], prod)


def random_lie(rng) -> LieData:
    kind = rng.randrange(5)
    if kind == 0:
        ls = [Letter(("l", 1), 0), Letter(("l", 2), 0)]
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        br = {(("l", 1), ("l", 2)): {("l", 1): a, ("l", 2): b},
              (("l", 2), ("l", 1)): {("l", 1): -a, ("l", 2): -b}}
        return LieData(ls, br)
    if kind == 1:
        # Heisenberg
        ls = [Letter(("l", i), 0) for i in (1, 2, 3)]
        c = rng.randint(1, 2)
        br = {(("l", 1), ("l", 2)): {("l", 3): c},
              (("l", 2), ("l", 1)): {("l", 3): -c}}
        return LieData(ls, br)
    if kind == 2:
        # graded abelian with differential d(u) = v
        u, v = Letter(("l", "u"), 0), Letter(("l", "v"), 1)
        return LieData([u, v], {}, diff={("l", "u"): {("l", "v"): 1}})
    if kind == 3:
        # odd generator with [v,v] = w, w central (graded Heisenberg)
        v, w = Letter(("l", "v"), 1), Letter(("l", "w"), 2)
        br = {(("l", "v"), ("l", "v")): {("l", "w"): 2}}
        return LieData([v, w], br)
    ls = [Letter(("l", i), 0) for i in (1, 2)]
    return LieData(ls, {})


# ---------------------------------------------------------------------------
# suites

def _check(name: str, trials: int, trial) -> Result:
    """Run ``trial(t)`` for t = 0, 1, ..., trials - 1 and stop at the first
    counterexample it returns: (name, False, counterexample), else
    (name, True, None).  A trial returns None when it passes or is skipped."""
    for t in range(trials):
        bad = trial(t)
        if bad is not None:
            return name, False, bad
    return name, True, None


def suite_tensorco(seed: int, trials: int) -> list:
    rng = SplitMix64(seed)
    results = []

    def coassociative(_):
        alg = random_assoc_algebra(rng)
        letters = [shifted(a) for a in alg.letters]
        w = _rand_word(letters, rng.randint(1, 5), rng)
        if coassociativity(deconcat, w):
            return f"coassociativity fails on {w}"
    results.append(_check("tensorco: deconcatenation coassociative", trials,
                           coassociative))

    def square_zero_coderivation(_):
        alg = random_assoc_algebra(rng)
        mdiff = m_differential(alg)
        letters = [shifted(a) for a in alg.letters]
        w = _rand_word(letters, rng.randint(1, 5), rng)
        m = lambda u: mdiff({u: ONE})
        if coderivation(m, 1, deconcat, 0, word_deg, w):
            return f"coderivation law fails on {w}"
        if square_zero(m, w):
            return f"m.m != 0 on {w}"
    results.append(_check("tensorco: m is a square-zero coderivation", trials,
                           square_zero_coderivation))

    def hochschild_squares_to_zero(_):
        alg = random_assoc_algebra(rng)
        letters = [shifted(a) for a in alg.letters]
        arity = rng.randint(1, 3)
        table: dict = {}
        for _ in range(4):
            w = _rand_word(letters, arity, rng)
            table[w] = {rng.choice(alg.letters): rng.randint(-2, 2)}
        C = lambda word: table.get(word, {})
        dC = d_hochschild(C, arity + 1, alg)
        ddC = d_hochschild(dC, arity + 2, alg, value_parity=1)
        for _ in range(6):
            w = _rand_word(letters, arity + 2, rng)
            if ddC(w):
                return f"d_H^2 != 0 on {w}"
    results.append(_check("tensorco: Hochschild coboundary squares to zero", trials,
                           hochschild_squares_to_zero))
    return results


def suite_symco(seed: int, trials: int) -> list:
    rng = SplitMix64(seed)
    results = []

    def coproduct(_):
        lie = random_lie(rng)
        letters = list(lie.letters)
        word, sign = sym_key(_rand_word(letters, rng.randint(1, 5), rng))
        if word is None:
            return None
        if cosymmetry(sym_coproduct, lambda w: word_deg(w) - len(w), word):
            return f"cocommutativity fails on {word}"
        if coassociativity(sym_coproduct, word):
            return f"coassociativity fails on {word}"
    results.append(_check("symco: coproduct cocommutative and coassociative", trials,
                           coproduct))

    def codifferential(_):
        lie = random_lie(rng)
        ell = ell_lift(lie)
        word, sign = sym_key(_rand_word(lie.letters, rng.randint(1, 4), rng))
        if word is None:
            return None
        if square_zero(lambda u: ell({u: ONE}), word):
            return f"l.l != 0 on {word}"
    results.append(_check("symco: lifted codifferential squares to zero", trials,
                           codifferential))

    def chevalley_squares_to_zero(_):
        lie = random_lie(rng)
        if lie.diff_table:
            return None
        deg_f = rng.randrange(2)
        table: dict = {}
        n = rng.randint(1, 2)
        for _ in range(4):
            word, sign = sym_key(_rand_word(lie.letters, n, rng))
            if word is None:
                continue
            table[word] = {rng.choice(lie.letters): sign * rng.randint(-2, 2)}
        phi = lambda a: {a: 1}
        F = lambda ls: _eval_sym(table, ls)
        dF = d_chevalley(F, deg_f, lie, lie, phi)
        ddF = d_chevalley(dF, deg_f + 1, lie, lie, phi)
        for _ in range(6):
            args = [rng.choice(lie.letters) for _ in range(n + 2)]
            if ddF(args):
                return f"d_L^2 != 0 on {args}"
    results.append(_check("symco: Chevalley coboundary squares to zero", trials,
                           chevalley_squares_to_zero))
    return results


def _eval_sym(table, letters):
    word, sign = sym_key(letters)
    if word is None:
        return {}
    val = table.get(word, {})
    return {k: sign * v for k, v in val.items()}


def suite_shuffle(seed: int, trials: int, pv: GerstBasis) -> list:
    rng = SplitMix64(seed)
    results = []
    quo = ShuffleQuotient()

    def commutative(_):
        basis = _basis_pair(rng, pv)
        a = _rand_word(basis.letters, rng.randint(1, 3), rng)
        b = _rand_word(basis.letters, rng.randint(1, 3), rng)
        if symmetry(bat, word_deg, a, b):
            return f"commutativity fails on {a}, {b}"
    results.append(_check("shuffle: graded commutativity of the shuffle product", trials,
                           commutative))

    def associative(_):
        basis = _basis_pair(rng, pv)
        a = _rand_word(basis.letters, rng.randint(1, 2), rng)
        b = _rand_word(basis.letters, rng.randint(1, 2), rng)
        c = _rand_word(basis.letters, rng.randint(1, 2), rng)
        if (associativity(bat, a, b, c)
                or bat3(a, b, c) != bat_elem(bat(a, b), {c: ONE})):
            return f"associativity fails on {a}, {b}, {c}"
    results.append(_check("shuffle: shuffle product associativity", trials,
                           associative))

    def images_vanish(_):
        basis = _basis_pair(rng, pv)
        a = _rand_word(basis.letters, rng.randint(1, 2), rng)
        b = _rand_word(basis.letters, rng.randint(1, 2), rng)
        if quo.reduce(bat(a, b)):
            return f"shuffle image does not vanish: {a}, {b}"
        if delta_elem(bat(a, b), quo):
            return f"cocrochet of a shuffle image nonzero: {a}, {b}"
    results.append(_check("shuffle: shuffle images vanish in the quotient", trials,
                           images_vanish))

    def cocrochet(_):
        basis = _basis_pair(rng, pv)
        w = _rand_rep_packet(basis.letters, rng.randint(1, 4), rng, quo)
        if w is None:
            return None
        dl = lambda u: delta(u, quo)
        if cosymmetry(dl, word_deg, w, -1):
            return f"coantisymmetry fails on {w}"
        if cojacobi(dl, word_deg, w):
            return f"coJacobi fails on {w}"
    results.append(_check("shuffle: cocrochet coantisymmetry and coJacobi", trials,
                           cocrochet))

    def mu_squares_to_zero(_):
        alg = random_assoc_algebra(rng)
        if not alg.commutative:
            return None
        mufun = mu(alg, quo)
        letters = [shifted(a) for a in alg.letters]
        w = _rand_rep_packet(letters, rng.randint(1, 4), rng, quo)
        if w is None:
            return None
        if square_zero(mufun, w):
            return f"mu.mu != 0 on {w}"
    results.append(_check("shuffle: quotient differential squares to zero", trials,
                           mu_squares_to_zero))

    def harrison_squares_to_zero(_):
        alg = random_assoc_algebra(rng)
        if not alg.commutative or any(a.degree != 0 for a in alg.letters):
            return None
        letters = [shifted(a) for a in alg.letters]
        n = rng.randint(1, 2)
        table: dict = {}
        for ms_try in range(4):
            w = _rand_rep_packet(letters, n, rng, quo)
            if w is not None:
                table[w] = {rng.choice(alg.letters): rng.randint(-2, 2)}
        dC = d_harrison(table, n + 1, alg, quo)
        # store the coboundary on every representative, then take d again
        table2: dict = {}
        for w in quo.rep_words(letters, n + 1):
            v = dC(w)
            if v:
                table2[w] = v
        ddC = d_harrison(table2, n + 2, alg, quo)
        for _ in range(6):
            w = _rand_rep_packet(letters, n + 2, rng, quo)
            if w is None:
                continue
            if ddC(w):
                return f"d_Ha^2 != 0 on {w}"
    results.append(_check("shuffle: Harrison coboundary squares to zero", trials,
                           harrison_squares_to_zero))
    return results


def suite_genv(seed: int, trials: int, pv: GerstBasis, corrupt=False) -> list:
    rng = SplitMix64(seed)
    results = []
    quo = ShuffleQuotient()

    def basis_for(trial):
        if corrupt:
            return _corrupt_sandbox(rng)
        return sandbox_gerstenhaber(rng) if trial % 2 else pv

    def antisymmetric(t):
        basis = basis_for(t)
        a = _rand_rep_packet(basis.letters, rng.randint(1, 3), rng, quo)
        b = _rand_rep_packet(basis.letters, rng.randint(1, 3), rng, quo)
        if a is None or b is None:
            return None
        if symmetry(lambda x, y: h_bracket(x, y, basis, quo), word_deg, a, b, -1):
            return f"antisymmetry fails on {a}, {b}"
    results.append(_check("bracket extension: graded antisymmetry", trials,
                           antisymmetric))

    def jacobi_identity(t):
        basis = basis_for(t)
        words = []
        for _ in range(3):
            w = _rand_rep_packet(basis.letters, rng.randint(1, 2), rng, quo)
            if w is None:
                break
            words.append(w)
        if len(words) < 3:
            return None
        a, b, c = words
        if jacobi(lambda x, y: h_bracket(x, y, basis, quo), word_deg, a, b, c):
            return f"Jacobi fails on {a}, {b}, {c}"
    results.append(_check("bracket extension: graded Jacobi", trials,
                           jacobi_identity))

    def bracket_derivation(t):
        basis = basis_for(t)
        a = _rand_rep_packet(basis.letters, rng.randint(1, 3), rng, quo)
        b = _rand_rep_packet(basis.letters, rng.randint(1, 3), rng, quo)
        if a is None or b is None:
            return None
        if derivation(lambda w: h_mu(w, basis, quo), 1,
                      lambda x, y: h_bracket(x, y, basis, quo), word_deg, a, b):
            return f"differential-bracket compatibility fails on {a}, {b}"
    results.append(_check("bracket extension: differential is a bracket derivation",
                           trials, bracket_derivation))

    def shuffle_compatible(t):
        basis = basis_for(t)
        p, q, r = (rng.randint(1, 2) for _ in range(3))
        a = _rand_word(basis.letters, p, rng)
        b = _rand_word(basis.letters, q, rng)
        c = _rand_word(basis.letters, r, rng)
        br = lambda x, y: h_bracket_raw(x, y, basis)
        lhs = extend(br, bat(a, b), {c: ONE})
        rhs = extend(bat, {a: ONE}, br(b, c))
        s = -1 if (word_deg(a) % 2 and word_deg(b) % 2) else 1
        add_scaled(rhs, extend(bat, {b: ONE}, br(a, c)), s)
        if lhs != rhs:
            return f"compatibility with shuffles fails on {a}, {b}, {c}"
    results.append(_check("bracket extension: compatibility with shuffle images",
                           trials, shuffle_compatible))
    return results


def _corrupt_sandbox(rng) -> GerstBasis:
    """A sandbox with one bracket constant deliberately broken (no validation):
    1 added to the coefficient of e_1 in [e_1, e_2]."""
    basis = sandbox_gerstenhaber(rng)
    a, b = [x.ident for x in basis.letters if x.degree == 0][:2]
    broken = dict(basis.bracket_op(a, b))
    broken[a] = broken.get(a, 0) + 1

    def bracket(i, j):
        return broken if (i, j) == (a, b) else basis.bracket_op(i, j)

    return GerstBasis(basis.letters, basis.wedge_op, bracket,
                      name=basis.name + "*corrupt")


def suite_ginfty(seed: int, trials: int, pv: GerstBasis) -> list:
    rng = SplitMix64(seed)
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

    # the five checks read the same (basis, monomial) draws, drawn in trial order
    draws = []
    for t in range(trials):
        basis = sandbox_gerstenhaber(rng) if t % 2 else pv
        draws.append((basis, rand_mono(basis)))
    K = lambda m: kappa(m, quo)

    def check(name, residual):
        def trial(t):
            basis, mono = draws[t]
            if mono is not None and residual(basis, mono):
                return f"fails on {mono}"
        return _check(name, trials, trial)

    def coleibniz(basis, mono):
        # (id (x) Delta) K - (K (x) id) Delta - (tau (x) id)(id (x) K) Delta on
        # key triples: id (x) K passes a with (-1)^a, tau swaps a, x with (-1)^(ax)
        out: dict = {}
        for (a, b), c in K(mono).items():
            for (x, y), c2 in big_delta(b).items():
                add_term(out, (a, x, y), c * c2)
        for (a, b), c in big_delta(mono).items():
            for (x, y), c2 in K(a).items():
                add_term(out, (x, y, b), -c * c2)
            for (x, y), c2 in K(b).items():
                add_term(out, (x, a, y),
                         c * c2 if mono_deg(a) * (mono_deg(x) + 1) % 2 else -c * c2)
        return out

    def coderivation_of(lift):
        return lambda basis, mono: coderivation(
            lambda m: lift(m, basis, quo), 1, K, 1, mono_deg, mono)

    return [
        check("ginfty: coJacobi of the cocrochet",
              lambda basis, mono: cojacobi(K, mono_deg, mono)),
        check("ginfty: coLeibniz of cocrochet and coproduct", coleibniz),
        check("ginfty: product codifferential is a cocrochet coderivation",
              coderivation_of(m_on_packets)),
        check("ginfty: bracket codifferential is a cocrochet coderivation",
              coderivation_of(ell_on_packets)),
        check("ginfty: master equation", lambda basis, mono: square_zero(
            lambda m: lm_on_packets(m, basis, quo), mono)),
    ]


def suite_chcoh(seed: int, trials: int) -> list:
    from .chcoh import (Cochain, Truncation, constants_context, d_ch, level_shapes,
                        monomials_for_shape)

    rng = SplitMix64(seed)
    results = []
    trunc = Truncation(2, 1, 4, 4)
    pv = polyvec_basis(2, 1)

    def squares_to_zero(t):
        src = sandbox_gerstenhaber(rng) if t % 2 else pv
        ctx = constants_context(src)
        one = ctx.target.letters[0]
        vals = {}
        for shape in level_shapes(2, 3):
            for mono in monomials_for_shape(ctx, shape):
                if rng.randrange(3) == 0:
                    vals[mono] = {one: rng.randint(-2, 2)}
        ddg = d_ch(d_ch(Cochain(vals, 2), ctx, trunc), ctx, trunc)
        if not ddg.is_zero():
            return f"d_CH^2 != 0 at {next(iter(ddg.values))}"
    results.append(_check("chcoh: combined coboundary squares to zero",
                           max(1, trials // 10), squares_to_zero))
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
    pv = polyvec_basis(2)  # built once per run, shared by the suites drawing on it
    out = []
    for name in names:
        fn = SUITES[name]
        if name == "genv":
            out.extend(fn(seed, trials, pv, corrupt=corrupt))
        elif name in ("shuffle", "ginfty"):
            out.extend(fn(seed, trials, pv))
        else:
            out.extend(fn(seed, trials))
    return out
