"""The structure validators against their former Letter-keyed bodies.

``GerstBasis.validate`` runs the shared residuals on letter idents over
its two ident ops (here ``int_view``s of tables), ``FiniteAlgebra._validate``
and ``LieData._validate`` over ``int_view``s of their tables.  The oracles below are the earlier bodies,
kept as they were: the same residuals on ``Letter`` keys through the public
``wedge``/``bracket``/``unshifted``/``mul_letters``/``bracket_letters``/
``d_letter`` lookups, in Fraction arithmetic.  Both must accept and reject the same
tables with the same message, on valid structures and on mutants that change
one constant, or one constant together with its graded-(anti)symmetric
partner so that the later pair and triple checks are reached.
"""

import copy
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerstenhaber import genv
from gerstenhaber.genv import GerstBasis, polyvec_basis, sandbox_gerstenhaber
from gerstenhaber.graded import Letter
from gerstenhaber.prng import SplitMix64
from gerstenhaber.suites import random_assoc_algebra, random_lie
from gerstenhaber.symco import LieData
from gerstenhaber.tensorco import (add_scaled, add_term, associativity,
                                   derivation, int_view, jacobi, square_zero,
                                   symmetry)


# ---------------------------------------------------------------------------
# oracles: the former validator bodies

def gerst_oracle(self):
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


def algebra_oracle(self):
    for a in self.letters:
        for b in self.letters:
            for c, coeff in self.mul_letters(a, b).items():
                if coeff and c.degree != a.degree + b.degree:
                    raise ValueError(
                        f"product not degree 0: {a.ident}*{b.ident} -> {c.ident}"
                    )
    deg = lambda x: x.degree
    for a in self.letters:
        for b in self.letters:
            if self.commutative and symmetry(self.mul_letters, deg, a, b):
                raise ValueError(
                    f"not graded commutative on {a.ident},{b.ident}"
                )
            for c in self.letters:
                if associativity(self.mul_letters, a, b, c):
                    raise ValueError(
                        f"not associative on {a.ident},{b.ident},{c.ident}"
                    )


def lie_oracle(self):
    deg = lambda x: x.degree
    for a in self.letters:
        for b in self.letters:
            for c, coeff in self.bracket_letters(a, b).items():
                if coeff and c.degree != a.degree + b.degree:
                    raise ValueError("bracket not degree 0")
            if symmetry(self.bracket_letters, deg, a, b, -1):
                raise ValueError(f"bracket not antisymmetric on {a.ident},{b.ident}")
    for a in self.letters:
        for b in self.letters:
            for c in self.letters:
                if jacobi(self.bracket_letters, deg, a, b, c):
                    raise ValueError(f"Jacobi fails on {a.ident},{b.ident},{c.ident}")
    if self.diff_table:
        for a in self.letters:
            for c, coeff in self.d_letter(a).items():
                if coeff and c.degree != a.degree + 1:
                    raise ValueError("differential not degree 1")
            if square_zero(self.d_letter, a):
                raise ValueError("differential does not square to zero")
        for a in self.letters:
            for b in self.letters:
                if derivation(self.d_letter, 1, self.bracket_letters, deg, a, b):
                    raise ValueError("differential not a bracket derivation")


# ---------------------------------------------------------------------------
# mutants

def verdict(check):
    """None if ``check()`` accepts, else the message of its ValueError."""
    try:
        check()
    except ValueError as exc:
        return str(exc)
    return None


def _set(table, key, changes):
    val = dict(table.get(key, {}))
    for i, value in changes.items():
        if value:
            val[i] = value
        else:
            val.pop(i, None)
    table[key] = val


def mutants(table, idents, deg=None, sign=None):
    """Copies of ``table`` with one constant c at ident i replaced by c + 1,
    -c, 0 or c / 2, or moved to the ident after i in ``idents`` (which
    changes its degree).  Given ``deg`` (ident -> degree) and ``sign``, also
    the copies in which the constants at (j, i) follow those at (i, j) under
    op(j, i) = sign (-1)^(ij) op(i, j), so the symmetry check still holds."""
    after = dict(zip(idents, idents[1:] + idents[:1]))
    for key, val in table.items():
        for i, c in val.items():
            moved = {i: 0, after[i]: val.get(after[i], 0) + c}
            for changes in ({i: c + 1}, {i: -c}, {i: 0}, {i: c / 2}, moved):
                out = dict(table)
                _set(out, key, changes)
                yield out
                if deg is None or key[0] == key[1]:
                    continue
                s = -sign if deg[key[0]] * deg[key[1]] % 2 else sign
                partner = table.get(key[::-1], {})
                out = dict(out)
                _set(out, key[::-1], {j: partner.get(j, 0) + s * (v - val.get(j, 0))
                                      for j, v in changes.items()})
                yield out


def sandboxes(seed, n):
    rng = SplitMix64(seed)
    return [sandbox_gerstenhaber(rng) for _ in range(n)]


def halved(basis):
    """The same wedge, every bracket constant halved: still a Gerstenhaber
    algebra (each axiom is homogeneous in the bracket), with non-integral
    constants."""
    btab = {k: {i: c / 2 for i, c in v.items()} for k, v in basis.bracket_table.items()}
    return GerstBasis(basis.letters, int_view(basis.wedge_table), int_view(btab),
                      name=basis.name + "/2")


def gerst_cases():
    bases = [polyvec_basis(2)] + sandboxes(11, 8)
    return bases + [halved(b) for b in bases[1:] if b.bracket_table]


def check_gerst(basis, verdicts):
    idents = [a.ident for a in basis.letters]
    udeg = {a.ident: a.degree + 1 for a in basis.letters}
    sdeg = {a.ident: a.degree for a in basis.letters}
    wts = mutants(basis.wedge_table, idents, udeg, 1)
    bts = mutants(basis.bracket_table, idents, sdeg, -1)
    cases = [(wt, basis.bracket_table) for wt in wts]
    cases += [(basis.wedge_table, bt) for bt in bts]
    for wt, bt in cases:
        mutant = GerstBasis(basis.letters, int_view(wt), int_view(bt))
        want = verdict(lambda: gerst_oracle(mutant))
        assert verdict(mutant.validate) == want
        verdicts[want] += 1


def test_valid_structures_are_accepted_by_both():
    for basis in gerst_cases():
        assert verdict(lambda: gerst_oracle(basis)) is None
        assert basis.validate() is basis
    rng = SplitMix64(5)
    for _ in range(20):
        alg, lie = random_assoc_algebra(rng), random_lie(rng)
        assert verdict(lambda: algebra_oracle(alg)) is None
        assert verdict(lambda: lie_oracle(lie)) is None


def test_halved_sandboxes_run_the_fraction_branch_of_the_view():
    fractional = 0
    for basis in gerst_cases():
        if not basis.name.endswith("/2"):
            continue
        view = int_view(basis.bracket_table)
        values = [c for a in basis.letters for b in basis.letters
                  for c in view(a.ident, b.ident).values()]
        fractional += any(type(c) is Fraction for c in values)
        assert basis.validate() is basis
    assert fractional >= 3


PAIR_AND_TRIPLE_MESSAGES = ("wedge not graded commutative",
                            "bracket not graded antisymmetric",
                            "wedge not associative", "Leibniz axiom fails",
                            "graded Jacobi fails")


def test_gerst_basis_mutants_get_the_oracle_verdicts():
    verdicts = Counter()
    for basis in gerst_cases():
        check_gerst(basis, verdicts)
    # both verdicts occur, and the partner mutants reach the triple checks
    assert verdicts[None] > 50 and verdicts.total() - verdicts[None] > 1000
    for message in PAIR_AND_TRIPLE_MESSAGES:
        assert verdicts[message], message


def table_basis(degrees, wedge, bracket):
    """A GerstBasis on letters ident -> shifted degree, from ident-pair
    tables of int constants."""
    letters = [Letter(i, k) for i, k in degrees.items()]
    return GerstBasis(letters, int_view(wedge), int_view(bracket))


def repeated_argument_cases():
    """Algebras whose first failing residual, in the oracle's loop order,
    has a repeated argument.  Each passes the pair checks."""
    # Jacobi: [a, a] = c, [c, a] = d, [a, c] = -d, zero wedge.  The
    # Jacobiator vanishes on every triple but (a, a, a).
    jac = table_basis({"a": 1, "c": 2, "d": 3}, {},
                      {("a", "a"): {"c": 1}, ("c", "a"): {"d": 1},
                       ("a", "c"): {"d": -1}})
    # Leibniz: b of even unshifted degree with b ^ b = w, [a, w] = t,
    # [a, b] = 0, every other wedge and bracket zero.  [a, .] fails the
    # Leibniz rule on (b, b) only.
    leib = table_basis({"a": 0, "b": -1, "t": -1, "w": -1},
                       {("b", "b"): {"w": 1}},
                       {("a", "w"): {"t": 1}, ("w", "a"): {"t": -1}})
    # Associativity: p odd, p ^ q = q ^ p = r, p ^ r = s = -(r ^ p).  It
    # fails on (p, q, p), but a graded commutative wedge gives
    # assoc(p, q, p) = 2 (-1)^|q| assoc(q, p, p) = 2 (-1)^|q| assoc(p, p, q),
    # and one of those two comes first: no algebra that passes the pair
    # checks fails associativity first on an x = z triple.
    assoc = table_basis({"p": 0, "q": -1, "r": 0, "s": 1},
                        {("p", "q"): {"r": 1}, ("q", "p"): {"r": 1},
                         ("p", "r"): {"s": 1}, ("r", "p"): {"s": -1}}, {})
    return [pytest.param(jac, "graded Jacobi fails", ("a", "a", "a"), id="jacobi"),
            pytest.param(leib, "Leibniz axiom fails", ("a", "b", "b"), id="leibniz"),
            pytest.param(assoc, "wedge not associative", ("p", "p", "q"),
                         id="associativity")]


def first_failing_triple(basis, message):
    """The first ordered triple on which the oracle's triple check named by
    ``message`` fails."""
    L = basis.letters
    wedge, bracket, shifted = basis.wedge, basis.bracket, (lambda x: x.degree)
    residual = {
        "wedge not associative": lambda a, b, c: associativity(wedge, a, b, c),
        "Leibniz axiom fails": lambda a, b, c: derivation(
            partial(bracket, a), a.degree, wedge, basis.unshifted, b, c),
        "graded Jacobi fails": lambda a, b, c: jacobi(bracket, shifted, a, b, c),
    }[message]
    return next((a.ident, b.ident, c.ident) for a in L for b in L for c in L
                if residual(a, b, c))


@pytest.mark.parametrize("basis, message, triple", repeated_argument_cases())
def test_failures_on_a_repeated_argument_get_the_oracle_verdicts(basis, message, triple):
    """``validate`` checks the orbit representatives with repeated
    arguments too: Jacobi on x <= y <= z, Leibniz on y <= z.  The
    associativity case fails first on (p, p, q), not on (p, q, p)."""
    assert verdict(lambda: gerst_oracle(basis)) == message
    assert verdict(basis.validate) == message
    assert first_failing_triple(basis, message) == triple


def test_validate_checks_each_residual_once_per_orbit(monkeypatch):
    """On an 8-letter sandbox: symmetry on the 36 pairs x <= y for each op,
    associativity on x < z (8 * 28 triples), Leibniz on y <= z (8 * 36),
    Jacobi on the 120 triples x <= y <= z."""
    basis = next(b for b in sandboxes(11, 8) if len(b.letters) == 8)
    genv._validated.clear()
    calls = Counter()
    for name in ("symmetry", "associativity", "derivation", "jacobi"):
        monkeypatch.setattr(genv, name, lambda *a, _f=getattr(genv, name), _n=name, **k:
                            calls.update([_n]) or _f(*a, **k))
    assert basis.validate() is basis
    assert calls == {"symmetry": 72, "associativity": 224, "derivation": 288,
                     "jacobi": 120}


def count_residual_calls(monkeypatch) -> Counter:
    """A Counter of the residual calls ``validate`` makes from now on."""
    calls = Counter()
    for name in ("symmetry", "associativity", "derivation", "jacobi"):
        monkeypatch.setattr(genv, name, lambda *a, _f=getattr(genv, name), _n=name, **k:
                            calls.update([_n]) or _f(*a, **k))
    return calls


def full_check(n: int) -> Counter:
    """The residual calls of a passing check on n letters (see above)."""
    return Counter({"symmetry": n * (n + 1), "associativity": n * n * (n - 1) // 2,
                    "derivation": n * n * (n + 1) // 2,
                    "jacobi": n * (n + 1) * (n + 2) // 6})


HEISENBERG = {(1, 2): {3: 2}, (2, 1): {3: -2}}


def test_equal_constants_are_checked_once_per_process(monkeypatch):
    """The first check of a structure runs every residual; a second
    ``validate`` of the same basis, a fresh ``exterior_of_lie`` of the same
    table and a table-given basis with equal (Fraction) constants run
    none.  Another table is checked in full."""
    genv._validated.clear()
    calls = count_residual_calls(monkeypatch)
    basis = genv.exterior_of_lie(3, HEISENBERG)
    assert calls == full_check(8)
    calls.clear()
    assert basis.validate() is basis
    again = genv.exterior_of_lie(3, dict(HEISENBERG))
    tables = GerstBasis(basis.letters, int_view(basis.wedge_table),
                        int_view(basis.bracket_table))
    assert tables.validate() is tables
    assert again is not basis and not calls
    assert len(genv._validated) == 1
    other = genv.exterior_of_lie(3, {(1, 2): {3: 1}, (2, 1): {3: -1}})
    assert calls == full_check(8) and other._constants() != basis._constants()
    assert len(genv._validated) == 2


def test_one_constant_off_a_stored_structure_gets_the_oracle_verdict(monkeypatch):
    """Each mutant of a stored sandbox differs from it in one constant (or
    in one and its graded-symmetric partner): it is not a store hit, so it
    is checked in full and gets the oracle verdict; a pass is stored and a
    failure is not, and raises the same error when checked again."""
    genv._validated.clear()
    bases = sandboxes(11, 8)
    calls = count_residual_calls(monkeypatch)
    verdicts = Counter()
    for base in bases:
        key = base._constants()
        assert key in genv._validated
        idents = [a.ident for a in base.letters]
        udeg = {a.ident: a.degree + 1 for a in base.letters}
        sdeg = {a.ident: a.degree for a in base.letters}
        cases = [(wt, base.bracket_table)
                 for wt in mutants(base.wedge_table, idents, udeg, 1)]
        cases += [(base.wedge_table, bt)
                  for bt in mutants(base.bracket_table, idents, sdeg, -1)]
        for wt, bt in cases:
            mutant = GerstBasis(base.letters, int_view(wt), int_view(bt))
            mkey = mutant._constants()
            assert mkey != key
            stored = mkey in genv._validated
            want = verdict(lambda: gerst_oracle(mutant))
            calls.clear()
            assert verdict(mutant.validate) == want
            assert (mkey in genv._validated) == (want is None)
            if want is None and not stored:
                assert calls == full_check(len(base.letters))
            if want is not None:
                assert verdict(mutant.validate) == want
            verdicts[want] += 1
    assert verdicts[None] > 20 and verdicts.total() - verdicts[None] > 500


def test_the_store_keeps_no_letter_or_basis_alive():
    """The store holds idents and int/Fraction values, no ``Letter`` (an
    int subclass): a validated basis and its two ops are freed once
    dropped, and its key stays."""
    import gc
    import weakref

    genv._validated.clear()
    basis = genv.exterior_of_lie(2, {(1, 2): {1: 2, 2: -1}, (2, 1): {1: -2, 2: 1}})
    key = basis._constants()
    assert genv._validated == {key}

    def atoms(x):
        if isinstance(x, (tuple, frozenset)):
            for y in x:
                yield from atoms(y)
        else:
            yield x
    assert {type(x) for x in atoms(key)} <= {str, int, Fraction}
    refs = [weakref.ref(obj) for obj in (basis, basis.wedge_op, basis.bracket_op)]
    del basis
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]
    assert genv._validated == {key}


def lie_cases(rng, n):
    """``random_lie`` draws, sl2 (where a partner mutant can break Jacobi)
    and a graded one with a bracket and a differential."""
    e, f, h = (Letter(("s", x), 0) for x in "efh")
    sl2 = LieData([e, f, h], {
        (e.ident, f.ident): {h.ident: 1}, (f.ident, e.ident): {h.ident: -1},
        (h.ident, e.ident): {e.ident: 2}, (e.ident, h.ident): {e.ident: -2},
        (h.ident, f.ident): {f.ident: -2}, (f.ident, h.ident): {f.ident: 2}})
    v, w = Letter(("g", "v"), 1), Letter(("g", "w"), 2)
    graded = LieData([v, w], {(v.ident, v.ident): {w.ident: 2}},
                     diff={v.ident: {w.ident: 1}})
    return [random_lie(rng) for _ in range(n)] + [sl2, graded]


def test_algebra_and_lie_mutants_get_the_oracle_verdicts():
    rng = SplitMix64(9)
    counts = {True: 0, False: 0}
    for alg in [random_assoc_algebra(rng) for _ in range(12)]:
        idents = [a.ident for a in alg.letters]
        deg = {a.ident: a.degree for a in alg.letters}
        valid = alg.product
        for table in mutants(valid, idents, deg, 1):
            alg.product = table
            want = verdict(lambda: algebra_oracle(alg))
            assert verdict(alg._validate) == want
            counts[want is None] += 1
        alg.product = valid
    for lie in lie_cases(rng, 12):
        idents = [a.ident for a in lie.letters]
        deg = {a.ident: a.degree for a in lie.letters}
        valid_br, valid_d = lie.bracket_table, lie.diff_table
        tables = [(bt, valid_d) for bt in mutants(valid_br, idents, deg, -1)]
        tables += [(valid_br, dt) for dt in mutants(valid_d, idents)]
        for bt, dt in tables:
            lie.bracket_table, lie.diff_table = bt, dt
            want = verdict(lambda: lie_oracle(lie))
            assert verdict(lie._validate) == want
            counts[want is None] += 1
        lie.bracket_table, lie.diff_table = valid_br, valid_d
    assert counts[True] > 10 and counts[False] > 100


def test_validation_leaves_the_public_tables_as_they_were():
    rng = SplitMix64(3)
    structures = [(b, ("wedge_table", "bracket_table")) for b in gerst_cases()]
    for _ in range(10):
        structures.append((random_assoc_algebra(rng), ("product",)))
        structures.append((random_lie(rng), ("bracket_table", "diff_table")))
    for obj, names in structures:
        before = {name: copy.deepcopy(getattr(obj, name)) for name in names}
        if isinstance(obj, GerstBasis):
            obj.validate()
        else:
            obj._validate()
        for name in names:
            table = getattr(obj, name)
            assert table == before[name]
            assert all(type(c) is Fraction for v in table.values() for c in v.values())


# ---------------------------------------------------------------------------
# add_scaled against the add_term loop it replaced

def add_scaled_oracle(acc, other, coeff=Fraction(1)):
    if not coeff:
        return acc
    for k, v in other.items():
        add_term(acc, k, coeff * v)
    return acc


coeffs = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
sparse = st.dictionaries(st.integers(0, 5), coeffs, max_size=6)


def typed(d):
    return [(k, type(v), v) for k, v in d.items()]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(sparse, sparse, coeffs)
def test_add_scaled_is_the_add_term_loop(acc, other, coeff):
    """Same keys, values, value types and key order, zero coefficients and
    zero entries included; the accumulator is returned."""
    want = add_scaled_oracle(dict(acc), other, coeff)
    got_acc = dict(acc)
    assert add_scaled(got_acc, other, coeff) is got_acc
    assert typed(got_acc) == typed(want)
    # the default coefficient is the int 1
    assert typed(add_scaled(dict(acc), other)) == typed(add_scaled_oracle(dict(acc), other, 1))
    # full cancellation of a sparse element leaves nothing
    other = {k: v for k, v in other.items() if v}
    assert add_scaled(dict(other), other, -1) == {}
    assert add_scaled(dict(other), {k: 2 * v for k, v in other.items()}, Fraction(-1, 2)) == {}


@pytest.mark.parametrize("coeff", [0, Fraction(0)])
def test_add_scaled_zero_coefficient_returns_acc(coeff):
    acc = {1: Fraction(2)}
    assert add_scaled(acc, {1: 5, 2: 3}, coeff) is acc
    assert acc == {1: Fraction(2)}
