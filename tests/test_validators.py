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
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def check_gerst(basis, counts):
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
        counts[want is None] += 1


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


def test_gerst_basis_mutants_get_the_oracle_verdicts():
    counts = {True: 0, False: 0}
    for basis in gerst_cases():
        check_gerst(basis, counts)
    # both verdicts occur, and the partner mutants reach the triple checks
    assert counts[True] > 50 and counts[False] > 1000


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
