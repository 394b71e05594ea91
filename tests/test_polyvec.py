import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerstenhaber import polyvec as pv
from gerstenhaber.genv import polyvec_basis
from gerstenhaber.polyvec import basis
from gerstenhaber.prng import SplitMix64
from oracles import Polyvec, f1, mono_vf, mu2, schouten, unit, wedge


def test_basis_counts():
    assert [len(basis(3, k)) for k in range(4)] == [1, 9, 18, 10]
    assert [len(basis(1, k)) for k in range(2)] == [1, 1]
    assert [len(basis(2, k)) for k in range(3)] == [1, 4, 3]
    with pytest.raises(ValueError):
        basis(3, 4)


def test_basis_counts_match_enumeration_oracle():
    # independent oracle: count pairs (monomial of degree k, k-subset) directly
    from itertools import combinations, product

    for d in (2, 3):
        for k in range(d + 1):
            subsets = len(list(combinations(range(d), k)))
            monos = sum(
                1 for e in product(range(k + 1), repeat=d) if sum(e) == k
            )
            assert len(basis(d, k)) == subsets * monos


def test_wedge_examples():
    a = mono_vf(3, 1, 2)  # x1 d2
    b = mono_vf(3, 2, 3)  # x2 d3
    out = wedge(a, b)
    assert out == Polyvec(3, 2, {((1, 1, 0), (2, 3)): Fraction(1)})
    assert wedge(a, a).is_zero()
    assert wedge(unit(3), b) == b


def test_wedge_sign_from_direction_sort():
    a = mono_vf(3, 1, 3)
    b = mono_vf(3, 2, 2)
    # d3 ^ d2 = -d2 ^ d3
    assert wedge(a, b) == Polyvec(3, 2, {((1, 1, 0), (2, 3)): Fraction(-1)})


def lie_oracle(a, b):
    """X(Y) - Y(X) on vector fields, written out independently."""
    out = Polyvec(a.d, 1)
    for (ea, da), ca in a.terms.items():
        for (eb, db), cb in b.terms.items():
            m, e = dx_oracle((eb, db), da[0])
            if m is not None:
                exps = tuple(x + y for x, y in zip(ea, m[0]))
                out.add((exps, db), ca * cb * e)
            m, e = dx_oracle((ea, da), db[0])
            if m is not None:
                exps = tuple(x + y for x, y in zip(m[0], eb))
                out.add((exps, da), -ca * cb * e)
    return out


def test_schouten_is_lie_bracket_on_all_81_pairs():
    vfs = [mono_vf(3, i, j) for i in range(1, 4) for j in range(1, 4)]
    for a in vfs:
        for b in vfs:
            assert schouten(a, b) == lie_oracle(a, b)


def test_schouten_with_constants_vanishes():
    c = unit(3, 5)
    for k in range(4):
        for mono in basis(3, k)[:4]:
            a = Polyvec(3, k, {mono: Fraction(1)})
            assert schouten(a, c).is_zero()
            assert schouten(c, a).is_zero()


def singles(d):
    out = []
    for k in range(d + 1):
        for i, mono in enumerate(basis(d, k)):
            if i % 3 == 0:
                out.append(Polyvec(d, k, {mono: Fraction(1)}))
    return out


def test_gerstenhaber_axioms():
    for d in (2, 3):
        es = singles(d)
        for a in es:
            for b in es:
                s = -1 if ((a.k - 1) * (b.k - 1)) % 2 else 1
                assert schouten(a, b) == schouten(b, a).scale(-s)
        rng = SplitMix64(41)
        for _ in range(40):
            a, b, g = (rng.choice(es) for _ in range(3))
            lhs = schouten(a, wedge(b, g))
            rhs = wedge(schouten(a, b), g) + wedge(b, schouten(a, g)).scale(
                -1 if (b.k * (a.k - 1)) % 2 else 1
            )
            assert lhs == rhs
            x, y, z = a.k - 1, b.k - 1, g.k - 1
            t1 = schouten(schouten(a, b), g).scale(-1 if (x * z) % 2 else 1)
            t2 = schouten(schouten(b, g), a).scale(-1 if (y * x) % 2 else 1)
            t3 = schouten(schouten(g, a), b).scale(-1 if (z * y) % 2 else 1)
            assert (t1 + t2 + t3).is_zero()


def test_homogeneity_closure_all_pairs_d2():
    es = []
    for k in range(3):
        for mono in basis(2, k):
            es.append(Polyvec(2, k, {mono: Fraction(1)}))
    for a in es:
        for b in es:
            assert wedge(a, b).is_homogeneous()
            assert schouten(a, b).is_homogeneous()


def test_mu2_signs():
    a = mono_vf(3, 1, 2)           # shifted degree 0
    b = mono_vf(3, 2, 3)
    assert mu2(a, b) == wedge(a, b)
    rng = SplitMix64(42)
    es = singles(3)
    for _ in range(30):
        a, b = rng.choice(es), rng.choice(es)
        s = -1 if ((a.k - 1) * (b.k - 1)) % 2 else 1
        assert mu2(a, b) == mu2(b, a).scale(-s)
    for _ in range(20):
        a, b, c = (rng.choice(es) for _ in range(3))
        lhs = mu2(mu2(a, b), c)
        rhs = mu2(a, mu2(b, c)).scale(-1 if (a.k - 1) % 2 == 0 else 1)
        # m2(m2(a,b),c) = -(-1)^a m2(a, m2(b,c))
        assert lhs == mu2(a, mu2(b, c)).scale(-((-1) ** ((a.k - 1) % 2)))


def test_f1_morphism():
    assert f1(unit(3, 5)) == 5
    assert f1(mono_vf(3, 1, 2)) == 0
    rng = SplitMix64(43)
    es = singles(3)
    for _ in range(30):
        a, b = rng.choice(es), rng.choice(es)
        assert f1(wedge(a, b)) == f1(a) * f1(b)
        assert f1(schouten(a, b)) == 0  # the target bracket is zero


def test_schouten_concrete_value():
    a = mono_vf(3, 1, 2)   # x1 d2
    b = mono_vf(3, 2, 3)   # x2 d3
    assert schouten(a, b) == mono_vf(3, 1, 3)


def merge_dirs_oracle(da: tuple, db: tuple):
    """The former ``_merge_dirs``: an insertion sort counting transpositions."""
    if set(da) & set(db):
        return None, 0
    merged = list(da) + list(db)
    sign = 1
    # insertion sort counting transpositions; directions are odd symbols
    for i in range(1, len(merged)):
        j = i
        while j > 0 and merged[j - 1] > merged[j]:
            merged[j - 1], merged[j] = merged[j], merged[j - 1]
            sign = -sign
            j -= 1
    return tuple(merged), sign


directions = st.sets(st.integers(1, 6), max_size=4).map(lambda s: tuple(sorted(s)))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(directions, directions)
def test_merge_dirs_matches_the_former_insertion_sort(da, db):
    assert pv._merge_dirs(da, db) == merge_dirs_oracle(da, db)


def tables_digest(d, name):
    """sha256 of the sorted structure-constant table ``name`` of
    polyvec_basis(d)."""
    table = getattr(polyvec_basis(d), name)
    text = repr(sorted((k, sorted(v.items())) for k, v in table.items()))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name, want", [
    ("wedge_table", "53c2743a01639933426c1244f7ec8d3a9b7ecaa1e05ec85e1d90d3ede9b10d21"),
    ("bracket_table", "df8500d383eff05928f1c15dff09794a4799dcabd2b52ecb88fe45522e140d36"),
])
def test_polyvec_basis_tables_golden_digest(name, want):
    """The sorted wedge and bracket structure constants of polyvec_basis(3),
    pinned byte for byte."""
    assert tables_digest(3, name) == want


@pytest.mark.parametrize("name, want", [
    ("wedge_table", "fc53a8e1dbf7d83a4d587c2989624569ff4e7658c05c0dcd77bbf02fa14b956d"),
    ("bracket_table", "f2c1763fb8acc48fa277da581b322a8054f3622c5974c267ea8603fa096b13c5"),
])
def test_polyvec_basis_d4_tables_golden_digest(name, want):
    """The same digest of polyvec_basis(4), all 192 basis monomials."""
    assert tables_digest(4, name) == want


def test_polyvec_basis_d3_satisfies_the_gerstenhaber_axioms():
    """The monomial constants at d = 3 pass ``validate``: each axiom on one
    member of every orbit of the 38^3 basis triples on which its residual
    agrees up to sign, so in effect on all of them."""
    basis = polyvec_basis(3)
    assert len(basis.letters) == 38
    assert basis.validate() is basis


# The former bilinear wedge and Schouten bracket on Polyvec, kept as oracles
# for the monomial formulas ``wedge_monos`` and ``schouten_monos``.

def wedge_oracle(a, b):
    out = Polyvec(a.d, a.k + b.k)
    for (ea, da), ca in a.terms.items():
        for (eb, db), cb in b.terms.items():
            dirs, sign = pv._merge_dirs(da, db)
            if dirs is None:
                continue
            exps = tuple(x + y for x, y in zip(ea, eb))
            out.add((exps, dirs), ca * cb * sign)
    return out


def dxi_oracle(mono, i):
    """Right derivative with respect to the odd direction i, or None."""
    exps, dirs = mono
    if i not in dirs:
        return None, 0
    pos = dirs.index(i)
    sign = -1 if (len(dirs) - 1 - pos) % 2 else 1
    return (exps, dirs[:pos] + dirs[pos + 1:]), sign


def dx_oracle(mono, i):
    """Derivative of the coefficient in the coordinate x_i (1-based)."""
    exps, dirs = mono
    e = exps[i - 1]
    if not e:
        return None, 0
    newe = list(exps)
    newe[i - 1] -= 1
    return (tuple(newe), dirs), e


def dot_oracle(a, b):
    """sum_i (da/dxi_i) wedge (db/dx_i)."""
    out = Polyvec(a.d, a.k + b.k - 1)
    for (ea, da), ca in a.terms.items():
        for i in da:
            ma, sa = dxi_oracle((ea, da), i)
            for (eb, db), cb in b.terms.items():
                mb, eb_coeff = dx_oracle((eb, db), i)
                if mb is None:
                    continue
                dirs, sign = pv._merge_dirs(ma[1], mb[1])
                if dirs is None:
                    continue
                exps = tuple(x + y for x, y in zip(ma[0], mb[0]))
                out.add((exps, dirs), ca * cb * sa * eb_coeff * sign)
    return out


def schouten_oracle(a, b):
    sign = -1 if ((a.k - 1) * (b.k - 1)) % 2 else 1
    return dot_oracle(a, b) - dot_oracle(b, a).scale(sign)


coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def polyvec_pairs(draw):
    """Two homogeneous polyvectors on R^d, d <= 4, of several terms with
    fractional coefficients; some terms are added twice with opposite
    coefficients, and b may be a itself, so that output terms cancel."""
    d = draw(st.integers(1, 4))

    def polyvec():
        k = draw(st.integers(0, d))
        terms = draw(st.lists(st.tuples(st.sampled_from(basis(d, k)), coefficients),
                              max_size=6))
        cancel = draw(st.lists(st.sampled_from(terms), max_size=3)) if terms else []
        out = Polyvec(d, k)
        for mono, c in terms + [(m, -c) for m, c in cancel]:
            out.add(mono, c)
        return out

    a = polyvec()
    return a, a if draw(st.booleans()) else polyvec()


@settings(derandomize=True, max_examples=400, deadline=None)
@given(polyvec_pairs())
def test_wedge_and_schouten_match_the_former_bilinear_bodies(pair):
    a, b = pair
    assert wedge(a, b) == wedge_oracle(a, b)
    assert schouten(a, b) == schouten_oracle(a, b)
    assert schouten(b, a) == schouten_oracle(b, a)
