from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerstenhaber.exactlin import (SparseMat, echelonize, rank,
                                   solve_in_column_span)
from gerstenhaber.prng import SplitMix64
from oracles import kernel_basis, mul_vec


def mat(rows):
    m = SparseMat(len(rows), len(rows[0]) if rows else 0)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            m[i, j] = Fraction(v)
    return m


def dense(m):
    return [[m[i, j] for j in range(m.ncols)] for i in range(m.nrows)]


def test_rank_cases():
    assert rank(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3
    assert rank(mat([[1, 2], [2, 4]])) == 1
    assert rank(SparseMat(2, 2)) == 0


def test_solve_identity():
    m = mat([[1, 0], [0, 1]])
    x = solve_in_column_span(m, {0: Fraction(3), 1: Fraction(-5)})
    assert x == {0: Fraction(3), 1: Fraction(-5)}


def test_solve_column():
    m = mat([[1], [2]])
    assert solve_in_column_span(m, {0: 2, 1: 4}) == {0: Fraction(2)}
    assert solve_in_column_span(m, {0: 1}) is None


def test_solve_rejects_out_of_range_row():
    for row in (2, -1):
        with pytest.raises(ValueError, match="outside"):
            solve_in_column_span(mat([[1], [1]]), {0: 1, row: 1})


def test_kernel_cases():
    assert kernel_basis(mat([[1, 0], [0, 1]])) == []
    ker = kernel_basis(mat([[1, 2], [2, 4]]))
    assert len(ker) == 1
    (vec,) = ker
    assert vec.get(0, 0) * 1 == vec.get(1, 0) * -2  # proportional to (-2, 1)
    assert len(kernel_basis(SparseMat(1, 2))) == 2


def rand_mat(rng, nr, nc):
    m = SparseMat(nr, nc)
    for i in range(nr):
        for j in range(nc):
            if rng.randrange(2):
                m[i, j] = Fraction(rng.randint(-3, 3))
    return m


def test_rank_nullity_randomized():
    rng = SplitMix64(1)
    for _ in range(40):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = rand_mat(rng, nr, nc)
        assert rank(m) + len(kernel_basis(m)) == nc


def test_solve_exactness_randomized():
    rng = SplitMix64(2)
    for _ in range(40):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_mat(rng, nr, nc)
        x = {j: Fraction(rng.randint(-2, 2)) for j in range(nc)}
        b = mul_vec(m, x)
        sol = solve_in_column_span(m, dict(b))
        assert sol is not None
        assert mul_vec(m, sol) == b
        # infeasibility reported via rank jump
        bad = dict(b)
        probe = SparseMat(nr, 1)
        for r, v in bad.items():
            probe[r, 0] = v
        aug = SparseMat(nr, nc + 1)
        for (r, c), v in m.entries.items():
            aug[r, c] = v
        for r, v in bad.items():
            aug[r, nc] = v
        assert rank(aug) == rank(m)


def test_kernel_vectors_annihilate():
    rng = SplitMix64(3)
    for _ in range(30):
        m = rand_mat(rng, rng.randint(1, 5), rng.randint(1, 5))
        for vec in kernel_basis(m):
            assert mul_vec(m, vec) == {}


def rand_sparse(rng, nr, nc):
    """Entries p/q with |p| <= 2, q <= 2 on about half of the cells; a
    seeded choice of rows and columns stays empty."""
    empty_rows = {i for i in range(nr) if rng.randrange(4) == 0}
    empty_cols = {j for j in range(nc) if rng.randrange(4) == 0}
    m = SparseMat(nr, nc)
    for i in range(nr):
        for j in range(nc):
            if i not in empty_rows and j not in empty_cols and rng.randrange(2):
                m[i, j] = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
    return m


def test_mul_matches_dense_triple_loop():
    """Seeded rectangular products equal the dense triple loop, store no
    zeros, and include entries whose terms cancel."""
    rng = SplitMix64(6)
    nonzero = cancelled = 0
    for _ in range(60):
        n, k, m = (rng.randint(1, 7) for _ in range(3))
        a, b = rand_sparse(rng, n, k), rand_sparse(rng, k, m)
        da, db = dense(a), dense(b)
        want = [[Fraction(0)] * m for _ in range(n)]
        for i in range(n):
            for j in range(m):
                terms = [da[i][t] * db[t][j] for t in range(k)]
                want[i][j] = sum(terms, Fraction(0))
                cancelled += not want[i][j] and any(terms)
        prod = a.mul(b)
        assert (prod.nrows, prod.ncols) == (n, m)
        assert dense(prod) == want
        assert all(prod.entries.values())
        nonzero += bool(prod.entries)
    assert nonzero > 30 and cancelled > 0


def test_mul_cancellation_and_dimension_check():
    a = mat([[1, 1], [0, 0], [2, -1]])
    b = mat([[1, 2], [-1, 2]])
    prod = a.mul(b)
    assert dense(prod) == [[0, 4], [0, 0], [3, 2]]
    assert sorted(prod.entries) == [(0, 1), (2, 0), (2, 1)]
    with pytest.raises(ValueError):
        a.mul(a)


def test_exports_of_int_entries_match_fraction_entries():
    """Int entries are stored as ints and exported as the same Fractions."""
    vals = {(0, 0): 2, (0, 2): -3, (1, 1): 1, (2, 0): 0}
    ints = SparseMat(3, 3, vals)
    fracs = SparseMat(3, 3, {rc: Fraction(v) for rc, v in vals.items()})
    assert all(type(v) is int for v in ints.entries.values())
    assert sorted(ints.entries) == [(0, 0), (0, 2), (1, 1)]
    assert ints.to_matrixmarket() == fracs.to_matrixmarket()
    assert ints.to_json() == fracs.to_json()


def test_exports_roundtrip():
    m = mat([[Fraction(1, 2), 0], [0, -3]])
    mm = m.to_matrixmarket()
    assert mm.splitlines()[0].startswith("%%MatrixMarket")
    assert "1/2" in mm and "-3/1" in mm
    import json

    payload = json.loads(m.to_json())
    assert payload["nrows"] == 2 and payload["ncols"] == 2
    assert [e for e in payload["entries"] if e[0] == 0][0][2] == "1/2"


def echelonize_fraction(rowdicts: list[dict[int, Fraction]], ncols: int):
    """In-place row echelon with unit pivots and full back-elimination.

    Returns (reduced rows, pivot column list).  Row order is preserved up to
    the deterministic swaps (lowest-index nonzero row becomes the pivot row).
    """
    pivots: list[int] = []
    prow = 0
    nrows = len(rowdicts)
    for col in range(ncols):
        sel = None
        for r in range(prow, nrows):
            if rowdicts[r].get(col):
                sel = r
                break
        if sel is None:
            continue
        rowdicts[prow], rowdicts[sel] = rowdicts[sel], rowdicts[prow]
        piv = rowdicts[prow]
        inv = 1 / piv[col]
        if inv != 1:
            for c in list(piv):
                piv[c] *= inv
        for r in range(nrows):
            if r == prow:
                continue
            f = rowdicts[r].get(col)
            if not f:
                continue
            row = rowdicts[r]
            for c, v in piv.items():
                s = row.get(c, Fraction(0)) - f * v
                if s:
                    row[c] = s
                else:
                    row.pop(c, None)
        pivots.append(col)
        prow += 1
        if prow == nrows:
            break
    return rowdicts, pivots


# Rationals p/q with small p and q, so random rows are often dependent.
rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


@st.composite
def sparse_matrices(draw, values=rationals):
    """A SparseMat with 0-6 rows and 0-6 columns, about half its cells
    drawn from ``values``, some rows empty and some rows repeated or scaled
    copies."""
    nr, nc = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    m = SparseMat(nr, nc)
    for i in range(nr):
        kind = draw(st.sampled_from(("random", "random", "empty", "copy")))
        if kind == "copy" and i:
            src, scale = draw(st.integers(0, i - 1)), draw(values)
            for j in range(nc):
                m[i, j] = scale * m[src, j]
        elif kind != "empty":
            for j in range(nc):
                if draw(st.booleans()):
                    m[i, j] = draw(values)
    return m


@settings(derandomize=True, max_examples=300, deadline=None)
@given(sparse_matrices())
def test_echelonize_matches_fraction_oracle(m):
    """The fraction-free eliminator returns the rational elimination's
    reduced rows, row for row, and its pivots."""
    assert echelonize(m.rows(), m.ncols) == echelonize_fraction(m.rows(), m.ncols)
    aug = m.ncols + 1   # with a right-hand side column, as the solver does
    rows = m.rows()
    for i, row in enumerate(rows):
        if i % 2:
            row[m.ncols] = Fraction(i, 3)
    assert echelonize([dict(r) for r in rows], aug) == echelonize_fraction(rows, aug)


def fractions_of(rows):
    return [{c: Fraction(v) for c, v in row.items()} for row in rows]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(sparse_matrices(st.integers(-4, 4)))
def test_echelonize_integer_rows(m):
    """On integer rows the eliminator returns the rational elimination of
    the same rows read as Fractions, with every integral value an int."""
    aug = m.ncols + 1   # with an integer right-hand side column
    rows = m.rows()
    for i, row in enumerate(rows):
        if i % 2:
            row[m.ncols] = i - 2
    for rowdicts, ncols in ((m.rows(), m.ncols), (rows, aug)):
        got = echelonize([dict(r) for r in rowdicts], ncols)
        assert got == echelonize_fraction(fractions_of(rowdicts), ncols)
        for row in got[0]:
            for v in row.values():
                assert type(v) is (int if v.denominator == 1 else Fraction)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(sparse_matrices(), st.data())
def test_rank_nullity_and_solve_roundtrip(m, data):
    assert rank(m) + len(kernel_basis(m)) == m.ncols
    x = {j: data.draw(rationals) for j in range(m.ncols)}
    b = mul_vec(m, x)
    sol = solve_in_column_span(m, dict(b))
    assert sol is not None
    assert mul_vec(m, sol) == b


def test_coboundary_matrices_and_product_are_int(monkeypatch):
    """At d = 2, k <= 1 the assembled matrices and their products hold only
    ints, exactlin builds no Fraction on the way, table elimination
    included, and chcoh builds none while it builds the context."""
    from gerstenhaber.chcoh import (assemble_matrix, level_shapes,
                                    reachable_shapes, real_polyvec_context)

    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} built")

    monkeypatch.setattr("gerstenhaber.exactlin.Fraction", no_fraction)
    with monkeypatch.context() as m:
        m.setattr("gerstenhaber.chcoh.Fraction", no_fraction)
        ctx = real_polyvec_context(2, 1)
    for n in (1, 2):
        src = level_shapes(n, 3)
        m1, rows1, _ = assemble_matrix(ctx, src)
        m2, _, cols2 = assemble_matrix(ctx, reachable_shapes(src))
        assert cols2 == rows1 and m1.entries and m2.entries
        prod = m2.mul(m1)
        assert prod.is_zero()
        for m in (m1, m2):
            assert all(type(v) is int for v in m.entries.values())
