"""Exact rational sparse linear algebra.

Everything is done over Q, so rank / kernel / span decisions are exact.
Values follow the package's number rule: an ``int`` unless it is not an
integer, then a ``fractions.Fraction``.  The one eliminator, ``echelonize``,
works fraction-free on integer multiples of the rows, so integral inputs are
eliminated in int arithmetic.  Pivoting is deterministic: columns are
processed left to right and the pivot row is the one with the lowest index
among the rows not yet used.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm
from typing import Optional


class SparseMat:
    """Sparse matrix over Q, stored as {(row, col): value} without zeros;
    ``entries`` is an optional dict {(row, col): value} to start from.  An
    entry is kept as given (an int or a Fraction), so products and solves of
    integral matrices run in ints.  The writers read ``.numerator`` and
    ``.denominator``, which ints have too."""

    def __init__(self, nrows: int, ncols: int, entries: dict | None = None):
        self.nrows = nrows
        self.ncols = ncols
        self.entries: dict[tuple[int, int], int | Fraction] = {}
        for (r, c), v in (entries or {}).items():
            self[r, c] = v

    def __getitem__(self, rc) -> int | Fraction:
        return self.entries.get(rc, 0)

    def __setitem__(self, rc, v):
        r, c = rc
        if not (0 <= r < self.nrows and 0 <= c < self.ncols):
            raise IndexError(f"entry {rc} outside {self.nrows}x{self.ncols}")
        if not v:
            self.entries.pop(rc, None)
        else:
            self.entries[rc] = v

    def __eq__(self, other):
        return (
            isinstance(other, SparseMat)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SparseMat({self.nrows}x{self.ncols}, nnz={len(self.entries)})"

    def is_zero(self) -> bool:
        return not self.entries

    def rows(self) -> list[dict]:
        out: list[dict] = [dict() for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def mul(self, other: "SparseMat") -> "SparseMat":
        """Row-by-row (Gustavson) product: row i of the result accumulates
        A[i, k] * (row k of B) over the nonzero A[i, k]."""
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matrix product")
        brows = other.rows()
        out = SparseMat(self.nrows, other.ncols)
        for i, row in enumerate(self.rows()):
            acc: dict = {}
            for k, v in row.items():
                for j, w in brows[k].items():
                    acc[j] = acc.get(j, 0) + v * w
            for j, s in acc.items():
                if s:
                    out.entries[i, j] = s
        return out

    def to_matrixmarket(self) -> str:
        """Matrix Market coordinate format, rationals written as p/q."""
        lines = [
            "%%MatrixMarket matrix coordinate rational general",
            f"{self.nrows} {self.ncols} {len(self.entries)}",
        ]
        for (r, c) in sorted(self.entries):
            v = self.entries[(r, c)]
            lines.append(f"{r + 1} {c + 1} {v.numerator}/{v.denominator}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        ents = [
            [r, c, f"{v.numerator}/{v.denominator}"]
            for (r, c), v in sorted(self.entries.items())
        ]
        return json.dumps(
            {"nrows": self.nrows, "ncols": self.ncols, "entries": ents}
        )


def echelonize(rowdicts: list[dict], ncols: int):
    """Reduced row echelon form with unit pivots and full back-elimination.

    Returns (reduced rows, pivot column list); row i < len(pivots) is the
    row of pivot i, and every later row is empty.  Columns are processed left
    to right and the pivot row is the lowest-index nonzero row not yet used.

    The elimination is fraction-free (as in Bareiss): each row is scaled to
    integers, a step is row = p*row - f*piv followed by division by the gcd
    of the row, and only the final pivot rows are divided by their pivots p,
    each entry v to ``v // p`` where p divides it and to ``Fraction(v, p)``
    where it does not.  Every integer row is a nonzero multiple of the row
    the same steps over Q would hold, so pivots, swaps and the reduced rows
    are those of the rational elimination.
    """
    rows = []
    for rowdict in rowdicts:
        den = lcm(*(v.denominator for v in rowdict.values()))
        row = {c: v.numerator * (den // v.denominator)
               for c, v in rowdict.items() if v}
        g = gcd(*row.values())
        rows.append({c: v // g for c, v in row.items()} if g > 1 else row)
    pivots: list[int] = []
    prow = 0
    nrows = len(rows)
    for col in range(ncols):
        sel = None
        for r in range(prow, nrows):
            if col in rows[r]:
                sel = r
                break
        if sel is None:
            continue
        rows[prow], rows[sel] = rows[sel], rows[prow]
        piv = rows[prow]
        p = piv[col]
        for r in range(nrows):
            row = rows[r]
            f = row.get(col)
            if f is None or r == prow:
                continue
            g = gcd(p, f)
            mp, mf = p // g, f // g
            if mp != 1:
                for c in row:
                    row[c] *= mp
            for c, v in piv.items():
                s = row.get(c, 0) - mf * v
                if s:
                    row[c] = s
                else:
                    del row[c]
            g = gcd(*row.values())
            if g > 1:
                for c in row:
                    row[c] //= g
        pivots.append(col)
        prow += 1
        if prow == nrows:
            break
    out = []
    for row, col in zip(rows, pivots):
        p = row[col]
        out.append({c: Fraction(v, p) if v % p else v // p for c, v in row.items()})
    return out + rows[prow:], pivots


def rank(m: SparseMat) -> int:
    _, pivots = echelonize(m.rows(), m.ncols)
    return len(pivots)


def solve_in_column_span(m: SparseMat, b: dict) -> Optional[dict]:
    """Some exact x with m.x = b, or None when b is outside the column span.

    ``b`` is a sparse dict keyed by row; a key outside the rows raises
    ``ValueError``.  Free variables are set to 0, so the answer is
    deterministic, and its values are ints unless not integers.
    """
    for r in b:
        if not 0 <= r < m.nrows:
            raise ValueError(f"right-hand side row {r} outside 0..{m.nrows - 1}")
    rows = m.rows()
    aug = m.ncols
    for r, v in b.items():
        if v:
            rows[r][aug] = v
    rows, pivots = echelonize(rows, m.ncols + 1)
    if pivots and pivots[-1] == aug:
        return None
    x: dict = {}
    for r, col in enumerate(pivots):
        v = rows[r].get(aug)
        if v:
            x[col] = v
    return x
