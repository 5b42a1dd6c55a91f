"""Exact integer lattice linear algebra: Hermite and Smith normal forms,
membership and saturation tests over arbitrary-precision integers."""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple


class IntMatrix:
    """Dense integer matrix, row-major list of lists."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Sequence[Sequence[int]]):
        data = [list(row) for row in data]
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError(f"inconsistent dimensions for {rows}x{cols} matrix")
        self.rows = rows
        self.cols = cols
        self.data = data

    @staticmethod
    def from_rows(data: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        data = [list(r) for r in data]
        if not data:
            return IntMatrix(0, cols or 0, [])
        return IntMatrix(len(data), len(data[0]), data)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, [[0] * cols for _ in range(rows)])

    def copy(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, self.data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.data) == (other.rows, other.cols, other.data)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = [[0] * other.cols for _ in range(self.rows)]
        for i, row in enumerate(self.data):
            oi = out[i]
            for k, a in enumerate(row):
                if a:
                    brow = other.data[k]
                    for j, b in enumerate(brow):
                        if b:
                            oi[j] += a * b
        return IntMatrix(self.rows, other.cols, out)

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols}, {self.data})"


class AbelianInvariants:
    """Free rank plus torsion invariant factors d1 | d2 | ... (each > 1)."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: Sequence[int]):
        torsion = [int(d) for d in torsion]
        if any(d <= 1 for d in torsion):
            raise ValueError(f"torsion factors must exceed 1, got {torsion}")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError(f"torsion factors must form a divisor chain, got {torsion}")
        self.free_rank = free_rank
        self.torsion = list(torsion)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AbelianInvariants):
            return NotImplemented
        return (self.free_rank, self.torsion) == (other.free_rank, other.torsion)

    def __repr__(self) -> str:
        return f"AbelianInvariants(free_rank={self.free_rank}, torsion={self.torsion})"

    def describe(self) -> str:
        parts = []
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}" if self.free_rank > 1 else "Z")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "trivial"


def _coerce_rows(m) -> List[List[int]]:
    if isinstance(m, IntMatrix):
        return [list(r) for r in m.data]
    return [list(r) for r in m]


def _hnf_rows(work: List[List[int]], ncols: int) -> None:
    """Hermite normal form (see `hnf`) of the first ncols columns, in place;
    row operations span whole rows, so the columns past ncols record them."""
    nrows = len(work)
    width = len(work[0]) if work else 0
    pivot_row = 0
    for col in range(ncols):
        # gather candidate rows with a nonzero entry in this column
        live = [r for r in range(pivot_row, nrows) if work[r][col]]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(work[r][col]))
            base = live[0]
            bval = work[base][col]
            remaining = [base]
            for r in live[1:]:
                q = work[r][col] // bval
                if q:
                    wr, wb = work[r], work[base]
                    for j in range(col, width):
                        wr[j] -= q * wb[j]
                if work[r][col]:
                    remaining.append(r)
            live = remaining
        r = live[0]
        if r != pivot_row:
            work[r], work[pivot_row] = work[pivot_row], work[r]
        if work[pivot_row][col] < 0:
            work[pivot_row] = [-x for x in work[pivot_row]]
        piv = work[pivot_row][col]
        for r in range(pivot_row):
            q = work[r][col] // piv
            if q:
                wr, wp = work[r], work[pivot_row]
                for j in range(col, width):
                    wr[j] -= q * wp[j]
        pivot_row += 1
        if pivot_row == nrows:
            break


def hnf(m) -> Tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form: returns (H, U) with H = U*m, U unimodular.

    H is canonical: positive pivots, entries above each pivot reduced into
    [0, pivot), zero rows at the bottom.
    """
    rows = _coerce_rows(m)
    nrows = len(rows)
    ncols = len(rows[0]) if rows else _ncols_of(m)
    work = [row + [int(i == j) for j in range(nrows)]
            for i, row in enumerate(rows)]
    _hnf_rows(work, ncols)
    return (IntMatrix(nrows, ncols, [row[:ncols] for row in work]),
            IntMatrix(nrows, nrows, [row[ncols:] for row in work]))


def hnf_basis(m) -> List[List[int]]:
    """Nonzero rows of the HNF of m (a basis of its row space)."""
    work = _coerce_rows(m)
    _hnf_rows(work, len(work[0]) if work else 0)
    return [row for row in work if any(row)]


def snf(m) -> Tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: D = U*m*V diagonal with d1 | d2 | ..., U, V unimodular."""
    d, u, v = _snf_impl(_coerce_rows(m), transforms=True)
    nrows, ncols = len(d), (len(d[0]) if d else _ncols_of(m))
    return (IntMatrix(nrows, ncols, d),
            IntMatrix(nrows, nrows, u),
            IntMatrix(ncols, ncols, v))


def snf_diagonal(m) -> List[int]:
    """Diagonal of the Smith normal form, without transform bookkeeping."""
    d, _, _ = _snf_impl(_coerce_rows(m), transforms=False)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def _ncols_of(m) -> int:
    if isinstance(m, IntMatrix):
        return m.cols
    rows = list(m)
    return len(rows[0]) if rows else 0


def _snf_impl(work: List[List[int]], transforms: bool):
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)] if transforms else None
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)] if transforms else None

    def row_op(r, src, q):
        wr, ws = work[r], work[src]
        for j in range(ncols):
            wr[j] -= q * ws[j]
        if transforms:
            ur, us = u[r], u[src]
            for j in range(nrows):
                ur[j] -= q * us[j]

    def col_op(c, src, q):
        for i in range(nrows):
            work[i][c] -= q * work[i][src]
        if transforms:
            for i in range(ncols):
                v[i][c] -= q * v[i][src]

    def swap_rows(a, b):
        work[a], work[b] = work[b], work[a]
        if transforms:
            u[a], u[b] = u[b], u[a]

    def swap_cols(a, b):
        for i in range(nrows):
            work[i][a], work[i][b] = work[i][b], work[i][a]
        if transforms:
            for i in range(ncols):
                v[i][a], v[i][b] = v[i][b], v[i][a]

    def negate_row(r):
        work[r] = [-x for x in work[r]]
        if transforms:
            u[r] = [-x for x in u[r]]

    t = 0
    while True:
        # find the minimal-absolute-value nonzero entry in the trailing block
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                x = work[i][j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
                    if best[0] == 1:
                        break
            if best and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        swap_rows(t, bi)
        swap_cols(t, bj)
        # eliminate column and row t; restart if elimination leaves residue
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nrows):
                if work[i][t]:
                    q = work[i][t] // work[t][t]
                    row_op(i, t, q)
                    if work[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, ncols):
                if work[t][j]:
                    q = work[t][j] // work[t][t]
                    col_op(j, t, q)
                    if work[t][j]:
                        swap_cols(t, j)
                        dirty = True
        # divisibility repair: pivot must divide every remaining entry
        piv = work[t][t]
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if work[i][j] % piv:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)  # add offending row into pivot row
            continue
        if work[t][t] < 0:
            negate_row(t)
        t += 1
        if t == min(nrows, ncols):
            break
    return work, u, v


def quotient_invariants(rank: int, relation_rows) -> AbelianInvariants:
    """Invariants of Z^rank modulo the row space of relation_rows."""
    rows = _coerce_rows(relation_rows)
    if any(len(r) != rank for r in rows):
        raise ValueError(f"relation rows must have width {rank}")
    if not rows:
        return AbelianInvariants(rank, [])
    diag = snf_diagonal(rows)
    nonzero = [abs(d) for d in diag if d]
    torsion = [d for d in nonzero if d > 1]
    return AbelianInvariants(rank - len(nonzero), torsion)


def _pivot_col(row: Sequence[int]) -> int:
    for j, x in enumerate(row):
        if x:
            return j
    return -1


def in_rowspace(v: Sequence[int], basis: Sequence[Sequence[int]]) -> bool:
    """Membership of v in the lattice spanned by echelonized basis rows."""
    return saturation_order(v, basis) == 1


def saturation_order(v: Sequence[int], basis: Sequence[Sequence[int]]) -> Optional[int]:
    """Least k >= 1 with k*v in the lattice of the echelon basis rows, or None
    if no multiple lands in it (v is outside the saturation)."""
    coeffs = _rational_combination(v, basis)
    if coeffs is None:
        return None
    k = 1
    for c in coeffs:
        k = k * c.denominator // gcd(k, c.denominator)
    return k


def _rational_combination(v: Sequence[int], basis: Sequence[Sequence[int]]) -> Optional[List[Fraction]]:
    """Solve v = sum q_i * basis_i over Q for echelonized basis rows."""
    v = [Fraction(x) for x in v]
    coeffs = []
    for row in basis:
        p = _pivot_col(row)
        if p < 0:
            continue
        q = v[p] / row[p]
        coeffs.append(q)
        if q:
            for j in range(p, len(v)):
                v[j] -= q * row[j]
    if any(v):
        return None
    return coeffs
