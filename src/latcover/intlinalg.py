"""Exact integer lattice linear algebra on plain row lists: one Hermite
normal form, Smith invariants from alternating Hermite forms, and
saturation tests over arbitrary-precision integers."""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence


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


def hnf(rows: Sequence[Sequence[int]]) -> List[List[int]]:
    """Nonzero rows of the row-style Hermite normal form: positive pivots,
    entries above each pivot reduced into [0, pivot).  They are the
    canonical basis of the lattice the rows span."""
    work = [list(row) for row in rows]
    nrows = len(work)
    width = len(work[0]) if work else 0
    pivot_row = 0
    for col in range(width):
        if pivot_row == nrows:
            break
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
    return work[:pivot_row]


def _transpose(rows: List[List[int]]) -> List[List[int]]:
    return [list(col) for col in zip(*rows)]


def snf_diagonal(rows: Sequence[Sequence[int]]) -> List[int]:
    """Nonzero Smith invariants d1 | d2 | ... of the matrix.  Hermite forms
    of the rows and of the columns alternate until the matrix is diagonal
    (Kannan and Bachem, SIAM J. Comput. 8, 1979); gcd/lcm exchanges then
    order the diagonal into a divisor chain."""
    work = hnf(rows)
    while any(x for i, row in enumerate(work)
              for j, x in enumerate(row) if i != j):
        work = hnf(_transpose(hnf(_transpose(work))))
    diag = [row[i] for i, row in enumerate(work)]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return diag


def quotient_invariants(rank: int,
                        relation_rows: Sequence[Sequence[int]]) -> AbelianInvariants:
    """Invariants of Z^rank modulo the row space of relation_rows."""
    if any(len(r) != rank for r in relation_rows):
        raise ValueError(f"relation rows must have width {rank}")
    diag = snf_diagonal(relation_rows)
    return AbelianInvariants(rank - len(diag), [d for d in diag if d > 1])


def _pivot_col(row: Sequence[int]) -> int:
    for j, x in enumerate(row):
        if x:
            return j
    return -1


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
