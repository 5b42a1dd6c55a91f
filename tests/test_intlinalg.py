"""Tests for integer HNF/SNF, quotient invariants and lattice membership."""

from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from latcover.intlinalg import (
    AbelianInvariants,
    hnf,
    quotient_invariants,
    saturation_order,
    snf_diagonal,
)

from helpers_latcover import (det, hnf_with_transform, kernel_basis, matmul,
                              solve_in_rowspace, sublattice_with_zero_prefix)


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def test_hnf_identity():
    assert hnf(_identity(3)) == _identity(3)
    assert hnf_with_transform(_identity(3)) == (_identity(3), _identity(3))


def test_hnf_already_reduced():
    m = [[2, 4], [0, 6]]
    assert hnf(m) == [[2, 4], [0, 6]]
    h, u = hnf_with_transform(m)
    assert h == [[2, 4], [0, 6]]
    assert matmul(u, m) == h


def test_hnf_gcd_column():
    assert hnf([[4], [6]]) == [[2]]
    h, u = hnf_with_transform([[4], [6]])
    assert h == [[2], [0]]
    assert matmul(u, [[4], [6]]) == h


def test_snf_diag_6_4():
    assert snf_diagonal([[6, 0], [0, 4]]) == [2, 12]


def test_snf_zero_matrix():
    assert snf_diagonal([[0, 0, 0], [0, 0, 0]]) == []
    assert snf_diagonal([]) == []


def test_snf_2_3():
    assert snf_diagonal([[2, 0], [0, 3]]) == [1, 6]


def test_quotient_free():
    inv = quotient_invariants(2, [])
    assert inv == AbelianInvariants(2, [])


def test_quotient_single_torsion():
    assert quotient_invariants(1, [[6]]) == AbelianInvariants(0, [6])


def test_quotient_mixed():
    inv = quotient_invariants(3, [[2, 0, 0], [0, 2, 0]])
    assert inv == AbelianInvariants(1, [2, 2])


def test_quotient_describe():
    assert AbelianInvariants(1, [2, 2]).describe() == "Z x Z/2 x Z/2"
    assert AbelianInvariants(0, []).describe() == "trivial"


def test_zero_prefix_extraction():
    assert sublattice_with_zero_prefix([[1, 0, 5], [0, 0, 3]], 2) == [[3]]


def test_zero_prefix_empty():
    assert sublattice_with_zero_prefix([], 2) == []


def test_zero_prefix_identity():
    out = sublattice_with_zero_prefix(_identity(5), 2)
    assert out == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_kernel_basis():
    # rows r1 + r2 = r3
    m = [[1, 2], [3, 4], [4, 6]]
    ker = kernel_basis(m)
    assert len(ker) == 1
    c = ker[0]
    combo = [sum(c[i] * m[i][j] for i in range(3)) for j in range(2)]
    assert combo == [0, 0]


def test_solve_in_rowspace():
    a = [[2, 0, 1], [0, 3, 1]]
    h, u = hnf_with_transform(a)
    c = solve_in_rowspace([2, 3, 2], h, u)
    assert c is not None
    assert [sum(c[i] * a[i][j] for i in range(2)) for j in range(3)] == [2, 3, 2]
    assert solve_in_rowspace([1, 0, 0], h, u) is None


def test_membership_and_saturation():
    basis = hnf([[2, 0], [0, 3]])
    assert saturation_order([4, 3], basis) == 1
    assert saturation_order([1, 0], basis) == 2
    assert saturation_order([1, 1], basis) == 6
    basis2 = hnf([[1, 0, 0]])
    assert saturation_order([0, 1, 0], basis2) is None


_SMALL = st.integers(min_value=-9, max_value=9)


@st.composite
def int_matrices(draw, max_dim=5):
    r = draw(st.integers(min_value=1, max_value=max_dim))
    c = draw(st.integers(min_value=1, max_value=max_dim))
    data = draw(st.lists(st.lists(_SMALL, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    return data


def _determinantal_divisors(m):
    """gcd of the k x k minors for k = 1, 2, ... while it is nonzero."""
    out = []
    for k in range(1, min(len(m), len(m[0])) + 1):
        g = 0
        for rows in combinations(m, k):
            for cols in combinations(range(len(m[0])), k):
                g = gcd(g, det([[row[j] for j in cols] for row in rows]))
        if not g:
            break
        out.append(g)
    return out


@pytest.mark.property_suite
@settings(max_examples=1000, deadline=None)
@given(int_matrices())
def test_snf_correctness(m):
    diag = snf_diagonal(m)
    assert all(d > 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    # d1 * ... * dk is the gcd of the k x k minors
    products = []
    for d in diag:
        products.append(d * (products[-1] if products else 1))
    assert products == _determinantal_divisors(m)
    # idempotence: the Smith form of the diagonal matrix is its diagonal
    square = [[d if i == j else 0 for j in range(len(diag))]
              for i, d in enumerate(diag)]
    assert snf_diagonal(square) == diag


@pytest.mark.property_suite
@settings(max_examples=1000, deadline=None)
@given(int_matrices(), st.data())
def test_hnf_canonicity(m, data):
    h1, u1 = hnf_with_transform(m)
    assert matmul(u1, m) == h1
    assert abs(det(u1)) == 1
    basis = hnf(m)
    assert h1 == basis + [[0] * len(m[0])] * (len(m) - len(basis))
    # every row of m lies in the lattice of the basis
    assert all(saturation_order(row, basis) == 1 for row in m)
    # row-equivalent matrix: shuffle rows and add a multiple of one row to another
    rows = [list(r) for r in m]
    perm = data.draw(st.permutations(range(len(rows))))
    rows = [rows[i] for i in perm]
    if len(rows) > 1:
        i, j = data.draw(st.tuples(
            st.integers(0, len(rows) - 1), st.integers(0, len(rows) - 1)))
        if i != j:
            k = data.draw(_SMALL)
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
    assert hnf(rows) == basis


@settings(max_examples=400, deadline=None)
@given(int_matrices(max_dim=4))
def test_kernel_rows_annihilate(m):
    for c in kernel_basis(m):
        assert matmul([c], m) == [[0] * len(m[0])]


@settings(max_examples=400, deadline=None)
@given(int_matrices(max_dim=4), st.integers(0, 3))
def test_zero_prefix_soundness(m, p):
    p = min(p, len(m[0]))
    out = sublattice_with_zero_prefix(m, p)
    basis = hnf(m)
    for row in out:
        assert saturation_order([0] * p + row, basis) == 1


def _brute_force_group_order(inv: AbelianInvariants) -> int:
    assert inv.free_rank == 0
    order = 1
    for d in inv.torsion:
        order *= d
    return order


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=4))
def test_quotient_invariants_against_direct_order(diagonal):
    n = len(diagonal)
    rows = [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)]
    inv = quotient_invariants(n, rows)
    expected = 1
    for d in diagonal:
        expected *= d
    assert _brute_force_group_order(inv) == expected <= 10 ** 4


# Smith forms that a minimal-pivot elimination with divisibility repair ran
# on for minutes; alternating Hermite forms finish them at once.
_STALLING = {
    "M1": ([[4, -7, -8, 7, -6], [-5, 3, -9, 2, 7], [9, 8, -6, 6, -4],
            [4, 6, -2, 7, 4], [4, -4, 7, 4, 8], [-5, -7, -2, 4, 4]], "Z/3"),
    "M2": ([[9, 7, -8, 9, -1, -3], [-1, -1, 2, -3, -5, -9],
            [-1, 5, -9, -9, 6, -1], [1, 7, -7, -3, 1, -9],
            [-8, -1, 8, 3, 6, 0], [-1, -8, -9, -9, -8, 8]], "Z/193380"),
    "M3": ([[-9, -7, 0, 4, -4, -9, -8], [1, 7, 1, 2, -6, -8, -3],
            [3, -9, 8, 5, 1, -2, 5], [5, -2, -9, 2, -3, -2, -4],
            [4, 3, -6, 3, 1, 9, -6], [8, -2, 0, -6, -9, 3, -9]], "Z"),
    "M4": ([[-9, -3, -2, -8, 3], [8, 9, 8, 7, -1], [-7, -6, 5, 8, -8],
            [-6, 3, 5, -6, 5], [3, -7, -3, -3, 5], [-2, 2, 1, 6, 2],
            [-4, 1, -3, -6, -9]], "Z/2"),
}


@pytest.mark.parametrize("name", sorted(_STALLING))
def test_quotient_invariants_of_stalling_matrices(name):
    rows, expected = _STALLING[name]
    assert quotient_invariants(len(rows[0]), rows).describe() == expected
