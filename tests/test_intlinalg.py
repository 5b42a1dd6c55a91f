"""Tests for integer HNF/SNF, quotient invariants and lattice membership."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from latcover.intlinalg import (
    AbelianInvariants,
    IntMatrix,
    hnf,
    hnf_basis,
    in_rowspace,
    quotient_invariants,
    saturation_order,
    snf,
    snf_diagonal,
)

from helpers_latcover import (det, kernel_basis, solve_in_rowspace,
                              sublattice_with_zero_prefix)


def _mat(rows):
    return IntMatrix.from_rows(rows)


def test_hnf_identity():
    h, u = hnf(IntMatrix.identity(3))
    assert h == IntMatrix.identity(3)
    assert u == IntMatrix.identity(3)


def test_hnf_already_reduced():
    m = _mat([[2, 4], [0, 6]])
    h, u = hnf(m)
    assert h.data == [[2, 4], [0, 6]]
    assert (u @ m).data == h.data


def test_hnf_gcd_column():
    h, u = hnf(_mat([[4], [6]]))
    assert h.data == [[2], [0]]
    assert (u @ _mat([[4], [6]])).data == h.data


def test_snf_diag_6_4():
    d, u, v = snf(_mat([[6, 0], [0, 4]]))
    assert [d.data[0][0], d.data[1][1]] == [2, 12]
    assert (u @ _mat([[6, 0], [0, 4]]) @ v).data == d.data
    assert abs(det(u)) == 1 and abs(det(v)) == 1


def test_snf_zero_matrix():
    d, u, v = snf(IntMatrix.zero(2, 3))
    assert d.data == [[0, 0, 0], [0, 0, 0]]


def test_snf_2_3():
    d, _, _ = snf(_mat([[2, 0], [0, 3]]))
    assert [d.data[0][0], d.data[1][1]] == [1, 6]


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
    out = sublattice_with_zero_prefix(_mat([[1, 0, 5], [0, 0, 3]]), 2)
    assert out.data == [[3]]


def test_zero_prefix_empty():
    out = sublattice_with_zero_prefix([], 2)
    assert out.rows == 0


def test_zero_prefix_identity():
    out = sublattice_with_zero_prefix(IntMatrix.identity(5), 2)
    assert out.data == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


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
    h, u = hnf(a)
    c = solve_in_rowspace([2, 3, 2], h, u)
    assert c is not None
    assert [sum(c[i] * a[i][j] for i in range(2)) for j in range(3)] == [2, 3, 2]
    assert solve_in_rowspace([1, 0, 0], h, u) is None


def test_membership_and_saturation():
    basis = hnf_basis([[2, 0], [0, 3]])
    assert in_rowspace([4, 3], basis)
    assert not in_rowspace([1, 0], basis)
    assert saturation_order([1, 0], basis) == 2
    assert saturation_order([1, 1], basis) == 6
    basis2 = hnf_basis([[1, 0, 0]])
    assert saturation_order([0, 1, 0], basis2) is None


_SMALL = st.integers(min_value=-9, max_value=9)


@st.composite
def int_matrices(draw, max_dim=5):
    r = draw(st.integers(min_value=1, max_value=max_dim))
    c = draw(st.integers(min_value=1, max_value=max_dim))
    data = draw(st.lists(st.lists(_SMALL, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    return IntMatrix.from_rows(data, cols=c)


@pytest.mark.property_suite
@settings(max_examples=1000, deadline=None)
@given(int_matrices())
def test_snf_correctness(m):
    d, u, v = snf(m)
    assert (u @ m @ v).data == d.data
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    diag = [d.data[i][i] for i in range(min(d.rows, d.cols))]
    for i in range(min(d.rows, d.cols)):
        for j in range(d.cols):
            if i != j and j < d.cols:
                assert d.data[i][j] == 0 or i == j
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    assert all(x >= 0 for x in diag)
    # idempotence: SNF of D is D again
    assert snf_diagonal(d) == diag


@pytest.mark.property_suite
@settings(max_examples=1000, deadline=None)
@given(int_matrices(), st.data())
def test_hnf_canonicity(m, data):
    h1, u1 = hnf(m)
    assert (u1 @ m).data == h1.data
    assert abs(det(u1)) == 1
    # row-equivalent matrix: shuffle rows and add a multiple of one row to another
    rows = [list(r) for r in m.data]
    perm = data.draw(st.permutations(range(len(rows))))
    rows = [rows[i] for i in perm]
    if len(rows) > 1:
        i, j = data.draw(st.tuples(
            st.integers(0, len(rows) - 1), st.integers(0, len(rows) - 1)))
        if i != j:
            k = data.draw(_SMALL)
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
    h2, _ = hnf(IntMatrix.from_rows(rows, cols=m.cols))
    assert h1.data == h2.data


@settings(max_examples=400, deadline=None)
@given(int_matrices(max_dim=4))
def test_kernel_rows_annihilate(m):
    for c in kernel_basis(m):
        combo = [sum(c[i] * m.data[i][j] for i in range(m.rows))
                 for j in range(m.cols)]
        assert combo == [0] * m.cols


@settings(max_examples=400, deadline=None)
@given(int_matrices(max_dim=4), st.integers(0, 3))
def test_zero_prefix_soundness(m, p):
    p = min(p, m.cols)
    out = sublattice_with_zero_prefix(m, p)
    basis = hnf_basis(m)
    for row in out.data:
        padded = [0] * p + row
        assert in_rowspace(padded, basis)


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
