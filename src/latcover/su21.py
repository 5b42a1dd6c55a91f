"""Matrix layer for SU(2,1): exact hermitian-form checks, determinant
scaling, numeric Iwasawa coordinates, and the homogeneous last-coordinate
projection used by the winding engine."""

from __future__ import annotations

import cmath
import math
from typing import Dict, Optional, Tuple

import numpy as np

from .exactnum import (CycloElt, dot, embed_complex, parse_cyclo, to_literal,
                       zeta_power)

DEFAULT_EMBED_BITS = 96
UNITARY_TOL = 1e-8
NONVANISHING_TOL = 1e-8

# distinguished h-negative vector: last coordinate of g*z0 never vanishes
Z0 = np.array([-1.0, 0.0, 1.0], dtype=complex)

ExactMatrix = Tuple[Tuple[CycloElt, ...], ...]


def _as_exact_matrix(entries) -> ExactMatrix:
    rows = tuple(tuple(entry for entry in row) for row in entries)
    if len(rows) != 3 or any(len(row) != 3 for row in rows):
        raise ValueError("expected a 3x3 matrix")
    for row in rows:
        for entry in row:
            if not isinstance(entry, CycloElt):
                raise TypeError(f"matrix entries must be CycloElt, got {entry!r}")
    return rows


def _exact_matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    cols = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def _exact_conj_transpose(a: ExactMatrix) -> ExactMatrix:
    return tuple(tuple(a[j][i].conjugate() for j in range(3)) for i in range(3))


def _exact_det(a: ExactMatrix) -> CycloElt:
    return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))


def _exact_adjugate(a: ExactMatrix) -> ExactMatrix:
    def minor(i, j):
        rows = [r for r in range(3) if r != i]
        cols = [c for c in range(3) if c != j]
        return (a[rows[0]][cols[0]] * a[rows[1]][cols[1]]
                - a[rows[0]][cols[1]] * a[rows[1]][cols[0]])

    cof = [[minor(i, j) * ((-1) ** (i + j)) for j in range(3)] for i in range(3)]
    return tuple(tuple(cof[j][i] for j in range(3)) for i in range(3))


def _exact_scalar_mul(s: CycloElt, a: ExactMatrix) -> ExactMatrix:
    return tuple(tuple(s * entry for entry in row) for row in a)


def _exact_identity() -> ExactMatrix:
    one, zero = CycloElt.one(), CycloElt.zero()
    return ((one, zero, zero), (zero, one, zero), (zero, zero, one))


def _exact_standard_form() -> ExactMatrix:
    one, zero = CycloElt.one(), CycloElt.zero()
    return ((zero, zero, one), (zero, one, zero), (one, zero, zero))


def _numeric_from_exact(a: ExactMatrix, bits: int = DEFAULT_EMBED_BITS) -> np.ndarray:
    """The one exact-to-float boundary: entries embedded at `bits` bits, then
    rounded to complex doubles. The entries share one table of roots."""
    roots: dict = {}
    return np.array([[complex(embed_complex(entry, bits, roots))
                      for entry in row] for row in a])


class HermitianForm:
    """3x3 hermitian matrix of signature (2,1) over exact cyclotomics."""

    __slots__ = ("matrix", "numeric")

    def __init__(self, matrix):
        self.matrix = _as_exact_matrix(matrix)
        if _exact_conj_transpose(self.matrix) != self.matrix:
            raise ValueError("form matrix is not hermitian")
        self.numeric = _numeric_from_exact(self.matrix)
        eigs = np.linalg.eigvalsh(self.numeric)
        if not (eigs[0] < -1e-9 and eigs[1] > 1e-9 and eigs[2] > 1e-9):
            raise ValueError(f"form does not have signature (2,1): eigenvalues {eigs}")

    @staticmethod
    def standard() -> "HermitianForm":
        return HermitianForm(_exact_standard_form())

    @property
    def is_standard(self) -> bool:
        return self.matrix == _exact_standard_form()

    def __eq__(self, other) -> bool:
        if not isinstance(other, HermitianForm):
            return NotImplemented
        return self.matrix == other.matrix

    def __repr__(self) -> str:
        return f"HermitianForm({[[to_literal(e) for e in row] for row in self.matrix]})"


class GroupMatrix:
    """Matrix with exact cyclotomic entries and a hermitian form attached;
    its complex view `numeric` is embedded on first read."""

    __slots__ = ("exact", "form", "_numeric")

    def __init__(self, form: HermitianForm, exact: ExactMatrix):
        self.form = form
        self.exact = _as_exact_matrix(exact)
        self._numeric: Optional[np.ndarray] = None

    @property
    def numeric(self) -> np.ndarray:
        if self._numeric is None:
            self._numeric = _numeric_from_exact(self.exact)
        return self._numeric

    @staticmethod
    def identity(form: HermitianForm) -> "GroupMatrix":
        return GroupMatrix(form, _exact_identity())

    @staticmethod
    def scalar(value: CycloElt, form: HermitianForm) -> "GroupMatrix":
        zero = CycloElt.zero()
        return GroupMatrix(form, ((value, zero, zero),
                                  (zero, value, zero),
                                  (zero, zero, value)))

    def __mul__(self, other: "GroupMatrix") -> "GroupMatrix":
        if self.form is not other.form and self.form != other.form:
            raise ValueError("cannot multiply matrices over different forms")
        return GroupMatrix(self.form, _exact_matmul(self.exact, other.exact))

    def inv(self) -> "GroupMatrix":
        det = _exact_det(self.exact)
        return GroupMatrix(self.form,
                           _exact_scalar_mul(det.inv(), _exact_adjugate(self.exact)))

    def __pow__(self, k: int) -> "GroupMatrix":
        if k < 0:
            return self.inv() ** (-k)
        if k <= 1:
            return self if k else GroupMatrix.identity(self.form)
        half = self ** (k // 2)
        return half * half * self if k % 2 else half * half

    def scale(self, s: CycloElt) -> "GroupMatrix":
        return GroupMatrix(self.form, _exact_scalar_mul(s, self.exact))

    def det(self) -> CycloElt:
        return _exact_det(self.exact)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupMatrix):
            return NotImplemented
        return self.exact == other.exact

    def __repr__(self) -> str:
        return f"GroupMatrix({[[to_literal(e) for e in row] for row in self.exact]})"


def check_unitary(g: GroupMatrix) -> bool:
    """True iff g* h g = h holds exactly."""
    lhs = _exact_matmul(_exact_conj_transpose(g.exact),
                        _exact_matmul(g.form.matrix, g.exact))
    return lhs == g.form.matrix


def scale_to_su(g: GroupMatrix) -> GroupMatrix:
    """Divide by the principal cube root of the determinant, landing in SU.

    The principal cube root is the one with argument in (-pi/3, pi/3].
    """
    det = g.det()
    rep = det.root_of_unity_exponent()
    if rep is None:
        raise ValueError(f"determinant {to_literal(det)} is not a root of unity")
    m, a = rep
    # cube roots of zeta_m^a are zeta_{3m}^(a+m*k); principal means the
    # exponent e = a mod m recentred into (-m/2, m/2]
    e = a % m
    if e > m // 2:
        e -= m
    scaled = g.scale(zeta_power(3 * m, -e))
    if scaled.det() != CycloElt.one():
        raise AssertionError("determinant scaling failed to reach det 1")
    return scaled


class IwasawaCoords:
    """Coordinates g = b(lam, zvec, t) * k(k_su, xi) for the standard form."""

    __slots__ = ("lam", "zvec", "t", "k_su", "xi")

    def __init__(self, lam: float, zvec: complex, t: float,
                 k_su: np.ndarray, xi: complex):
        if lam <= 0:
            raise ValueError(f"lambda must be positive, got {lam}")
        if abs(abs(xi) - 1.0) > 1e-6:
            raise ValueError(f"xi must have unit modulus, got {xi}")
        self.lam = float(lam)
        self.zvec = complex(zvec)
        self.t = float(t)
        self.k_su = np.asarray(k_su, dtype=complex)
        self.xi = complex(xi)

    def b_matrix(self) -> np.ndarray:
        lam, z, t = self.lam, self.zvec, self.t
        return np.array([
            [lam, -lam * z.conjugate(), -lam * abs(z) ** 2 / 2 + 1j * t],
            [0.0, 1.0, z],
            [0.0, 0.0, 1.0 / lam],
        ], dtype=complex)

    def k_matrix(self) -> np.ndarray:
        # eta restores det(U) = xi^-1 from the special-unitary block
        eta = _principal_sqrt(1.0 / self.xi)
        u_block = eta * self.k_su
        block = np.zeros((3, 3), dtype=complex)
        block[:2, :2] = u_block
        block[2, 2] = self.xi
        p = _frame_matrix()
        return p @ block @ p.T

    def matrix(self) -> np.ndarray:
        return self.b_matrix() @ self.k_matrix()


def _principal_sqrt(w: complex) -> complex:
    return cmath.exp(0.5j * cmath.phase(w)) * math.sqrt(abs(w))


def _frame_matrix() -> np.ndarray:
    """Columns: h-orthonormal basis f1=(e1+e3)/sqrt2, f2=e2 of the z0-
    perpendicular plane, then the normalized negative vector z0/sqrt2."""
    s = 1.0 / math.sqrt(2.0)
    return np.array([
        [s, 0.0, -s],
        [0.0, 1.0, 0.0],
        [s, 0.0, s],
    ], dtype=complex)


_H_STD = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)


def unitarity_residual(g: np.ndarray) -> float:
    return float(np.max(np.abs(g.conj().T @ _H_STD @ g - _H_STD)))


def standard_form_conjugator(form: HermitianForm) -> np.ndarray:
    """Numeric C with C* h_std C = h, so g -> C g C^-1 carries h-unitary
    matrices to standard-form unitaries."""
    if form.is_standard:
        return np.eye(3, dtype=complex)
    eigvals, vecs = np.linalg.eigh(form.numeric)
    # eigenvalues ascend, so the signature check pins the signs: one
    # negative direction, two positive
    a = np.vstack([
        math.sqrt(eigvals[1]) * vecs[:, 1].conj(),
        math.sqrt(eigvals[2]) * vecs[:, 2].conj(),
        math.sqrt(-eigvals[0]) * vecs[:, 0].conj(),
    ])
    # a* diag(1,1,-1) a = h; q is its own inverse and turns diag(1,1,-1)
    # into the antidiagonal form, q* diag(1,1,-1) q = h_std
    s = 1.0 / math.sqrt(2.0)
    q = np.array([[s, 0, s], [0, 1, 0], [s, 0, -s]], dtype=complex)
    return q @ a


def iwasawa(g: np.ndarray, tol: float = UNITARY_TOL) -> IwasawaCoords:
    """Iwasawa coordinates of a numeric SU(2,1) matrix (standard form)."""
    mat = np.asarray(g, dtype=complex)
    residual = unitarity_residual(mat)
    if residual > tol:
        raise ValueError(f"matrix is not h-unitary: residual {residual:.3e}")
    det = np.linalg.det(mat)
    if abs(det - 1.0) > 1e-6:
        raise ValueError(f"matrix is not special: det {det}")
    w = mat @ Z0
    lam = 1.0 / abs(w[2])
    xi = w[2] * lam
    zvec = w[1] / xi
    t = (w[0] / xi).imag
    coords_b = IwasawaCoords(lam, zvec, t, np.eye(2), 1.0)
    k = np.linalg.inv(coords_b.b_matrix()) @ mat
    # unitary block on the z0-perpendicular plane, read off via the form
    f1 = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
    f2 = np.array([0.0, 1.0, 0.0])
    frame = [f1, f2]
    u_block = np.array([[fi.conj() @ _H_STD @ (k @ fj) for fj in frame]
                        for fi in frame])
    eta = _principal_sqrt(1.0 / xi)
    k_su = u_block / eta
    return IwasawaCoords(lam, zvec, t, k_su, xi)


def homog_project(g: np.ndarray, tol: float = NONVANISHING_TOL) -> complex:
    """Last coordinate of g*z0; equals lambda^-1 * xi, never zero on SU(2,1)."""
    value = complex((np.asarray(g, dtype=complex) @ Z0)[2])
    if abs(value) < tol:
        raise ValueError(f"projection modulus {abs(value):.3e} below {tol}; "
                         "input is not close to SU(2,1)")
    return value


# ---------------------------------------------------------------- fixture files


def parse_matrix_entries(text: str
                         ) -> Tuple[ExactMatrix, Dict[str, ExactMatrix]]:
    """Parse the matrix fixture format into exact entries: the form's and
    each named matrix's, nothing embedded or checked.

    Header: `conductor N`, then `form standard` or `form custom` followed by
    nine cyclotomic literal lines, then `matrix <name>` blocks each with nine
    literal lines in row-major order. `#` starts a comment.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos >= len(lines):
            raise ValueError("unexpected end of matrix file")
        line = lines[pos]
        pos += 1
        return line

    header = take()
    if not header.startswith("conductor "):
        raise ValueError(f"expected 'conductor N' header, got {header!r}")
    conductor = int(header.split()[1])

    def take_entries() -> ExactMatrix:
        entries = [parse_cyclo(take(), conductor) for _ in range(9)]
        return tuple(tuple(entries[3 * i + j] for j in range(3)) for i in range(3))

    form_line = take()
    if not form_line.startswith("form "):
        raise ValueError(f"expected 'form <name>' line, got {form_line!r}")
    form_name = form_line.split()[1]
    if form_name == "standard":
        form = _exact_standard_form()
    elif form_name == "custom":
        form = take_entries()
    else:
        raise ValueError(f"unknown form {form_name!r}")

    matrices: Dict[str, ExactMatrix] = {}
    while pos < len(lines):
        decl = take()
        if not decl.startswith("matrix "):
            raise ValueError(f"expected 'matrix <name>' line, got {decl!r}")
        name = decl.split()[1]
        if name in matrices:
            raise ValueError(f"duplicate matrix name {name!r}")
        matrices[name] = take_entries()
    return form, matrices


def parse_matrix_file(text: str) -> Tuple[HermitianForm, Dict[str, GroupMatrix]]:
    """Parse the matrix fixture format (see `parse_matrix_entries`) into a
    checked form and its group matrices."""
    entries, raw = parse_matrix_entries(text)
    form = HermitianForm(entries)
    return form, {name: GroupMatrix(form, m) for name, m in raw.items()}
