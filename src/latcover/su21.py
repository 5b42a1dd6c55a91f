"""Exact matrix layer for SU(2,1): hermitian forms with an exact signature
test, exact products and unitarity checks, determinant scaling, and the
matrix fixture format. A form's signature rests on the signs of three real
elements: zero and rationals are read exactly, the rest from doubles with an
explicit margin, and `embed_complex` decides only what that margin leaves
open. numpy and mpmath are otherwise imported only to embed a complex view on
its first read; the numeric geometry lives in `pathlift`."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from .exactnum import CycloElt, dot, embed_complex, parse_cyclo, to_literal, zeta
from .fpgroups import content_lines

if TYPE_CHECKING:
    import numpy as np

DEFAULT_EMBED_BITS = 96

# Largest conductor a matrix file may declare. Scaling into SU works at up to
# six times it, and one CycloElt.inv takes 0.03 s at conductor 360 and 0.2 s
# at 720 (2-core Xeon), so 120 keeps that under a second. Far larger headers
# only hang the loader: building Phi_n alone takes seconds at n = 100000.
MAX_CONDUCTOR = 120

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


def _cofactor(a: ExactMatrix, i: int, j: int) -> CycloElt:
    """(-1)^(i+j) times the 2x2 minor of a without row i and column j: read
    on the cyclically next rows and columns, the minor carries that sign."""
    r, s, c, d = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
    return dot((a[r][c], -a[r][d]), (a[s][d], a[s][c]))


def _exact_det(a: ExactMatrix) -> CycloElt:
    return dot(a[0], [_cofactor(a, 0, j) for j in range(3)])


def _exact_adjugate(a: ExactMatrix) -> ExactMatrix:
    return tuple(tuple(_cofactor(a, j, i) for j in range(3)) for i in range(3))


def _exact_scalar_mul(s: CycloElt, a: ExactMatrix) -> ExactMatrix:
    return tuple(tuple(s * entry for entry in row) for row in a)


def _exact_standard_form() -> ExactMatrix:
    one, zero = CycloElt.one(), CycloElt.zero()
    return ((zero, zero, one), (zero, one, zero), (one, zero, zero))


def _numeric_from_exact(a: ExactMatrix, bits: int = DEFAULT_EMBED_BITS) -> np.ndarray:
    """The one exact-to-float boundary: entries embedded at `bits` bits, then
    rounded to complex doubles. The entries share one table of roots."""
    import numpy as np
    roots: dict = {}
    return np.array([[complex(embed_complex(entry, bits, roots))
                      for entry in row] for row in a])


def _sign(x: CycloElt) -> int:
    """Sign of a real element x = sum_k num_k zeta_n^k / den (den > 0).

    Zero is decided exactly, and so is a rational x. Otherwise
    S = fsum(num_k cos(2 pi k/n)) is read in doubles: each term is off by at
    most about |num_k| 2^-48 (the angle and the cosine in doubles), so
    |S| > 2^-40 sum_k |num_k|, over 100 times that error, fixes the sign.
    When the margin does not, or a numerator does not fit a double, the sign
    is read from the embedding at DEFAULT_EMBED_BITS."""
    num = x.num
    if not any(num[1:]):
        return (num[0] > 0) - (num[0] < 0)
    try:
        s = math.fsum(c * math.cos(2 * math.pi * k / x.n)
                      for k, c in enumerate(num))
        if abs(s) > 2.0 ** -40 * sum(map(abs, num)):
            return 1 if s > 0 else -1
    except OverflowError:
        pass
    return 1 if embed_complex(x, DEFAULT_EMBED_BITS).real > 0 else -1


class HermitianForm:
    """3x3 hermitian matrix of signature (2,1) over exact cyclotomics."""

    __slots__ = ("matrix", "_numeric")

    def __init__(self, matrix):
        self.matrix = h = _as_exact_matrix(matrix)
        if _exact_conj_transpose(h) != h:
            raise ValueError("form matrix is not hermitian")
        self._numeric: Optional[np.ndarray] = None
        # Descartes' rule on the real-rooted t^3 - c2 t^2 + c1 t - c0: with
        # c0 < 0 one or three eigenvalues are negative and none is zero, three
        # exactly when c2 < 0 and c1 > 0 (c1 sums the principal 2x2 minors,
        # the diagonal cofactors)
        c2 = h[0][0] + h[1][1] + h[2][2]
        c1 = _cofactor(h, 0, 0) + _cofactor(h, 1, 1) + _cofactor(h, 2, 2)
        c0 = _exact_det(h)
        if _sign(c0) >= 0 or (_sign(c2) < 0 and _sign(c1) > 0):
            raise ValueError("form does not have signature (2,1): trace, minor "
                             f"sum, det {[to_literal(c) for c in (c2, c1, c0)]}")

    @property
    def numeric(self) -> np.ndarray:
        if self._numeric is None:
            self._numeric = _numeric_from_exact(self.matrix)
        return self._numeric

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
        return GroupMatrix.scalar(CycloElt.one(), form)

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
        adj = _exact_adjugate(self.exact)
        # row 0's cofactors are the adjugate's first column
        det = dot(self.exact[0], [row[0] for row in adj])
        return GroupMatrix(self.form, _exact_scalar_mul(det.inv(), adj))

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
    scaled = g.scale(zeta(3 * m, -e))
    if scaled.det() != CycloElt.one():
        raise AssertionError("determinant scaling failed to reach det 1")
    return scaled


# ---------------------------------------------------------------- fixture files


def parse_matrix_file(text: str) -> Tuple[HermitianForm, Dict[str, GroupMatrix]]:
    """Parse the matrix fixture format into a checked form and its group
    matrices.

    Header: `conductor N` with 1 <= N <= MAX_CONDUCTOR, then `form standard`
    or `form custom` followed by nine cyclotomic literal lines, then
    `matrix <name>` blocks each with nine literal lines in row-major order.
    `#` starts a comment.
    """
    lines = content_lines(text)
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
    if not 1 <= conductor <= MAX_CONDUCTOR:
        raise ValueError(f"conductor {conductor} is outside 1..{MAX_CONDUCTOR}")

    def take_entries() -> ExactMatrix:
        entries = [parse_cyclo(take(), conductor) for _ in range(9)]
        return tuple(tuple(entries[3 * i + j] for j in range(3)) for i in range(3))

    form_line = take()
    if not form_line.startswith("form "):
        raise ValueError(f"expected 'form <name>' line, got {form_line!r}")
    form_name = form_line.split()[1]
    if form_name == "standard":
        entries = _exact_standard_form()
    elif form_name == "custom":
        entries = take_entries()
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
    form = HermitianForm(entries)
    return form, {name: GroupMatrix(form, m) for name, m in matrices.items()}
