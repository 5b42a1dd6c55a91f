"""Shared builders for the worked lattice data used across test modules."""

from latcover.exactnum import CycloElt, zeta
from latcover.fpgroups import Presentation, Word, braid_relator
from latcover.presets import Lattice
from latcover.su21 import GroupMatrix, HermitianForm, scale_to_su


def det(m) -> int:
    """Exact determinant of a square IntMatrix by fraction-free (Bareiss)
    elimination; the reference for unimodularity checks."""
    a = [list(r) for r in m.data]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _c(x):
    return CycloElt.rational(x, 1) if not isinstance(x, CycloElt) else x


def _mat(rows):
    return tuple(tuple(_c(x) for x in row) for row in rows)


def picard_unscaled():
    """Unscaled generators of the (5,4,1,1,1)/6 lattice, conductor 6."""
    form = HermitianForm.standard()
    s = 2 * zeta(6) - 1            # sqrt(-3)
    c = (2 * zeta(6) - 1) / 3      # -1/sqrt(-3)
    b0 = GroupMatrix.from_exact(_mat([
        [1, 0, c],
        [0, zeta(6, 5), 0],
        [s, 0, 0],
    ]), form)
    u0 = GroupMatrix.from_exact(_mat([
        [zeta(6, 5), 0, 0],
        [s, zeta(6), 0],
        [s, s, zeta(6, 5)],
    ]), form)
    v0 = GroupMatrix.from_exact(_mat([
        [zeta(6), 0, 0],
        [0, zeta(3), 0],
        [0, 0, zeta(6)],
    ]), form)
    return form, b0, u0, v0


def picard_scaled():
    """Determinant-one generators b, u, v of the (5,4,1,1,1)/6 lattice."""
    form, b0, u0, v0 = picard_unscaled()
    return form, scale_to_su(b0), scale_to_su(u0), scale_to_su(v0)


def picard_presentation(v_order: int = 6) -> Presentation:
    """<b,u,v | b^3, u^3, v^order, br2(b,v), br3(b,u), br4(u,v), (buv)^3>."""
    b, u, v = Word.gen(0), Word.gen(1), Word.gen(2)
    return Presentation(["b", "u", "v"], [
        b ** 3,
        u ** 3,
        v ** v_order,
        braid_relator(0, 2, 2),
        braid_relator(0, 1, 3),
        braid_relator(1, 2, 4),
        (b * u * v) ** 3,
    ])


def picard_lattice(pres: Presentation) -> Lattice:
    """The (5,4,1,1,1)/6 generator matrices attached to a presentation on b, u, v."""
    form, b0, u0, v0 = picard_unscaled()
    return Lattice(pres, form, {"b": b0, "u": u0, "v": v0})
