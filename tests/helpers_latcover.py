"""Shared builders for the worked lattice data used across test modules."""

from fractions import Fraction
from math import gcd

from latcover.exactnum import (CycloElt, cyclotomic_polynomial, to_literal,
                               zeta)
from latcover.fpgroups import Presentation, Word, braid_relator
from latcover.intlinalg import hnf, quotient_invariants, saturation_order
from latcover.nq2 import ClassTwoElement, _unit_wedge, wedge_size
from latcover.presets import Lattice
from latcover.su21 import GroupMatrix, HermitianForm, scale_to_su


def euler_phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def det(m) -> int:
    """Exact determinant of a square matrix (rows) by fraction-free (Bareiss)
    elimination; the reference for unimodularity and minors."""
    a = [list(r) for r in m]
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


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def hnf_with_transform(m):
    """(H, U) with H = U*m the Hermite form of m, zero rows last, and U
    unimodular: `hnf` of [m | I], each row split after m's columns."""
    width = len(m[0]) if m else 0
    rows = hnf([list(row) + [int(i == j) for j in range(len(m))]
                for i, row in enumerate(m)])
    return [row[:width] for row in rows], [row[width:] for row in rows]


def kernel_basis(m):
    """Integer basis of the left kernel {c : c * m = 0}, as rows."""
    h, u = hnf_with_transform(m)
    return [u[i] for i, row in enumerate(h) if not any(row)]


def sublattice_with_zero_prefix(l_rows, prefix_width):
    """Generators of {v in rowspace : v's first prefix_width coords vanish},
    projected to the trailing coordinates."""
    total = len(l_rows[0]) if l_rows else prefix_width
    if any(len(r) != total for r in l_rows):
        raise ValueError("ragged rows")
    if prefix_width > total:
        raise ValueError(f"prefix {prefix_width} exceeds width {total}")
    return [row[prefix_width:] for row in hnf(l_rows)
            if not any(row[:prefix_width])]


def relation_rows(q):
    """Rows generating the relation subgroup of an NQ2 quotient: collected
    relator coordinates plus the zero-prefixed central lattice basis. These
    generate under collected multiplication, not under integer row sums."""
    rows = [list(e.a) + list(e.m) for e in q.relator_images]
    return rows + [[0] * q.n + list(r) for r in q.center_basis]


def solve_in_rowspace(target, h, u):
    """Given (H, U) = hnf_with_transform(A), return integer c with
    c*A = target, or None."""
    y = [0] * len(h)
    v = list(target)
    for i, row in enumerate(h):
        p = next((j for j, x in enumerate(row) if x), None)
        if p is None:
            continue
        if v[p] % row[p]:
            return None
        y[i] = q = v[p] // row[p]
        if q:
            for j in range(p, len(v)):
                v[j] -= q * row[j]
    if any(v):
        return None
    return [sum(yi * u[i][j] for i, yi in enumerate(y))
            for j in range(len(u))]


class TransformNQ2:
    """Class-2 quotient through the HNF transform of the relator images'
    generator blocks: the reference for NQ2's echelon of group elements.

    Every zero row of the HNF gives a relator product, in index order,
    whose generator block cancels; its m-part is a central relation.  A
    query's residue is taken against the relator product, in index order,
    with the query's generator block."""

    def __init__(self, n, relator_images):
        self.n = n
        self.images = list(relator_images)
        self.h, self.u = hnf_with_transform([list(e.a) for e in self.images])
        self.abasis = [row for row in self.h if any(row)]
        rows = [_unit_wedge(n, h, k) for h in self.abasis for k in range(n)]
        rows += [list(self._product(urow).m)
                 for hrow, urow in zip(self.h, self.u) if not any(hrow)]
        self.center_basis = hnf(rows)
        self.abelianization = quotient_invariants(n, self.abasis)
        self.derived_part = quotient_invariants(wedge_size(n),
                                                self.center_basis)

    def _product(self, coeffs):
        out = ClassTwoElement.identity(self.n)
        for elt, c in zip(self.images, coeffs):
            if c:
                out = out * elt ** c
        return out

    def central_residue(self, elt):
        coeffs = solve_in_rowspace(list(elt.a), self.h, self.u)
        if coeffs is None:
            return None
        return [x - y for x, y in zip(elt.m, self._product(coeffs).m)]

    def order_of(self, elt):
        d1 = saturation_order(list(elt.a), self.abasis)
        if d1 is None:
            return None
        d2 = saturation_order(self.central_residue(elt ** d1),
                              self.center_basis)
        return None if d2 is None else d1 * d2


def serialize_matrix_file(conductor, form, matrices):
    """The matrix fixture text (see `su21.parse_matrix_entries`) of a form
    and named group matrices, entries written over the given conductor."""
    def literal(e):
        return to_literal(e.promote(conductor))

    out = [f"conductor {conductor}"]
    if form.is_standard:
        out.append("form standard")
    else:
        out.append("form custom")
        for row in form.matrix:
            out.extend(literal(e) for e in row)
    for name, g in matrices.items():
        out.append(f"matrix {name}")
        for row in g.exact:
            out.extend(literal(e) for e in row)
    return "\n".join(out) + "\n"


# ------------------------------------------------ cyclotomic reference
# Fraction-coefficient polynomial arithmetic modulo Phi_n, the reference for
# CycloElt's integer-numerator kernel. Elements are coefficient tuples.


def ref_reduce(n, coeffs):
    """Reduce a Fraction polynomial in zeta_n modulo Phi_n; pad to phi(n)."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    work = [Fraction(c) for c in coeffs]
    for k in range(len(work) - 1, deg - 1, -1):
        c = work[k]
        if c:
            for j in range(deg + 1):
                work[k - deg + j] -= c * phi[j]
        work.pop()
    return tuple(work + [Fraction(0)] * (deg - len(work)))


def ref_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def ref_mul(n, a, b):
    return ref_reduce(n, _poly_mul(list(a), list(b)))


def ref_promote(n, a, m):
    """The image in Q(zeta_m) of a in Q(zeta_n), n dividing m."""
    step = m // n
    out = [Fraction(0)] * ((len(a) - 1) * step + 1)
    for k, c in enumerate(a):
        out[k * step] = c
    return ref_reduce(m, out)


def ref_conjugate(n, a):
    """zeta_n -> zeta_n^(n-1), term by term."""
    out = [Fraction(0)] * ((len(a) - 1) * (n - 1) + 1)
    for k, c in enumerate(a):
        out[k * (n - 1)] += c
    return ref_reduce(n, out)


def ref_inv(n, a):
    """Inverse of a nonzero a by the extended Euclidean algorithm with Phi_n."""
    r0 = [Fraction(c) for c in cyclotomic_polynomial(n)]
    r1 = list(a)
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while any(r1):
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s1_q = _poly_mul(q, s1)
        width = max(len(s0), len(s1_q))
        s0, s1 = s1, [(s0[i] if i < len(s0) else 0)
                      - (s1_q[i] if i < len(s1_q) else 0)
                      for i in range(width)]
    g = next(c for c in reversed(r0) if c)
    return ref_reduce(n, [c / g for c in s0])


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_divmod(num, den):
    num = list(num)
    while den and den[-1] == 0:
        den = den[:-1]
    dd = len(den) - 1
    if len(num) - 1 < dd:
        return [Fraction(0)], num
    quot = [Fraction(0)] * (len(num) - dd)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + dd] / den[-1]
        quot[k] = c
        for j, dj in enumerate(den):
            num[k + j] -= c * dj
    return quot, num[:dd] or [Fraction(0)]


def _c(x):
    return CycloElt.rational(x, 1) if not isinstance(x, CycloElt) else x


def _mat(rows):
    return tuple(tuple(_c(x) for x in row) for row in rows)


def picard_unscaled():
    """Unscaled generators of the (5,4,1,1,1)/6 lattice, conductor 6."""
    form = HermitianForm.standard()
    s = 2 * zeta(6) - 1            # sqrt(-3)
    c = (2 * zeta(6) - 1) / 3      # -1/sqrt(-3)
    b0 = GroupMatrix(form, _mat([
        [1, 0, c],
        [0, zeta(6, 5), 0],
        [s, 0, 0],
    ]))
    u0 = GroupMatrix(form, _mat([
        [zeta(6, 5), 0, 0],
        [s, zeta(6), 0],
        [s, s, zeta(6, 5)],
    ]))
    v0 = GroupMatrix(form, _mat([
        [zeta(6), 0, 0],
        [0, zeta(3), 0],
        [0, 0, zeta(6)],
    ]))
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
