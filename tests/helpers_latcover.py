"""Shared builders for the worked lattice data used across test modules."""

import functools
import heapq
import importlib.util
import random
from collections import deque
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from latcover.exactnum import (CycloElt, cyclotomic_polynomial, to_literal,
                               zeta)
from latcover.fpgroups import (CosetTable, EnumerationLimit, Presentation,
                               Word, _check_letters, braid_relator)
from latcover.intlinalg import hnf, quotient_invariants, saturation_order
from latcover.nq2 import ClassTwoElement, _unit_wedge, wedge_size
from latcover.pathlift import (ARG_STEP_LIMIT, Z0, LiftedPresentation,
                               lift_presentation)
from latcover.presets import Lattice, dm_lattice
from latcover.su21 import GroupMatrix, HermitianForm, scale_to_su


ROOT = Path(__file__).resolve().parents[1]


def load_script(name: str, path: Path):
    """Import a script outside the package (perfbench/, tools/) by path."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.lru_cache(maxsize=None)
def kernel_mod3_words(seed: int) -> Tuple[Word, ...]:
    """The cosets benchmark's generators of the index-6048 kernel of
    reduction mod the prime above 3 on dm-11-7-2-2-2-12 (300 letters, the
    benchmark's budget), as words of the preset's presentation."""
    reference = load_script("perfbench_reference",
                            ROOT / "perfbench" / "reference.py")
    name = "dm-11-7-2-2-2-12"
    files = reference.PresetFiles(ROOT / "src" / "latcover" / "presets" / name)
    pres = dm_lattice(name).presentation
    return tuple(pres.word(text) for text in
                 reference.kernel_words(files, random.Random(seed), 300))


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
    """The matrix fixture text (see `su21.parse_matrix_file`) of a form
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


def raw_lift(lattice: Lattice) -> LiftedPresentation:
    """The lattice's lift before the generator gauge is normalized."""
    return lift_presentation(lattice.presentation, lattice.central_powers,
                             lattice.numerics())


def reference_tietze_reduce(pres: Presentation,
                            budget: int = 20000) -> Presentation:
    """The reference for `fpgroups.tietze_reduce`'s moves: the same
    eliminations and substitutions in the same order, with a step budget,
    rebuilding and re-reducing every relator after every move, and the same
    letter bound, summed over the whole relator list on entry and before
    each substitution.

    Relators keep the original generator ids while moves run; the survivors
    are renumbered once, in order, at the end.
    """
    _check_letters("Tietze relators", sum(len(r) for r in pres.relators))
    alive = set(range(pres.ngens))
    relators = [r.cyclically_reduced() for r in pres.relators]
    steps = 0

    def substitute(word: Word, gen: int, repl: Word) -> Word:
        if all(g != gen for g, _ in word.syllables):
            return word
        inv_repl = repl.inv()
        out: List[Tuple[int, int]] = []
        for g, e in word.syllables:
            if g != gen:
                out.append((g, e))
            else:
                part = (repl if e > 0 else inv_repl).syllables
                out.extend(part * abs(e))
        return Word(out)

    def cleanup():
        # w and w^-1 are the same relator
        nonlocal relators
        seen = set()
        cleaned = []
        for r in relators:
            r = r.cyclically_reduced()
            if (r.is_identity or r.syllables in seen
                    or r.inv().syllables in seen):
                continue
            seen.add(r.syllables)
            cleaned.append(r)
        relators = cleaned

    def try_eliminate() -> bool:
        nonlocal relators, steps
        best = None
        for ri, rel in enumerate(relators):
            counts: Dict[int, int] = {}
            for g, e in rel.syllables:
                counts[g] = counts.get(g, 0) + abs(e)
            length = sum(counts.values())
            for g, c in counts.items():
                if c == 1:
                    key = (length, g, ri)
                    if best is None or key < best:
                        best = key
        if best is None:
            return False
        _, gen, ri = best
        rel = relators.pop(ri)
        # rotate the single occurrence of gen to the front
        syl = list(rel.syllables)
        pos = next(i for i, (g, _) in enumerate(syl) if g == gen)
        rotated = Word(syl[pos:] + syl[:pos])
        head_gen, head_exp = rotated.syllables[0]
        tail = Word(rotated.syllables[1:])
        # gen^(+-1) * tail = 1  =>  gen = tail^-1, or tail
        repl = tail.inv() if head_exp == 1 else tail
        grow = len(repl) - 1
        _check_letters("Tietze relators", sum(
            len(r) + grow * sum(abs(e) for g, e in r.syllables if g == gen)
            for r in relators))
        relators = [substitute(r, gen, repl) for r in relators]
        alive.discard(gen)
        steps += 1
        return True

    def encode(word: Word) -> str:
        return "".join([chr(32 + x) for x in word.columns()])

    def shorten_pass() -> bool:
        """One sweep replacing long chunks of relators using shorter relators."""
        nonlocal relators, steps
        improved = False
        order = sorted(range(len(relators)), key=lambda i: len(relators[i]))
        for si in order:
            short = relators[si]
            ls = len(short)
            if ls < 2 or ls > 40:
                continue
            # each rotation of short or of its inverse is a window of the
            # doubled letters, matched as a window of the doubled text
            doubles = [(w.letters() * 2, encode(w) * 2)
                       for w in (short, short.inv())]
            need = ls // 2 + 1
            for li in range(len(relators)):
                if steps >= budget:
                    return improved
                long = relators[li]
                if li == si or len(long) < need:
                    continue
                n = len(long)
                cyclic = encode(long) * 2
                match = None
                for dbl, dbl_text in doubles:
                    top = min(ls, n)
                    for start in range(ls):
                        pos = cyclic.find(dbl_text[start:start + need])
                        if pos < 0 or pos >= n:
                            continue
                        run = need
                        while (run < top
                               and cyclic[pos + run] == dbl_text[start + run]):
                            run += 1
                        if match is None or run > match[0]:
                            match = (run, dbl, start, pos)
                    if match:
                        break
                if match is None:
                    continue
                run, dbl, start, lstart = match
                # the matched chunk equals a rotation prefix of the short
                # relator, so it also equals the inverse of that rotation's
                # suffix; swap it in and keep the result if shorter
                variant = dbl[start:start + ls]
                suffix = Word(variant[run:])
                long_letters = long.letters()
                rest = [long_letters[(lstart + k) % n] for k in range(run, n)]
                new_long = (suffix.inv() * Word(rest)).cyclically_reduced()
                if len(new_long) < len(long):
                    relators[li] = new_long
                    steps += 1
                    improved = True
        return improved

    cleanup()
    while steps < budget:
        if try_eliminate():
            cleanup()
            continue
        if shorten_pass():
            cleanup()
            continue
        break

    kept = sorted(alive)
    index_map = {g: i for i, g in enumerate(kept)}
    return Presentation([pres.gens[g] for g in kept],
                        [r.remap(index_map) for r in relators])


def reference_todd_coxeter(pres: Presentation,
                           subgroup_gens: Sequence[Word] = (),
                           max_cosets: int = 10 ** 6) -> CosetTable:
    """The reference for `fpgroups.todd_coxeter`: the same HLT definitions
    and coincidences in the same order, with each path's backward columns
    inverted letter by letter, a `rep` call after every relator scan and on
    every entry during standardization.

    Returns the standardized complete table or raises EnumerationLimit.
    """
    _check_letters("relators and subgroup words",
                   sum(len(w) for w in (*pres.relators, *subgroup_gens)))
    d = pres.ngens
    ncols = 2 * d
    relator_paths = [rel.columns() for rel in pres.relators]
    subgroup_paths = [w.columns() for w in subgroup_gens]

    table: List[List[Optional[int]]] = [[None] * ncols]
    parent = [0]
    dead_count = 0

    def rep(k: int) -> int:
        root = k
        while parent[root] != root:
            root = parent[root]
        while parent[k] != root:
            parent[k], k = root, parent[k]
        return root

    def inv_col(x: int) -> int:
        return x ^ 1

    def define(alpha: int, x: int) -> int:
        if len(table) >= max_cosets:
            raise EnumerationLimit(
                f"coset limit {max_cosets} exceeded during enumeration")
        beta = len(table)
        table.append([None] * ncols)
        parent.append(beta)
        table[alpha][x] = beta
        table[beta][inv_col(x)] = alpha
        return beta

    def coincidence(a: int, b: int) -> None:
        nonlocal dead_count
        queue = deque()

        def merge(k: int, l: int) -> None:
            nonlocal dead_count
            k, l = rep(k), rep(l)
            if k == l:
                return
            if k > l:
                k, l = l, k
            parent[l] = k
            dead_count += 1
            queue.append(l)

        merge(a, b)
        while queue:
            gamma = queue.popleft()
            row = table[gamma]
            for x in range(ncols):
                delta = row[x]
                if delta is None:
                    continue
                table[delta][inv_col(x)] = None
                mu, nu = rep(gamma), rep(delta)
                if table[mu][x] is not None:
                    merge(nu, table[mu][x])
                elif table[nu][inv_col(x)] is not None:
                    merge(mu, table[nu][inv_col(x)])
                else:
                    table[mu][x] = nu
                    table[nu][inv_col(x)] = mu

    def scan_and_fill(alpha: int, path: List[int]) -> None:
        if not path:
            return
        f, b = alpha, alpha
        i, j = 0, len(path) - 1
        while True:
            while i <= j and table[f][path[i]] is not None:
                f = table[f][path[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][inv_col(path[j])] is not None:
                b = table[b][inv_col(path[j])]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if i == j:
                table[f][path[i]] = b
                table[b][inv_col(path[i])] = f
                return
            f = define(f, path[i])
            i += 1

    for path in subgroup_paths:
        scan_and_fill(0, path)

    alpha = 0
    while alpha < len(table):
        if rep(alpha) != alpha:
            alpha += 1
            continue
        for path in relator_paths:
            scan_and_fill(alpha, path)
            if rep(alpha) != alpha:
                break
        if rep(alpha) == alpha:
            for x in range(ncols):
                if table[alpha][x] is None:
                    define(alpha, x)
        alpha += 1

    # standardize: relabel the live cosets in breadth-first scan order
    order = [0]
    relabel = {0: 0}
    for c in order:
        for x in range(ncols):
            nxt = rep(table[c][x])
            if nxt not in relabel:
                relabel[nxt] = len(order)
                order.append(nxt)
    final = [[relabel[rep(table[c][x])] for x in range(ncols)] for c in order]

    result = CosetTable(d, final)
    if not result.validates(pres, subgroup_gens):
        raise AssertionError("enumeration produced an invalid table")
    return result


def reference_central_power(word: Word, gens: Sequence[GroupMatrix],
                            form: HermitianForm) -> Optional[int]:
    """The reference for `presets.central_power`: the word's product taken
    letter by letter, left to right, compared with each zeta_3^j * Id."""
    inverses = [g.inv() for g in gens]
    product = GroupMatrix.identity(form)
    for g, sign in word.letters():
        product = product * (gens[g] if sign > 0 else inverses[g])
    return next((j for j in range(3)
                 if product == GroupMatrix.scalar(zeta(3) ** j, form)), None)


def reference_relator_path(word: Word, logs, samples_per_letter: int):
    """The reference for `pathlift.relator_path`'s samples, as (s, values):
    every segment is sampled from scratch, with fresh times, phases and end
    matrix, and refined by doubling its sample count."""
    import numpy as np
    from latcover.pathlift import ARG_STEP_LIMIT

    letters = list(reversed(word.letters()))
    s_parts, value_parts = [np.array([0.0])], [np.array([1.0 + 0.0j])]
    accumulated = np.eye(3, dtype=complex)
    for seg, (gen, sign) in enumerate(letters):
        log = logs[gen]
        start = accumulated @ Z0
        n = samples_per_letter
        while True:
            times = np.arange(1, n + 1) / n
            coeffs = log.vecs[2, :] * (log.vecs_inv @ start)
            phases = np.exp(1j * sign * np.outer(times, log.thetas))
            values = phases @ coeffs
            all_vals = np.concatenate(([value_parts[-1][-1]], values))
            if np.abs(np.angle(all_vals[1:] / all_vals[:-1])).max() \
                    < ARG_STEP_LIMIT:
                break
            n *= 2
        s_parts.append((seg + times) / max(len(letters), 1))
        value_parts.append(values)
        accumulated = log.exp_at(1.0, sign) @ accumulated
    if not letters:
        s_parts.append(np.array([1.0]))
        value_parts.append(np.array([1.0 + 0.0j]))
    return np.concatenate(s_parts), np.concatenate(value_parts)


def reference_unit_elimination(rows: List[Dict[int, int]],
                               frozen: Optional[int]):
    """The reference for `nq2._unit_elimination`: the same pivots, row
    operations and final rows, with a row set kept for every column,
    the frozen one included."""
    col_rows: Dict[int, set] = {}
    for i, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, set()).add(i)
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapq.heapify(heap)
    chosen, pivots, log = set(), [], []
    while heap:
        size, p = heapq.heappop(heap)
        row = rows[p]
        if p in chosen or size != len(row):
            continue
        units = [c for c, e in row.items() if e in (1, -1) and c != frozen]
        if not units:
            continue
        col = min(units, key=lambda c: (len(col_rows[c]), c))
        unit = row[col]
        chosen.add(p)
        for c in row:
            col_rows[c].discard(p)
        pivots.append((col, p, unit))
        for i in sorted(col_rows[col]):
            target = rows[i]
            q = target[col] * unit
            for c, e in row.items():
                value = target.get(c, 0) - q * e
                if value:
                    if c not in target:
                        col_rows[c].add(i)
                    target[c] = value
                else:
                    del target[c]
                    col_rows[c].discard(i)
            log.append((i, q, p))
            heapq.heappush(heap, (len(target), i))
    return pivots, log
