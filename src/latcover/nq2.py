"""Maximal class-2 nilpotent quotients of finitely presented groups, exact
order tests for word images, and residual-finiteness certificates built from
the order of a central generator in such a quotient."""

from __future__ import annotations

import hashlib
import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from .fpgroups import (CosetTable, Presentation, Word, format_word,
                       schreier_system, serialize_presentation, todd_coxeter)
from .intlinalg import (AbelianInvariants, hnf, quotient_invariants,
                        saturation_order)


# Largest wedge coordinate count NQ2 accepts (50 generators): its center
# lattice has up to n^2 rows of this width.
MAX_WEDGE_SIZE = 1225


def wedge_size(n: int) -> int:
    return n * (n - 1) // 2


def _check_wedge_size(n: int) -> None:
    if wedge_size(n) > MAX_WEDGE_SIZE:
        raise ValueError(f"class-2 quotient on {n} generators needs "
                         f"{wedge_size(n)} wedge coordinates, over the "
                         f"limit {MAX_WEDGE_SIZE}")


def wedge_offsets(n: int) -> List[int]:
    """Start of the (i, *) block inside the lexicographic (i<j) pair order."""
    return [i * (2 * n - i - 1) // 2 for i in range(n)]


def _collect(word, images, n: int) -> Tuple[List[int], List[int]]:
    """Collected (a, m) of the product of images[g]^e over the syllables
    (g, e) of word, in the free class-2 group on n generators; an image is
    an (a, m) pair, m None meaning zero."""
    a = [0] * n
    m = [0] * wedge_size(n)
    for g, e in word:
        b, mg = images[g]
        half = e * (e - 1) // 2
        pos = 0
        for i in range(n):
            bi = b[i]
            if bi:
                # x^e is (e*b, e*m_x - half*b_i*b_j); right-multiplying by it
                # passes e*b_i across a_j for every j > i
                for j in range(i + 1, n):
                    t = e * a[j] + half * b[j]
                    if t:
                        m[pos + j - i - 1] -= bi * t
            pos += n - i - 1
        for i in range(n):
            a[i] += e * b[i]
        if mg is not None:
            for k, x in enumerate(mg):
                m[k] += e * x
    return a, m


class ClassTwoElement:
    """Element of the free class-2 nilpotent group on n generators, in the
    collected normal form x_0^a_0 ... x_{n-1}^a_{n-1} * prod_{i<j} c_ij^m_ij
    with c_ij = [x_i, x_j] = x_i^-1 x_j^-1 x_i x_j central."""

    __slots__ = ("n", "a", "m")

    def __init__(self, n: int, a: Sequence[int], m: Sequence[int]):
        self.n = n
        self.a = tuple(int(x) for x in a)
        self.m = tuple(int(x) for x in m)
        if len(self.a) != n or len(self.m) != wedge_size(n):
            raise ValueError(f"coordinate lengths {len(self.a)}/{len(self.m)} "
                             f"do not fit rank {n}")

    @staticmethod
    def identity(n: int) -> "ClassTwoElement":
        return ClassTwoElement(n, [0] * n, [0] * wedge_size(n))

    @staticmethod
    def from_word(n: int, word: Word) -> "ClassTwoElement":
        """Collect a free word left to right."""
        for g, _ in word.syllables:
            if not 0 <= g < n:
                raise ValueError(f"word uses generator {g} outside rank {n}")
        units = [([int(i == g) for i in range(n)], None) for g in range(n)]
        return ClassTwoElement(n, *_collect(word.syllables, units, n))

    def __mul__(self, other: "ClassTwoElement") -> "ClassTwoElement":
        if self.n != other.n:
            raise ValueError(f"rank mismatch {self.n} != {other.n}")
        return ClassTwoElement(self.n, *_collect(
            ((0, 1), (1, 1)), ((self.a, self.m), (other.a, other.m)), self.n))

    def inv(self) -> "ClassTwoElement":
        return self ** -1

    def __pow__(self, k: int) -> "ClassTwoElement":
        return ClassTwoElement(self.n, *_collect(
            ((0, int(k)),), ((self.a, self.m),), self.n))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassTwoElement):
            return NotImplemented
        return (self.n, self.a, self.m) == (other.n, other.a, other.m)

    def __hash__(self) -> int:
        return hash((self.n, self.a, self.m))

    def __repr__(self) -> str:
        return f"ClassTwoElement(n={self.n}, a={list(self.a)}, m={list(self.m)})"


def _unit_wedge(n: int, v: Sequence[int], k: int) -> List[int]:
    """Coordinates of v wedge e_k: entry (i,k) gets v_i, entry (k,j) gets -v_j."""
    out = [0] * wedge_size(n)
    offs = wedge_offsets(n)
    for i in range(k):
        out[offs[i] + k - i - 1] = v[i]
    base = offs[k] - k - 1
    for j in range(k + 1, n):
        out[base + j] = -v[j]
    return out


class NQ2Image:
    """Image of a word in a class-2 quotient: collected free coordinates plus
    the exact order of the image (None means infinite)."""

    __slots__ = ("a", "m", "order")

    def __init__(self, a: Sequence[int], m: Sequence[int],
                 order: Optional[int]):
        self.a = tuple(int(x) for x in a)
        self.m = tuple(int(x) for x in m)
        self.order = order

    def __eq__(self, other) -> bool:
        if not isinstance(other, NQ2Image):
            return NotImplemented
        return (self.a, self.m, self.order) == (other.a, other.m, other.order)

    def __repr__(self) -> str:
        o = "infinite" if self.order is None else self.order
        return f"NQ2Image(a={list(self.a)}, order={o})"


class NQ2:
    """Maximal class-2 nilpotent quotient of a finitely presented group.

    The quotient is the free class-2 group on n generators modulo the
    normal closure N of the relator images (collected relators, see
    `class2_quotient` and `subgroup_class2`).  Euclid steps on the images'
    generator blocks, done as group operations, leave one pivot per leading
    column and central remainders.  N is the pivots' products times the
    center lattice spanned by the remainders and every wedge h ^ e_k of a
    pivot's generator block h (its commutator with x_k); order tests
    reduce against the pivots in column order, then against that lattice
    (Sims, Computation with Finitely Presented Groups, ch. 11).
    """

    __slots__ = ("n", "relator_images", "_pivots", "_abasis",
                 "center_basis", "abelianization", "derived_part")

    def __init__(self, n: int, relator_images: Sequence[ClassTwoElement]):
        self.n = n
        self.relator_images = tuple(relator_images)
        pivots: Dict[int, ClassTwoElement] = {}
        center_rows: List[List[int]] = []
        for elt in self.relator_images:
            for c in range(n):
                if not elt.a[c]:
                    continue
                top = pivots.get(c)
                if top is None:
                    pivots[c] = elt if elt.a[c] > 0 else elt.inv()
                    break
                # the remainder has a zero here and goes on to later columns
                while elt.a[c]:
                    top, elt = elt, top * elt ** -(top.a[c] // elt.a[c])
                pivots[c] = top if top.a[c] > 0 else top.inv()
            else:
                if any(elt.m):
                    center_rows.append(list(elt.m))
        self._pivots = sorted(pivots.items())
        self._abasis = [p.a for _, p in self._pivots]
        for h in self._abasis:
            for k in range(n):
                row = _unit_wedge(n, h, k)
                if any(row):
                    center_rows.append(row)
        self.center_basis = hnf(center_rows)
        self.abelianization = quotient_invariants(n, self._abasis)
        self.derived_part = quotient_invariants(wedge_size(n),
                                                self.center_basis)

    def _central_residue(self, elt: ClassTwoElement) -> Optional[List[int]]:
        """Center coordinates of elt reduced by the pivots in column order,
        or None when the pivots cannot clear its generator block."""
        for c, p in self._pivots:
            q = elt.a[c] // p.a[c]
            if q:
                elt = elt * p ** -q
        return None if any(elt.a) else list(elt.m)

    def order_of(self, elt: ClassTwoElement) -> Optional[int]:
        """Exact order of the image of elt, None when infinite."""
        d1 = saturation_order(list(elt.a), self._abasis)
        if d1 is None:
            return None
        residue = self._central_residue(elt ** d1)
        assert residue is not None
        d2 = saturation_order(residue, self.center_basis)
        if d2 is None:
            return None
        return d1 * d2

    def abelian_order(self, a: Sequence[int]) -> Optional[int]:
        """Order of a generator-block vector in the abelianization."""
        return saturation_order(list(a), self._abasis)

    def image(self, word: Word) -> NQ2Image:
        elt = ClassTwoElement.from_word(self.n, word)
        return NQ2Image(elt.a, elt.m, self.order_of(elt))

    def __repr__(self) -> str:
        return (f"NQ2(n={self.n}, abelianization="
                f"{self.abelianization.describe()}, derived_part="
                f"{self.derived_part.describe()})")


def class2_quotient(pres: Presentation) -> NQ2:
    """Maximal class-2 nilpotent quotient of the presented group."""
    n = pres.ngens
    _check_wedge_size(n)
    return NQ2(n, [ClassTwoElement.from_word(n, rel) for rel in pres.relators])


# ------------------------------------------ subgroups from Schreier data
#
# A Schreier relator whose exponent-sum row has a unit entry in some column
# determines that generator in every nilpotent quotient.  Unit-pivot
# elimination of the rows (Sims, Computation with Finitely Presented Groups,
# ch. 11) leaves the surviving columns D; every eliminated generator's image
# in the free class-2 group on D follows by back-substitution, because the
# m-part of a product is the sum of its factors' m-parts weighted by their
# exponent sums, plus a constant that depends on the a-parts alone.


def _unit_elimination(rows: List[Dict[int, int]], frozen: Optional[int]
                      ) -> Tuple[List[Tuple[int, int, int]],
                                 List[Tuple[int, int, int]]]:
    """Eliminate columns on +-1 pivots, shortest rows first, in place.

    Returns the pivots (column, row, unit) in elimination order and the row
    operations (target, q, pivot row), each meaning target -= q * pivot.  A
    pivot row is not touched after it is chosen, so it has zeros in the
    earlier pivot columns; the frozen column never pivots."""
    col_rows: Dict[int, set] = {}
    for i, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, set()).add(i)
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapq.heapify(heap)
    chosen = set()
    pivots: List[Tuple[int, int, int]] = []
    log: List[Tuple[int, int, int]] = []
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


class _SchreierElimination:
    """Schreier relators of a subgroup (each with its z-power appended when
    central exponents are given; z is generator `ngens`) and the unit-pivot
    elimination of their exponent-sum rows."""

    __slots__ = ("words", "rows", "pivots", "log", "survivors")

    def __init__(self, table: CosetTable, pres: Presentation,
                 central: Optional[Sequence[int]] = None):
        schreier = schreier_system(table, pres).presentation
        ngens = schreier.ngens
        zcol = None
        self.words = [rel.syllables for rel in schreier.relators]
        if central is not None:
            if len(central) != len(self.words):
                raise ValueError(f"{len(central)} central exponents for "
                                 f"{len(self.words)} Schreier relators")
            zcol = ngens
            ngens += 1
            self.words = [w + ((zcol, k),) if k else w
                          for w, k in zip(self.words, central)]
        self.rows = []
        for word in self.words:
            row: Dict[int, int] = {}
            for g, e in word:
                row[g] = row.get(g, 0) + e
            self.rows.append({g: e for g, e in row.items() if e})
        self.pivots, self.log = _unit_elimination(self.rows, zcol)
        pivoted = {col for col, _, _ in self.pivots}
        self.survivors = [c for c in range(ngens) if c not in pivoted]

    def free_rows(self) -> List[Tuple[int, Dict[int, int]]]:
        """The rows that did not pivot, with their relator indices."""
        pivot_rows = {p for _, p, _ in self.pivots}
        return [(i, row) for i, row in enumerate(self.rows)
                if i not in pivot_rows]


def _back_substitute(elim: _SchreierElimination,
                     known: Dict[int, List[int]],
                     constants: Sequence[Sequence[int]]
                     ) -> Dict[int, List[int]]:
    """Solve each pivot row's relation sum_c row[c]*x_c + constant = 0 on
    its unit pivot, in reverse elimination order.  known holds the
    survivors' values; a survivor missing from it is zero."""
    x = dict(known)
    for col, p, unit in reversed(elim.pivots):
        acc = list(constants[p])
        for c, e in elim.rows[p].items():
            if c != col and c in x:
                for k, v in enumerate(x[c]):
                    acc[k] += e * v
        x[col] = [-unit * v for v in acc]
    return x


def subgroup_class2(table: CosetTable, pres: Presentation,
                    central: Optional[Sequence[int]] = None) -> NQ2:
    """Class-2 quotient of the subgroup whose cosets the table enumerates,
    built from its Schreier relators without Tietze reduction.

    With central exponents (one per Schreier relator, coset-major), the
    group is the subgroup's preimage in a central extension: relator i
    carries z^central[i], z is central and is the last generator.  The
    quotient's generators are the columns D that survive unit-pivot
    elimination; MAX_WEDGE_SIZE bounds |D|.
    """
    elim = _SchreierElimination(table, pres, central)
    survivors = elim.survivors
    n = len(survivors)
    _check_wedge_size(n)
    # abelian coordinates over D; the survivors are its unit vectors
    a = _back_substitute(
        elim, {c: [int(k == i) for i in range(n)]
               for k, c in enumerate(survivors)},
        [[0] * n] * len(elim.rows))
    letters = {c: (v, None) for c, v in a.items()}
    # a relator's constant: its m-part with every letter set to (a, 0)
    constants = [_collect(word, letters, n)[1] for word in elim.words]
    for i, q, p in elim.log:
        constants[i] = [x - q * y for x, y in zip(constants[i], constants[p])]
    # commutator coordinates, zero on D
    m = _back_substitute(elim, {}, constants)
    images = {c: (v, m.get(c)) for c, v in a.items()}
    zero = ([0] * n, [0] * wedge_size(n))
    for _, p, _ in elim.pivots:
        if _collect(elim.words[p], images, n) != zero:
            raise AssertionError("a pivot relator survives its own "
                                 "elimination")
    relators: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], None] = {}
    for i, row in elim.free_rows():
        key = (tuple(row.get(c, 0) for c in survivors), tuple(constants[i]))
        if any(key[0]) or any(key[1]):
            relators.setdefault(key)
    elements = [ClassTwoElement(n, ka, km) for ka, km in relators]
    if central is not None:
        z = Word.gen(n - 1)
        elements += [ClassTwoElement.from_word(
            n, Word.gen(s, -1) * z.inv() * Word.gen(s) * z)
            for s in range(n - 1)]
    return NQ2(n, elements)


def subgroup_abelianization(table: CosetTable,
                            pres: Presentation) -> AbelianInvariants:
    """H1 of the subgroup whose cosets the table enumerates: the rows left
    by unit-pivot elimination of its Schreier relators, over the survivors."""
    elim = _SchreierElimination(table, pres)
    rows = [[row.get(c, 0) for c in elim.survivors]
            for _, row in elim.free_rows() if row]
    return quotient_invariants(len(elim.survivors), rows)


class Certificate:
    """Outcome of one central-order test: which subgroup was used, the
    invariants of its class-2 quotient, the order of the central generator's
    image there, and the verdict the order supports."""

    __slots__ = ("input_hash", "subgroup", "index", "abelianization",
                 "derived_part", "z_image", "z_location", "verdict")

    def __init__(self, input_hash: str, subgroup: Optional[Tuple[str, ...]],
                 index: int, abelianization, derived_part, z_image: NQ2Image,
                 z_location: Optional[str], verdict: str):
        if verdict not in ("INFINITE_ORDER", "INCONCLUSIVE"):
            raise ValueError(f"unknown verdict {verdict!r}")
        self.input_hash = input_hash
        self.subgroup = subgroup
        self.index = index
        self.abelianization = abelianization
        self.derived_part = derived_part
        self.z_image = z_image
        self.z_location = z_location
        self.verdict = verdict

    @property
    def success(self) -> bool:
        return self.verdict == "INFINITE_ORDER"

    def report(self) -> str:
        lines = ["central order certificate",
                 f"inputs sha256: {self.input_hash}"]
        if self.subgroup is None:
            lines.append("subgroup: whole group")
        else:
            lines.append(f"subgroup words (over the base generators): "
                         f"{len(self.subgroup)}")
            lines.extend(f"  {w}" for w in self.subgroup)
        lines.append(f"index: {self.index}")
        lines.append(f"abelianization: {self.abelianization.describe()}")
        lines.append(f"derived part: {self.derived_part.describe()}")
        if self.z_image.order is None:
            lines.append(f"z order: infinite (in the {self.z_location})")
        else:
            lines.append(f"z order: {self.z_image.order}")
        lines.append(f"verdict: {self.verdict}")
        if self.success:
            lines.append("conclusion: the center injects into a finitely "
                         "generated nilpotent quotient, so the lifted group "
                         "is residually finite, and so is its image after "
                         "collapsing any finite-index subgroup of the center.")
        else:
            lines.append("conclusion: the central generator already has "
                         "finite order in this quotient, so this test decides "
                         "nothing; a finer finite-index subgroup may still "
                         "separate the center.")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"Certificate(index={self.index}, verdict={self.verdict})"


def rf_certificate(lp, subgroup_words: Optional[Sequence[Word]] = None,
                   max_cosets: int = 10 ** 6) -> Certificate:
    """Test the central generator's order in the class-2 quotient of the
    whole lifted group (subgroup_words None) or of the full preimage of a
    finite-index subgroup given by words over the base generators."""
    payload = serialize_presentation(lp.to_presentation())
    subgroup = None
    if subgroup_words is None:
        subgroup_words = [Word.gen(g) for g in range(lp.base.ngens)]
    else:
        subgroup = tuple(format_word(w, lp.base.gens) for w in subgroup_words)
        payload += "".join(f"\n{w}" for w in subgroup)
    digest = hashlib.sha256(payload.encode()).hexdigest()[:16]

    table = todd_coxeter(lp.base, subgroup_words, max_cosets=max_cosets)
    # the Schreier relators run coset by coset over the base relators
    quotient = subgroup_class2(table, lp.base,
                               central=lp.exponents * table.index)
    image = quotient.image(Word.gen(quotient.n - 1))
    if image.order is None:
        location = ("abelianization"
                    if quotient.abelian_order(image.a) is None
                    else "derived part")
        verdict = "INFINITE_ORDER"
    else:
        location = None
        verdict = "INCONCLUSIVE"
    return Certificate(digest, subgroup, table.index, quotient.abelianization,
                       quotient.derived_part, image, location, verdict)
