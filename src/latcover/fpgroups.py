"""Finitely presented groups: words, presentations, Todd-Coxeter coset
enumeration, Reidemeister-Schreier subgroup presentations, Tietze reduction."""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .intlinalg import AbelianInvariants, quotient_invariants


# bound on the letters of the relators and subgroup words that Todd-Coxeter
# expands, checked before any expansion
MAX_WORD_LETTERS = 2 ** 22


class EnumerationLimit(RuntimeError):
    """Raised when coset enumeration exceeds its resource bound."""


class Word:
    """Freely reduced word: tuple of (generator index, nonzero exponent),
    adjacent entries on distinct generators."""

    __slots__ = ("syllables",)

    def __init__(self, syllables: Iterable[Tuple[int, int]] = ()):
        reduced: List[Tuple[int, int]] = []
        for gen, exp in syllables:
            if exp == 0:
                continue
            if reduced and reduced[-1][0] == gen:
                total = reduced[-1][1] + exp
                reduced.pop()
                if total:
                    reduced.append((gen, total))
            else:
                reduced.append((gen, exp))
        self.syllables = tuple(reduced)

    @staticmethod
    def gen(index: int, exp: int = 1) -> "Word":
        return Word([(index, exp)])

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    def __len__(self) -> int:
        return sum(abs(e) for _, e in self.syllables)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.syllables + other.syllables)

    def inv(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.syllables)))

    def __pow__(self, k: int) -> "Word":
        if k < 0:
            return self.inv() ** (-k)
        return Word(self.syllables * k)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self.syllables == other.syllables

    def __hash__(self) -> int:
        return hash(self.syllables)

    def letters(self) -> List[Tuple[int, int]]:
        """Expand to single letters (gen, +1/-1)."""
        out = []
        for g, e in self.syllables:
            step = 1 if e > 0 else -1
            out.extend([(g, step)] * abs(e))
        return out

    def columns(self) -> List[int]:
        """Expand to coset-table columns: 2g for g, 2g+1 for g^-1."""
        out = []
        for g, e in self.syllables:
            out.extend([2 * g + (e < 0)] * abs(e))
        return out

    def exponent_sum(self, gen: int) -> int:
        return sum(e for g, e in self.syllables if g == gen)

    def cyclically_reduced(self) -> "Word":
        syl = list(self.syllables)
        while len(syl) > 1 and syl[0][0] == syl[-1][0]:
            g = syl[0][0]
            total = syl[0][1] + syl[-1][1]
            syl = syl[1:-1]
            if total:
                syl.insert(0, (g, total))
                break
        return Word(syl)

    def remap(self, index_map: Dict[int, int]) -> "Word":
        return Word((index_map[g], e) for g, e in self.syllables)

    def __repr__(self) -> str:
        return f"Word({list(self.syllables)})"


class Presentation:
    """Generator names plus relator words."""

    __slots__ = ("gens", "relators")

    def __init__(self, gens: Sequence[str], relators: Sequence[Word]):
        self.gens = list(gens)
        if len(set(self.gens)) != len(self.gens):
            raise ValueError(f"duplicate generator names in {self.gens}")
        for rel in relators:
            for g, _ in rel.syllables:
                if not 0 <= g < len(self.gens):
                    raise ValueError(f"relator references unknown generator {g}")
        self.relators = list(relators)

    @property
    def ngens(self) -> int:
        return len(self.gens)

    def word(self, text: str) -> Word:
        return parse_word(text, self.gens)

    def abelianization(self) -> AbelianInvariants:
        rows = [[rel.exponent_sum(g) for g in range(self.ngens)]
                for rel in self.relators]
        return quotient_invariants(self.ngens, rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Presentation):
            return NotImplemented
        return self.gens == other.gens and self.relators == other.relators

    def __repr__(self) -> str:
        rels = ", ".join(format_word(r, self.gens) for r in self.relators)
        return f"<{' '.join(self.gens)} | {rels}>"


def parse_word(text: str, gen_names: Sequence[str]) -> Word:
    """Parse word syntax like 'b^3*u^-1*v'; '' and '1' denote the identity."""
    text = text.strip()
    if text in ("", "1"):
        return Word()
    index = {name: i for i, name in enumerate(gen_names)}
    syllables = []
    for chunk in text.split("*"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty factor in word {text!r}")
        if "^" in chunk:
            name, _, exp_text = chunk.partition("^")
            name = name.strip()
            try:
                exp = int(exp_text)
            except ValueError:
                raise ValueError(f"bad exponent {exp_text!r} in {text!r}") from None
        else:
            name, exp = chunk, 1
        if name not in index:
            raise ValueError(f"unknown generator {name!r} in {text!r}")
        syllables.append((index[name], exp))
    return Word(syllables)


def format_word(word: Word, gen_names: Sequence[str]) -> str:
    if word.is_identity:
        return "1"
    parts = []
    for g, e in word.syllables:
        parts.append(gen_names[g] if e == 1 else f"{gen_names[g]}^{e}")
    return "*".join(parts)


def parse_presentation(text: str) -> Presentation:
    """Parse the presentation file format: a 'generators:' header line, then
    one relator per line; '#' starts a comment."""
    gens: Optional[List[str]] = None
    relators: List[Word] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if gens is None:
            if not line.startswith("generators:"):
                raise ValueError(f"expected 'generators:' header, got {raw!r}")
            gens = line[len("generators:"):].split()
            if not gens:
                raise ValueError("no generators declared")
            continue
        relators.append(parse_word(line, gens))
    if gens is None:
        raise ValueError("missing 'generators:' header")
    return Presentation(gens, relators)


def serialize_presentation(pres: Presentation) -> str:
    lines = ["generators: " + " ".join(pres.gens)]
    lines.extend(format_word(r, pres.gens) for r in pres.relators)
    return "\n".join(lines) + "\n"


def braid_relator(a: int, b: int, m: int) -> Word:
    """The relator ab... * (ba...)^-1 with m alternating letters per side."""
    if m < 2:
        raise ValueError(f"braid length must be at least 2, got {m}")
    left = Word([(a if k % 2 == 0 else b, 1) for k in range(m)])
    right = Word([(b if k % 2 == 0 else a, 1) for k in range(m)])
    return left * right.inv()


class CosetTable:
    """Completed coset table: rows are cosets, columns alternate generator and
    inverse (column 2g acts by generator g, column 2g+1 by its inverse)."""

    __slots__ = ("ngens", "table")

    def __init__(self, ngens: int, table: List[List[int]]):
        self.ngens = ngens
        self.table = table

    @property
    def index(self) -> int:
        return len(self.table)

    def trace(self, coset: int, word: Word) -> int:
        for x in word.columns():
            coset = self.table[coset][x]
        return coset

    def validates(self, pres: Presentation, subgroup_gens: Sequence[Word]) -> bool:
        """Every relator fixes every coset; subgroup generators fix coset 0."""
        return (self.fixes_all_cosets(pres.relators)
                and all(self.trace(0, w) == 0 for w in subgroup_gens))

    def fixes_all_cosets(self, words: Sequence[Word]) -> bool:
        """True iff each word fixes every coset; for subgroup generators this
        is exactly normality of the subgroup they generate.  Each word is
        expanded once and walked from all cosets together, one column at a
        time."""
        start = list(range(self.index))
        columns = list(zip(*self.table))
        for w in words:
            image = start
            for x in w.columns():
                col = columns[x]
                image = [col[c] for c in image]
            if image != start:
                return False
        return True


def todd_coxeter(pres: Presentation, subgroup_gens: Sequence[Word] = (),
                 max_cosets: int = 10 ** 6) -> CosetTable:
    """HLT coset enumeration with coincidence handling; deterministic.

    Returns the standardized complete table or raises EnumerationLimit.
    """
    letters = sum(len(w) for w in (*pres.relators, *subgroup_gens))
    if letters > MAX_WORD_LETTERS:
        raise EnumerationLimit(f"relators and subgroup words have {letters} "
                               f"letters, over the limit of {MAX_WORD_LETTERS}")
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


class SchreierSystem:
    """Reidemeister-Schreier data: subgroup presentation plus a rewriter that
    expresses any subgroup element (as a word in the ambient generators) in
    the Schreier generators."""

    __slots__ = ("presentation", "table", "_edge_index", "transversal")

    def __init__(self, presentation: Presentation, table: CosetTable,
                 edge_index: Dict[Tuple[int, int], int],
                 transversal: List[Word]):
        self.presentation = presentation
        self.table = table
        self._edge_index = edge_index
        self.transversal = transversal

    def rewrite(self, word: Word, start: int = 0) -> Word:
        """Rewrite the trace of word starting at the given coset into Schreier
        generators; for start=0 the word must lie in the subgroup."""
        # a generator edge (coset, g) is crossed forward from coset by
        # column 2g and backward into coset by column 2g+1; tree edges have
        # no Schreier generator
        out = []
        beta = start
        for x in word.columns():
            if x & 1:
                beta = self.table.table[beta][x]
                s = self._edge_index.get((beta, x >> 1))
                if s is not None:
                    out.append((s, -1))
            else:
                s = self._edge_index.get((beta, x >> 1))
                if s is not None:
                    out.append((s, 1))
                beta = self.table.table[beta][x]
        return Word(out)


def schreier_system(table: CosetTable, pres: Presentation) -> SchreierSystem:
    """Build the Reidemeister-Schreier presentation of the subgroup whose
    cosets the table enumerates, with rewriting data."""
    ncols = 2 * table.ngens
    # breadth-first Schreier tree from coset 0; geometric edges normalized to
    # their generator-column orientation (coset, gen)
    tree: set = set()
    transversal: List[Optional[Word]] = [None] * table.index
    transversal[0] = Word()
    seen = {0}
    q = deque([0])
    while q:
        c = q.popleft()
        for x in range(ncols):
            nxt = table.table[c][x]
            if nxt not in seen:
                seen.add(nxt)
                g = x // 2
                tree.add((c, g) if x % 2 == 0 else (nxt, g))
                transversal[nxt] = transversal[c] * Word.gen(g, 1 if x % 2 == 0 else -1)
                q.append(nxt)
    if any(t is None for t in transversal):
        raise ValueError("coset table is not connected")
    edge_index: Dict[Tuple[int, int], int] = {}
    names = []
    for alpha in range(table.index):
        for g in range(table.ngens):
            edge = (alpha, g)
            if edge not in tree:
                edge_index[edge] = len(names)
                names.append(f"s{len(names)}")
    placeholder = Presentation(names, [])
    system = SchreierSystem(placeholder, table, edge_index, transversal)
    relators = [system.rewrite(rel, start=alpha)
                for alpha in range(table.index)
                for rel in pres.relators]
    system.presentation = Presentation(names, relators)
    return system


def tietze_reduce(pres: Presentation, budget: int = 20000) -> Presentation:
    """Simplify a presentation by generator elimination and relator
    substitution; group isomorphism type is preserved.

    Relators keep the original generator ids while moves run; the survivors
    are renumbered once, in order, at the end.
    """
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
