"""Finitely presented groups: words, presentations, Todd-Coxeter coset
enumeration, Reidemeister-Schreier subgroup presentations, Tietze reduction."""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .intlinalg import AbelianInvariants, quotient_invariants


# bound on the letters of the relators and subgroup words that Todd-Coxeter
# expands, checked before any expansion, and on the relator letters Tietze
# holds, checked on entry and after every move
MAX_WORD_LETTERS = 2 ** 22

# moves (eliminations and shortenings) one Tietze reduction may make
TIETZE_STEPS = 200000


class EnumerationLimit(RuntimeError):
    """Raised when coset enumeration or Tietze reduction exceeds a bound."""


def _check_letters(what: str, letters: int) -> None:
    if letters > MAX_WORD_LETTERS:
        raise EnumerationLimit(f"{what} have {letters} letters, over the "
                               f"limit of {MAX_WORD_LETTERS}")


class Word:
    """Freely reduced word: tuple of (generator index, nonzero exponent),
    adjacent entries on distinct generators."""

    __slots__ = ("syllables",)

    def __init__(self, syllables: Iterable[Tuple[int, int]] = ()):
        reduced: List[Tuple[int, int]] = []
        last = None  # generator of reduced[-1]
        for gen, exp in syllables:
            if gen == last:
                exp += reduced.pop()[1]
                if exp:
                    reduced.append((gen, exp))
                else:
                    last = reduced[-1][0] if reduced else None
            elif exp:
                reduced.append((gen, exp))
                last = gen
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
        syl = self.syllables
        while len(syl) > 1 and syl[0][0] == syl[-1][0]:
            g, total = syl[0][0], syl[0][1] + syl[-1][1]
            syl = syl[1:-1]
            if total:
                return Word(((g, total),) + syl)
        return self if syl is self.syllables else Word(syl)

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
    return "*".join(gen_names[g] if e == 1 else f"{gen_names[g]}^{e}"
                    for g, e in word.syllables) or "1"


def content_lines(text: str) -> List[str]:
    """The lines of an input file that hold something, stripped, with each
    `#` comment cut off: the one reader of presentation, matrix and
    subgroup word files."""
    stripped = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return [line for line in stripped if line]


def parse_presentation(text: str) -> Presentation:
    """Parse the presentation file format: a 'generators:' header line, then
    one relator per line; '#' starts a comment."""
    lines = content_lines(text)
    if not lines:
        raise ValueError("missing 'generators:' header")
    if not lines[0].startswith("generators:"):
        raise ValueError(f"expected 'generators:' header, got {lines[0]!r}")
    gens = lines[0][len("generators:"):].split()
    if not gens:
        raise ValueError("no generators declared")
    return Presentation(gens, [parse_word(line, gens) for line in lines[1:]])


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
        """True iff each word fixes every coset, that is, lies in every
        conjugate of the subgroup (`validates` asks this of the relators).
        Each word is expanded once and walked from all cosets together, one
        column at a time."""
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

    def is_normal(self, words: Sequence[Word]) -> bool:
        """True iff H = <words>, the subgroup whose cosets the table
        enumerates, is normal.  A word w fixes the coset Hg = table[0][2g]
        iff gwg^-1 lies in H, so this reads gHg^-1 <= H for each generator
        g, which at finite index is equality: ngens walks of each word, not
        index walks."""
        starts = {self.table[0][2 * g] for g in range(self.ngens)}
        return all(self.trace(c, w) == c for w in words for c in starts)


def todd_coxeter(pres: Presentation, subgroup_gens: Sequence[Word] = (),
                 max_cosets: int = 10 ** 6) -> CosetTable:
    """HLT coset enumeration with coincidence handling; deterministic.

    Returns the standardized complete table or raises EnumerationLimit.
    """
    _check_letters("relators and subgroup words",
                   sum(len(w) for w in (*pres.relators, *subgroup_gens)))
    d = pres.ngens
    ncols = 2 * d
    # each path: its columns forward, and inverted (bit 0 flipped) for the
    # backward scan
    relator_paths, subgroup_paths = (
        [(p, [x ^ 1 for x in p]) for p in map(Word.columns, words)]
        for words in (pres.relators, subgroup_gens))

    table: List[List[Optional[int]]] = [[None] * ncols]
    parent = [0]

    def rep(k: int) -> int:
        root = k
        while parent[root] != root:
            root = parent[root]
        while parent[k] != root:
            parent[k], k = root, parent[k]
        return root

    def define(alpha: int, x: int) -> int:
        beta = len(table)
        if beta >= max_cosets:
            raise EnumerationLimit(
                f"coset limit {max_cosets} exceeded during enumeration")
        row = [None] * ncols
        row[x ^ 1] = alpha
        table.append(row)
        parent.append(beta)
        table[alpha][x] = beta
        return beta

    def coincidence(a: int, b: int) -> None:
        queue = deque()

        def merge(k: int, l: int) -> None:
            k, l = rep(k), rep(l)
            if k == l:
                return
            if k > l:
                k, l = l, k
            parent[l] = k
            queue.append(l)

        merge(a, b)
        while queue:
            gamma = queue.popleft()
            row = table[gamma]
            for x in range(ncols):
                delta = row[x]
                if delta is None:
                    continue
                table[delta][x ^ 1] = None
                mu, nu = rep(gamma), rep(delta)
                if table[mu][x] is not None:
                    merge(nu, table[mu][x])
                elif table[nu][x ^ 1] is not None:
                    merge(mu, table[nu][x ^ 1])
                else:
                    table[mu][x] = nu
                    table[nu][x ^ 1] = mu

    def scan_and_fill(alpha: int, fwd: List[int], bwd: List[int]) -> None:
        f = b = alpha
        i, j = 0, len(fwd) - 1
        while True:
            while i <= j and (nxt := table[f][fwd[i]]) is not None:
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and (nxt := table[b][bwd[j]]) is not None:
                b = nxt
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if i == j:
                table[f][fwd[i]] = b
                table[b][bwd[i]] = f
                return
            f = define(f, fwd[i])
            i += 1

    for fwd, bwd in subgroup_paths:
        scan_and_fill(0, fwd, bwd)

    # a coset is live while it is its own parent
    alpha = 0
    while alpha < len(table):
        if parent[alpha] == alpha:
            for fwd, bwd in relator_paths:
                scan_and_fill(alpha, fwd, bwd)
                if parent[alpha] != alpha:
                    break
            else:
                row = table[alpha]
                for x in range(ncols):
                    if row[x] is None:
                        define(alpha, x)
        alpha += 1

    # standardize: relabel the live cosets in breadth-first scan order,
    # pointing each entry at its live representative first
    order = [0]
    relabel = {0: 0}
    for c in order:
        row = table[c]
        for x, nxt in enumerate(row):
            if parent[nxt] != nxt:
                row[x] = nxt = rep(nxt)
            if nxt not in relabel:
                relabel[nxt] = len(order)
                order.append(nxt)
    final = [[relabel[nxt] for nxt in table[c]] for c in order]

    result = CosetTable(d, final)
    if not result.validates(pres, subgroup_gens):
        raise AssertionError("enumeration produced an invalid table")
    return result


def _rewrite(rows: List[List[int]], edge_index: Dict[Tuple[int, int], int],
             columns: Sequence[int], start: int) -> Word:
    """Schreier generators crossed walking the columns from coset start: the
    generator edge (coset, g) is crossed forward from coset by column 2g and
    backward into coset by column 2g+1; tree edges have none."""
    out = []
    beta = start
    for x in columns:
        if x & 1:
            beta = rows[beta][x]
            s = edge_index.get((beta, x >> 1))
            if s is not None:
                out.append((s, -1))
        else:
            s = edge_index.get((beta, x >> 1))
            if s is not None:
                out.append((s, 1))
            beta = rows[beta][x]
    return Word(out)


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
        return _rewrite(self.table.table, self._edge_index, word.columns(),
                        start)


def _schreier_tree(table: CosetTable
                   ) -> Tuple[Dict[Tuple[int, int], int], List[Word]]:
    """Breadth-first Schreier tree from coset 0: the index of each Schreier
    generator, an edge (coset, gen) off the tree, numbered coset by coset,
    and the transversal."""
    ncols = 2 * table.ngens
    # geometric edges normalized to their generator-column orientation
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
    for alpha in range(table.index):
        for g in range(table.ngens):
            edge = (alpha, g)
            if edge not in tree:
                edge_index[edge] = len(edge_index)
    return edge_index, transversal


def schreier_system(table: CosetTable, pres: Presentation) -> SchreierSystem:
    """Build the Reidemeister-Schreier presentation of the subgroup whose
    cosets the table enumerates, with rewriting data: every relator
    rewritten from every coset."""
    edge_index, transversal = _schreier_tree(table)
    names = [f"s{i}" for i in range(len(edge_index))]
    paths = [rel.columns() for rel in pres.relators]
    relators = [_rewrite(table.table, edge_index, path, alpha)
                for alpha in range(table.index) for path in paths]
    return SchreierSystem(Presentation(names, relators), table, edge_index,
                          transversal)


class _Relator:
    """A relator as Tietze keeps it, built once per version: the cyclically
    reduced word, a key shared with its inverse, generator counts, letter
    length, least generator occurring once (or None), a serial that tells
    this version from the stale heap entries of earlier ones, and the
    columns as text, twice over, built on first read."""

    __slots__ = ("word", "key", "counts", "length", "once", "serial",
                 "_cyclic")

    def __init__(self, word: Word, serial: int):
        self.word = word = word.cyclically_reduced()
        syl = word.syllables
        inv = tuple([(g, -e) for g, e in reversed(syl)])
        self.key = syl if syl <= inv else inv
        self.counts = counts = {}
        length = 0
        for g, e in syl:
            if e < 0:
                e = -e
            length += e
            counts[g] = counts.get(g, 0) + e
        self.length = length
        once = None
        for g, c in counts.items():
            if c == 1 and (once is None or g < once):
                once = g
        self.once = once
        self.serial = serial
        self._cyclic: Optional[str] = None

    @property
    def cyclic(self) -> str:
        """The columns as text, doubled: each rotation is a window of it."""
        if self._cyclic is None:
            text = "".join([chr(32 + x) for x in self.word.columns()])
            self._cyclic = text * 2
        return self._cyclic


def _inverse_text(text: str) -> str:
    """Columns as text of the inverse word: reversed, with columns 2g and
    2g+1 (bit 0) swapped."""
    return "".join([chr(ord(c) ^ 1) for c in reversed(text)])


def _text_word(text: str) -> Word:
    """The word whose columns, as text, are the given text."""
    syllables = []
    for c, run in itertools.groupby(text):
        x, k = ord(c) - 32, len(list(run))
        syllables.append((x >> 1, -k if x & 1 else k))
    return Word(syllables)


def tietze_reduce(pres: Presentation) -> Presentation:
    """Simplify a presentation by generator elimination and relator
    substitution in at most TIETZE_STEPS moves, preserving the group; raise
    EnumerationLimit, before expanding any relator to letters, when the
    given relators or those a substitution writes hold more than
    MAX_WORD_LETTERS letters.

    Relators sit in slots that keep their positions while moves run (a
    dropped relator leaves None), so every tie-break by position reads as
    on the compacted list. Each generator indexes the slots whose relator
    contains it, a lazy heap of (length, once, slot, serial) picks the next
    elimination, and after a move only the changed slots are swept for
    identities and repeats, keeping the lowest slot of each key. The
    survivors keep the original generator ids and are renumbered once at
    the end.
    """
    _check_letters("Tietze relators", sum(len(r) for r in pres.relators))
    alive = set(range(pres.ngens))
    serials = itertools.count()
    rels: List[Optional[_Relator]] = [None] * len(pres.relators)
    occ: List[set] = [set() for _ in range(pres.ngens)]
    keys: Dict[tuple, int] = {}
    heap: List[Tuple[int, int, int, int]] = []
    total = 0  # letters of the relators in the slots
    steps = 0

    def unlink(slot: int) -> None:
        nonlocal total
        old = rels[slot]
        total -= old.length
        for g in old.counts:
            occ[g].discard(slot)
        if keys.get(old.key) == slot:
            del keys[old.key]
        rels[slot] = None

    def put(slot: int, word: Word) -> None:
        nonlocal total
        if rels[slot] is not None:
            unlink(slot)
        r = rels[slot] = _Relator(word, next(serials))
        total += r.length
        for g in r.counts:
            occ[g].add(slot)
        if r.once is not None:
            heapq.heappush(heap, (r.length, r.once, slot, r.serial))

    def settle(changed: Iterable[int]) -> None:
        # drop identities and repeats among the changed slots, keeping the
        # lowest slot of each key
        for slot in sorted(changed):
            r = rels[slot]
            held = keys.get(r.key)
            if not r.length or (held is not None and held < slot):
                unlink(slot)
                continue
            if held is not None:
                unlink(held)
            keys[r.key] = slot

    def try_eliminate() -> bool:
        nonlocal steps
        while heap:
            _, gen, slot, serial = heapq.heappop(heap)
            r = rels[slot]
            if r is not None and r.serial == serial:
                break
        else:
            return False
        syl = r.word.syllables
        unlink(slot)
        # rotate the single occurrence gen^(+-1) to the front:
        # gen^(+-1) * tail = 1  =>  gen = tail^-1, or tail
        pos = next(i for i, (g, _) in enumerate(syl) if g == gen)
        tail = Word(syl[pos + 1:] + syl[:pos])
        repl = tail.inv() if syl[pos][1] == 1 else tail
        fwd, back = repl.syllables, repl.inv().syllables
        touched = sorted(occ[gen])
        # each letter gen^(+-1) becomes len(repl) letters
        _check_letters("Tietze relators", total + (len(repl) - 1) * sum(
            rels[i].counts[gen] for i in touched))
        for i in touched:
            out: List[Tuple[int, int]] = []
            for g, e in rels[i].word.syllables:
                if g != gen:
                    out.append((g, e))
                else:
                    out.extend(fwd * e if e > 0 else back * -e)
            put(i, Word(out))
        alive.discard(gen)
        steps += 1
        settle(touched)
        return True

    def shorten_pass() -> bool:
        """One sweep replacing long chunks of relators using shorter
        relators; the changed slots are settled once, when it ends."""
        nonlocal steps
        changed = set()
        live = [i for i, r in enumerate(rels) if r is not None]
        for si in sorted(live, key=lambda i: rels[i].length):
            short = rels[si]
            ls = short.length
            if ls < 2 or ls > 40 or steps >= TIETZE_STEPS:
                continue
            # each rotation of short or of its inverse is a window of the
            # doubled text
            need = ls // 2 + 1
            texts = [short.cyclic, _inverse_text(short.cyclic)]
            windows = [[t[start:start + need] for start in range(ls)]
                       for t in texts]
            for li in live:
                if steps >= TIETZE_STEPS:
                    break
                long = rels[li]
                n = long.length
                if li == si or n < need:
                    continue
                cyclic = long.cyclic
                top = min(ls, n)
                match = None
                for side in (0, 1):
                    dbl_text = texts[side]
                    for start, window in enumerate(windows[side]):
                        pos = cyclic.find(window)
                        if pos < 0 or pos >= n:
                            continue
                        run = need
                        while (run < top
                               and cyclic[pos + run] == dbl_text[start + run]):
                            run += 1
                        if match is None or run > match[0]:
                            match = (run, side, start, pos)
                    if match:
                        break
                if match is None:
                    continue
                run, side, start, lstart = match
                # the matched chunk equals a rotation prefix of the short
                # relator, so it also equals the inverse of that rotation's
                # suffix; swap it in, which is shorter as run > ls / 2
                suffix = texts[side][start + run:start + ls]
                put(li, _text_word(_inverse_text(suffix)
                                   + cyclic[lstart + run:lstart + n]))
                changed.add(li)
                steps += 1
        settle(changed)
        return bool(changed)

    for slot, rel in enumerate(pres.relators):
        put(slot, rel)
    settle(range(len(rels)))
    while steps < TIETZE_STEPS and (try_eliminate() or shorten_pass()):
        pass

    kept = sorted(alive)
    index_map = {g: i for i, g in enumerate(kept)}
    survivors = [r.word.remap(index_map) for r in rels if r is not None]
    return Presentation([pres.gens[g] for g in kept], survivors)
