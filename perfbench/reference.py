"""Independent references for checking latcover's output.

Nothing here imports latcover. The preset files are read with a parser of
this module's own, matrices are evaluated with plain numpy, and the finite
quotient used by the cosets workload is computed over F_9 with lookup
tables. These values are what the benchmark compares the CLI's bytes
against, so they must not come from the code path being measured.
"""

from __future__ import annotations

import cmath
import math
import random
import re
from collections import deque
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

GENS = "buv"
Letter = Tuple[int, int]  # (generator index, +1 or -1)

_TERM = re.compile(r"\s*([+-]?)\s*(?:(\d+(?:/\d+)?)\s*\*?\s*)?(z\d+(?:\^(\d+))?)?\s*")
_H_STD = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
Z0 = np.array([-1.0, 0.0, 1.0], dtype=complex)  # the projected vector


# ------------------------------------------------------------ preset files


def parse_entry(text: str) -> Dict[int, Fraction]:
    """'2 + 2*z12 - z12^3' -> {0: 2, 1: 2, 3: -1} (power of zN -> coeff)."""
    out: Dict[int, Fraction] = {}
    text = text.strip()
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot parse matrix entry {text!r}")
        sign, coeff, z, power = m.groups()
        c = Fraction(coeff) if coeff else Fraction(1)
        k = (int(power) if power else 1) if z else 0
        out[k] = out.get(k, Fraction(0)) + (-c if sign == "-" else c)
        pos = m.end()
    return out


class PresetFiles:
    """Conductor, form and unscaled generator matrices of one preset, as
    coefficient dictionaries, plus its relators as letter lists."""

    def __init__(self, root: Path):
        lines = [ln.strip() for ln in (root / "matrices.txt").read_text().splitlines()
                 if ln.strip()]
        self.conductor = int(lines[0].split()[1])
        self.form = None
        self.matrices: Dict[str, List[Dict[int, Fraction]]] = {}
        i = 1
        while i < len(lines):
            head = lines[i].split()
            if head[0] == "form":
                if head[1] == "custom":
                    self.form = [parse_entry(x) for x in lines[i + 1:i + 10]]
                    i += 10
                else:
                    i += 1
            elif head[0] == "matrix":
                self.matrices[head[1]] = [parse_entry(x) for x in lines[i + 1:i + 10]]
                i += 10
            else:
                raise ValueError(f"unexpected line {lines[i]!r} in {root}")
        pres = (root / "presentation.txt").read_text().splitlines()
        self.relator_texts = [ln.strip() for ln in pres[1:] if ln.strip()]
        self.relators = [parse_letters(t) for t in self.relator_texts]

    def numeric(self, entries) -> np.ndarray:
        n = self.conductor
        vals = [sum(complex(c) * cmath.exp(2j * math.pi * k / n) for k, c in e.items())
                for e in entries]
        return np.array(vals, dtype=complex).reshape(3, 3)

    def scaled(self) -> Dict[str, np.ndarray]:
        """Generators divided by the principal cube root of the determinant."""
        out = {}
        for g in GENS:
            m = self.numeric(self.matrices[g])
            arg = cmath.phase(np.linalg.det(m))
            if arg < -math.pi + 1e-9:  # -1 has principal argument +pi
                arg += 2 * math.pi
            out[g] = m / cmath.exp(1j * arg / 3)
        return out

    def standard(self) -> Dict[str, np.ndarray]:
        """Scaled generators in the antidiagonal form the path code samples."""
        mats = self.scaled()
        if self.form is None:
            return mats
        vals, vecs = np.linalg.eigh(self.numeric(self.form))
        a = np.vstack([math.sqrt(vals[1]) * vecs[:, 1].conj(),
                       math.sqrt(vals[2]) * vecs[:, 2].conj(),
                       math.sqrt(-vals[0]) * vecs[:, 0].conj()])
        s = 1.0 / math.sqrt(2.0)
        conj = np.array([[s, 0, s], [0, 1, 0], [s, 0, -s]], dtype=complex) @ a
        conj_inv = np.linalg.inv(conj)
        out = {g: conj @ m @ conj_inv for g, m in mats.items()}
        for g, m in out.items():
            if np.max(np.abs(m.conj().T @ _H_STD @ m - _H_STD)) > 1e-9:
                raise AssertionError(f"reference matrix {g} is not in SU(2,1)")
        return out


# ------------------------------------------------------------ words


def parse_letters(text: str) -> List[Letter]:
    out: List[Letter] = []
    for chunk in text.split("*"):
        name, _, exp = chunk.partition("^")
        e = int(exp) if exp else 1
        out += [(GENS.index(name), 1 if e > 0 else -1)] * abs(e)
    return out


def format_letters(letters: Sequence[Letter]) -> str:
    """Freely reduce and print in the CLI's word syntax ('b^-1*u^2')."""
    red: List[Letter] = []
    for g, s in letters:
        if red and red[-1] == (g, -s):
            red.pop()
        else:
            red.append((g, s))
    syl: List[List[int]] = []
    for g, s in red:
        if syl and syl[-1][0] == g:
            syl[-1][1] += s
        else:
            syl.append([g, s])
    return "*".join(GENS[g] if e == 1 else f"{GENS[g]}^{e}" for g, e in syl) or "1"


def random_reduced_word(rng: random.Random, length: int) -> List[Letter]:
    """Random freely reduced word with exactly `length` letters."""
    out: List[Letter] = []
    while len(out) < length:
        letter = (rng.randrange(3), rng.choice((1, -1)))
        if out and out[-1] == (letter[0], -letter[1]):
            continue
        out.append(letter)
    return out


def path_boundaries(letters: Sequence[Letter], mats: Dict[str, np.ndarray]) -> List[complex]:
    """Projected value at the end of each path segment.

    The path applies the word's letters right to left, so segment m ends at
    the last coordinate of (letter_m ... letter_0) z0, a plain matrix
    product that needs no logarithms. The last value is the endpoint.
    """
    inv = {g: np.linalg.inv(m) for g, m in mats.items()}
    acc = np.eye(3, dtype=complex)
    out = []
    for g, s in reversed(letters):
        acc = (mats[GENS[g]] if s > 0 else inv[GENS[g]]) @ acc
        out.append(complex((acc @ Z0)[2]))
    return out


def central_power(letters: Sequence[Letter], mats: Dict[str, np.ndarray]) -> int:
    """j with the relator's value equal to zeta_3^j times the identity."""
    prod = np.eye(3, dtype=complex)
    for g, s in letters:
        prod = prod @ (mats[GENS[g]] if s > 0 else np.linalg.inv(mats[GENS[g]]))
    for j in range(3):
        if np.max(np.abs(prod - cmath.exp(2j * math.pi * j / 3) * np.eye(3))) < 1e-9:
            return j
    raise AssertionError("relator value is not a power of zeta_3")


# ------------------------------------------------------------ F_9 quotient

# F_9 = F_3[x]/(x^2 + 1); a + b*x is stored as the integer a + 3*b
_ADD = [[(p % 3 + q % 3) % 3 + 3 * ((p // 3 + q // 3) % 3) for q in range(9)]
        for p in range(9)]
_MUL = [[(p % 3 * (q % 3) - p // 3 * (q // 3)) % 3
         + 3 * ((p % 3 * (q // 3) + p // 3 * (q % 3)) % 3) for q in range(9)]
        for p in range(9)]
_INV = [next((q for q in range(9) if _MUL[p][q] == 1), 0) for p in range(9)]


def _reduce_mod3(entry: Dict[int, Fraction], conductor: int) -> int:
    """Image in F_9 of an integral element of Z[zeta_12] under zeta_12 -> x."""
    if conductor != 12:
        raise ValueError("the mod-3 quotient is defined for conductor 12")
    a = b = 0
    for k, c in entry.items():
        if c.denominator != 1:
            raise ValueError("entry is not integral")
        sign = 1 if k % 4 < 2 else -1  # x^2 = -1
        if k % 2 == 0:
            a += sign * c.numerator
        else:
            b += sign * c.numerator
    return a % 3 + 3 * (b % 3)


def _matmul9(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    out = []
    for i in range(3):
        for j in range(3):
            acc = 0
            for k in range(3):
                acc = _ADD[acc][_MUL[a[3 * i + k]][b[3 * k + j]]]
            out.append(acc)
    return tuple(out)


def _projective(a: Tuple[int, ...]) -> Tuple[int, ...]:
    s = _INV[next(e for e in a if e)]
    return tuple(_MUL[s][e] for e in a)


def psu33_action(files: PresetFiles) -> List[List[int]]:
    """Right action of b, u, v on the projective image mod 3, as three
    permutations of the image's elements (element 0 is the identity)."""
    gens = [_projective(tuple(_reduce_mod3(e, files.conductor) for e in files.matrices[g]))
            for g in GENS]
    one = _projective((1, 0, 0, 0, 1, 0, 0, 0, 1))
    index = {one: 0}
    elems = [one]
    act: List[List[int]] = [[], [], []]
    for h in elems:  # grows while iterating: breadth-first closure
        for gi, g in enumerate(gens):
            y = _projective(_matmul9(h, g))
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
            act[gi].append(index[y])
    return act


def kernel_words(files: PresetFiles, rng: random.Random, letter_budget: int) -> List[str]:
    """Words generating the kernel of reduction modulo the prime above 3.

    The seed picks a random breadth-first Schreier tree on the image. Tietze
    moves on the rewritten relators then find a small set of Schreier
    generators that still generates the kernel: a generator is dropped when
    some relator, read from some coset, meets it once and meets otherwise
    only generators already dropped or frozen (kept for good). Random extra
    Schreier generators are added until the words hold `letter_budget`
    letters, so every seed costs the enumerator about the same work.
    """
    act = psu33_action(files)
    order = len(act[0])
    if order != 6048:
        raise AssertionError(f"projective image mod 3 has order {order}, not 6048")
    inv_act = [[0] * order for _ in range(3)]
    for g in range(3):
        for h, y in enumerate(act[g]):
            inv_act[g][y] = h

    columns = [(g, s) for s in (1, -1) for g in range(3)]
    trans: List[List[Letter]] = [[] for _ in range(order)]
    tree = set()
    seen = {0}
    queue = deque([0])
    while queue:
        c = queue.popleft()
        for g, s in rng.sample(columns, len(columns)):
            nxt = act[g][c] if s > 0 else inv_act[g][c]
            if nxt not in seen:
                seen.add(nxt)
                tree.add((c, g) if s > 0 else (nxt, g))
                trans[nxt] = trans[c] + [(g, s)]
                queue.append(nxt)
    edges = [(h, g) for h in range(order) for g in range(3) if (h, g) not in tree]
    edge_id = {e: i for i, e in enumerate(edges)}

    relations = []
    for h in range(order):
        for rel in files.relators:
            cur, occ = h, []
            for g, s in rel:
                if s > 0:
                    edge, cur = (cur, g), act[g][cur]
                else:
                    cur = inv_act[g][cur]
                    edge = (cur, g)
                if edge not in tree:
                    occ.append(edge_id[edge])
            if cur != h:
                raise AssertionError("a relator does not act trivially mod 3")
            relations.append(occ)
    rng.shuffle(relations)

    free, frozen, dropped = 0, 1, 2
    state = [free] * len(edges)
    by_gen: List[List[int]] = [[] for _ in edges]
    for ri, occ in enumerate(relations):
        for o in set(occ):
            by_gen[o].append(ri)

    def candidates(ri):
        counts: Dict[int, int] = {}
        for o in relations[ri]:
            counts[o] = counts.get(o, 0) + 1
        loose = [o for o in counts if state[o] == free]
        once = [o for o in loose if counts[o] == 1]
        return len(loose) - 1, once

    def drop(ri, x):
        stack = [(ri, x)]
        while stack:
            ri, x = stack.pop()
            _, once = candidates(ri)
            if state[x] != free or x not in once:
                continue
            touched = [o for o in set(relations[ri]) if o != x and state[o] == free]
            for o in touched:
                state[o] = frozen
            state[x] = dropped
            for y in touched + [x]:
                for rj in by_gen[y]:
                    cost, once = candidates(rj)
                    if once and cost == 0:
                        stack.append((rj, once[0]))

    threshold = 0
    while threshold < 8:
        progress = False
        for ri in range(len(relations)):
            cost, once = candidates(ri)
            if once and cost <= threshold:
                drop(ri, rng.choice(once))
                progress = True
        threshold = 0 if progress else threshold + 1

    def word(i):
        h, g = edges[i]
        back = [(x, -s) for x, s in reversed(trans[act[g][h]])]
        return format_letters(trans[h] + [(g, 1)] + back)

    chosen = [word(i) for i, st in enumerate(state) if st != dropped]
    spare = [i for i, st in enumerate(state) if st == dropped]
    rng.shuffle(spare)
    letters = sum(len(parse_letters(w)) for w in chosen)
    for i in spare:
        if letters >= letter_budget:
            break
        w = word(i)
        chosen.append(w)
        letters += len(parse_letters(w))
    rng.shuffle(chosen)
    return chosen
