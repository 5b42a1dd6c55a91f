#!/usr/bin/env python3
"""Produce the bundled index-72 normal subgroup fixture of the first preset.

Enumerates surjections of the packaged (3,6) triangle-lattice presentation
onto SL2(F3) x Z/3, deduplicates their kernels, measures each kernel's
class-2 quotient, and writes a pruned Schreier generating set for the
kernel whose quotient has abelianization free rank 4 and derived part free
rank 3. Every property is re-verified by the test suite; this script only
manufactures the fixture.
"""

import itertools
import sys
from collections import deque
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from latcover.fpgroups import EnumerationLimit, Word, format_word, todd_coxeter
from latcover.nq2 import subgroup_class2
from latcover.presets import dm_lattice

# ---------------------------------------------------------------- SL2(F3) x Z/3


def _sl2_elements():
    out = []
    for a, b, c, d in itertools.product(range(3), repeat=4):
        if (a * d - b * c) % 3 == 1:
            out.append((a, b, c, d))
    return out


def _sl2_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % 3, (a * f + b * h) % 3,
            (c * e + d * g) % 3, (c * f + d * h) % 3)


SL2 = _sl2_elements()
IDENT = ((1, 0, 0, 1), 0)
ELEMENTS = [(m, k) for m in SL2 for k in range(3)]


def mul(x, y):
    return (_sl2_mul(x[0], y[0]), (x[1] + y[1]) % 3)


def power(x, n):
    out = IDENT
    for _ in range(n):
        out = mul(out, x)
    return out


def inv(x):
    a, b, c, d = x[0]
    return (((d) % 3, (-b) % 3, (-c) % 3, (a) % 3), (-x[1]) % 3)


def closure(gens):
    seen = {IDENT}
    frontier = deque([IDENT])
    while frontier:
        x = frontier.popleft()
        for g in gens:
            y = mul(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


# ---------------------------------------------------------------- hom search


def find_surjections():
    assert len(ELEMENTS) == 72
    order3 = [x for x in ELEMENTS if power(x, 3) == IDENT]
    order6 = [x for x in ELEMENTS if power(x, 6) == IDENT]
    print(f"|x: x^3=1| = {len(order3)}, |x: x^6=1| = {len(order6)}")
    surjections = []
    for bb in order3:
        for uu in order3:
            if mul(mul(bb, uu), bb) != mul(mul(uu, bb), uu):
                continue
            for vv in order6:
                if mul(bb, vv) != mul(vv, bb):
                    continue
                uv = mul(uu, vv)
                vu = mul(vv, uu)
                if mul(uv, uv) != mul(vu, vu):
                    continue
                if power(mul(mul(bb, uu), vv), 3) != IDENT:
                    continue
                if len(closure((bb, uu, vv))) == 72:
                    surjections.append((bb, uu, vv))
    return surjections


def word_image(word, images):
    out = IDENT
    for g, e in word.letters():
        out = mul(out, images[g] if e == 1 else inv(images[g]))
    return out


def kernel_signature(images, max_len=4):
    letters = []
    for g in range(3):
        letters.append((g, 1))
        letters.append((g, -1))
    sig = set()
    for length in range(1, max_len + 1):
        for combo in itertools.product(range(6), repeat=length):
            out = IDENT
            for c in combo:
                g, e = letters[c]
                out = mul(out, images[g] if e == 1 else inv(images[g]))
            if out == IDENT:
                sig.add(combo)
    return frozenset(sig)


# ---------------------------------------------------------------- Schreier words


def schreier_words(images):
    """Generator words of the kernel via a spanning tree on the 72 cosets."""
    index = {IDENT: Word(())}
    frontier = deque([IDENT])
    gens = [Word.gen(i) for i in range(3)]
    while frontier:
        x = frontier.popleft()
        for g in range(3):
            y = mul(x, images[g])
            if y not in index:
                index[y] = index[x] * gens[g]
                frontier.append(y)
    assert len(index) == 72
    words = []
    for x, tx in index.items():
        for g in range(3):
            y = mul(x, images[g])
            w = tx * gens[g] * index[y].inv()
            if not w.is_identity:
                assert word_image(w, images) == IDENT
                words.append(w)
    # dedupe, shortest first
    uniq = {}
    for w in words:
        uniq.setdefault(w.syllables, w)
    return sorted(uniq.values(), key=lambda w: (len(w), str(w.syllables)))


def prune(pres, words, target_index=72):
    chosen = []
    for w in words:
        chosen.append(w)
        try:
            table = todd_coxeter(pres, chosen, max_cosets=200000)
        except EnumerationLimit:
            continue
        if table.index == target_index:
            break
    else:
        raise RuntimeError("Schreier words never reached the target index")
    # backward pass: drop anything redundant
    keep = list(chosen)
    for w in list(chosen):
        trial = [x for x in keep if x is not w]
        if not trial:
            continue
        try:
            table = todd_coxeter(pres, trial, max_cosets=200000)
        except EnumerationLimit:
            continue
        if table.index == target_index:
            keep = trial
    return keep


# ---------------------------------------------------------------- main


def main():
    preset = dm_lattice("dm-5-4-1-1-1-6")
    pres = preset.presentation
    surjections = find_surjections()
    print(f"surjections onto SL2(F3) x Z/3: {len(surjections)}")

    kernels = {}
    for images in surjections:
        sig = kernel_signature(images)
        kernels.setdefault(sig, images)
    print(f"distinct kernels by length-4 signature: {len(kernels)}")

    for n, (sig, images) in enumerate(sorted(kernels.items(),
                                             key=lambda kv: sorted(kv[0]))):
        words = schreier_words(images)
        small = prune(pres, words)
        table = todd_coxeter(pres, small, max_cosets=200000)
        normal = table.fixes_all_cosets(small)
        q = subgroup_class2(table, pres)
        print(f"kernel {n}: generators {len(small)}, index {table.index}, "
              f"normal {normal}, surviving Schreier generators {q.n}, "
              f"ab {q.abelianization.describe()}, "
              f"derived {q.derived_part.describe()}")
        if (q.abelianization.free_rank == 4
                and q.derived_part.free_rank == 3 and normal):
            out = Path(__file__).resolve().parents[1] / "src" / "latcover" \
                / "presets" / "dm-5-4-1-1-1-6" / "subgroups"
            out.mkdir(parents=True, exist_ok=True)
            lines = ["# Index-72 normal subgroup of the dm-5-4-1-1-1-6 preset.",
                     "# Produced by tools/make_hirzebruch.py; every property",
                     "# is re-verified by the test suite."]
            lines += [format_word(w, pres.gens) for w in small]
            (out / "hirzebruch.words").write_text("\n".join(lines) + "\n")
            print(f"wrote {out / 'hirzebruch.words'} ({len(small)} words)")
            for w in small:
                print("  ", format_word(w, pres.gens))
            return
    raise RuntimeError("no kernel matched the expected quotient ranks")


if __name__ == "__main__":
    main()
