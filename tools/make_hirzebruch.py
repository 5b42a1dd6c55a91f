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

TARGET_INDEX = 72

# coset limit of each trial enumeration, as a multiple of the target index:
# most trial prefixes generate infinite-index subgroups and fill the limit,
# so it sets the search time; 20 and 50 times the index find the same words
COSET_LIMIT_FACTOR = 50

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
    assert len(ELEMENTS) == TARGET_INDEX
    order3 = [x for x in ELEMENTS if power(x, 3) == IDENT]
    order6 = [x for x in ELEMENTS if power(x, 6) == IDENT]
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
                if len(closure((bb, uu, vv))) == TARGET_INDEX:
                    surjections.append((bb, uu, vv))
    return surjections


def word_image(word, images):
    out = IDENT
    for g, e in word.letters():
        out = mul(out, images[g] if e == 1 else inv(images[g]))
    return out


def kernel_signature(images, max_len=4):
    """The words of at most max_len letters (letter 2g is generator g, 2g+1
    its inverse) in the kernel; each word's image is its prefix's times one
    letter."""
    letters = [x for image in images for x in (image, inv(image))]
    sig = set()
    level = [((), IDENT)]
    for _ in range(max_len):
        level = [(combo + (c,), mul(out, x)) for combo, out in level
                 for c, x in enumerate(letters)]
        sig.update(combo for combo, out in level if out == IDENT)
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
    assert len(index) == TARGET_INDEX
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


def _index(pres, words):
    """Index of <words>, or None when the enumeration passes the limit."""
    try:
        return todd_coxeter(pres, words, max_cosets=COSET_LIMIT_FACTOR
                            * TARGET_INDEX).index
    except EnumerationLimit:
        return None


def prune(pres, words):
    chosen = []
    for w in words:
        chosen.append(w)
        if _index(pres, chosen) == TARGET_INDEX:
            break
    else:
        raise RuntimeError("Schreier words never reached the target index")
    # backward pass: drop anything redundant
    keep = list(chosen)
    for w in list(chosen):
        trial = [x for x in keep if x is not w]
        if trial and _index(pres, trial) == TARGET_INDEX:
            keep = trial
    return keep


# ---------------------------------------------------------------- main


def search():
    """Word lines of the first kernel, in signature order, that is normal of
    index 72 with class-2 quotient ranks 4 (abelianization) and 3 (derived
    part); prints one progress line per step."""
    pres = dm_lattice("dm-5-4-1-1-1-6").presentation
    surjections = find_surjections()
    print(f"surjections onto SL2(F3) x Z/3: {len(surjections)}")

    kernels = {}
    for images in surjections:
        sig = kernel_signature(images)
        kernels.setdefault(sig, images)
    print(f"distinct kernels by length-4 signature: {len(kernels)}")

    for n, (sig, images) in enumerate(sorted(kernels.items(),
                                             key=lambda kv: sorted(kv[0]))):
        small = prune(pres, schreier_words(images))
        table = todd_coxeter(pres, small,
                             max_cosets=COSET_LIMIT_FACTOR * TARGET_INDEX)
        normal = table.fixes_all_cosets(small)
        q = subgroup_class2(table, pres)
        print(f"kernel {n}: generators {len(small)}, index {table.index}, "
            f"normal {normal}, surviving Schreier generators {q.n}, "
            f"ab {q.abelianization.describe()}, "
            f"derived {q.derived_part.describe()}")
        if (q.abelianization.free_rank == 4
                and q.derived_part.free_rank == 3 and normal):
            return [format_word(w, pres.gens) for w in small]
    raise RuntimeError("no kernel matched the expected quotient ranks")


def main():
    words = search()
    out = Path(__file__).resolve().parents[1] / "src" / "latcover" \
        / "presets" / "dm-5-4-1-1-1-6" / "subgroups"
    out.mkdir(parents=True, exist_ok=True)
    lines = ["# Index-72 normal subgroup of the dm-5-4-1-1-1-6 preset.",
             "# Produced by tools/make_hirzebruch.py; every property",
             "# is re-verified by the test suite."]
    (out / "hirzebruch.words").write_text("\n".join(lines + words) + "\n")
    print(f"wrote {out / 'hirzebruch.words'} ({len(words)} words)")
    for line in words:
        print("  ", line)


if __name__ == "__main__":
    main()
