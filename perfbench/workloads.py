"""The benchmark's workloads: for each, the presets its set-up loads and one
cycle of CLI commands with the output every command must produce.

A command is a dict: `argv` for latcover.cli.main, the expected exit code
`rc`, and any of four checks the worker applies to the captured stdout:
`text` (the exact bytes), `lines` (lines that must appear), `free_abelian`
(a presentation on that many generators whose relators have exponent sum 0
in each, so its abelianization is free of that rank), and `path` (the first
line plus the projected value at the end of every path segment, compared
with an independent matrix product).
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Dict, List

from reference import (PresetFiles, central_power, format_letters,
                       kernel_words, parse_letters, path_boundaries,
                       random_reduced_word)

P1 = "dm-5-4-1-1-1-6"
P2 = "dm-11-7-2-2-2-12"
HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"

# 4 + 10 commands, run at least three times: 42 or more samples, so the
# tail is always p75. The open paths all run on dm-11-7-2-2-2-12, where they
# cost about what `lift --preset dm-5-4-1-1-1-6` costs, so the median and
# p75 both fall inside that group of eleven commands rather than on an edge
# between command types, where host noise would swap which type they read.
OPEN_PATH_WORDS = 10
LIFT_MIN_CYCLES = 3
OPEN_PATH_LETTERS = 64
KERNEL_LETTERS = 300  # letters in the cosets workload's subgroup words


def _golden(name: str) -> str:
    return (GOLDEN / f"{name}.txt").read_text()


def _lift_text(files: PresetFiles) -> str:
    """The lift every preset must give: exponents [1,1,1,0,0,0,3]."""
    lines = ["generators: b u v z"]
    for text, k in zip(files.relator_texts, (1, 1, 1, 0, 0, 0, 3)):
        lines.append(text if k == 0 else f"{text}*z" if k == 1 else f"{text}*z^{k}")
    lines.append("# z central")
    return "\n".join(lines) + "\n"


def _path_check(first: str, letters, mats) -> Dict:
    return {"first": first, "letters": len(letters),
            "boundaries": [[v.real, v.imag] for v in path_boundaries(letters, mats)]}


def _lift_presets(seed: int, presets_root: Path, workdir: Path) -> List[Dict]:
    files = {p: PresetFiles(presets_root / p) for p in (P1, P2)}
    std = {p: f.standard() for p, f in files.items()}
    powers = [central_power(r, files[P2].scaled()) for r in files[P2].relators]
    verify_lines = [f"{t} = {'1' if j == 0 else 'z' if j == 1 else f'z^{j}'}"
                    for t, j in zip(files[P2].relator_texts, powers)]
    b9 = parse_letters("b^9")
    cycle = [
        {"argv": ["lift", "--preset", P1], "text": _lift_text(files[P1])},
        {"argv": ["lift", "--preset", P2], "text": _lift_text(files[P2])},
        {"argv": ["verify", "--preset", P2], "text": _golden(f"verify-{P2}"),
         "lines": verify_lines},
        {"argv": ["winding", "--preset", P1, "--word", "b^9"],
         "text": _golden(f"winding-b9-{P1}"),
         "path": _path_check("winding: -1", b9, std[P1])},
    ]
    rng = random.Random(seed)
    for _ in range(OPEN_PATH_WORDS):
        letters = random_reduced_word(rng, OPEN_PATH_LETTERS)
        cycle.append({"argv": ["winding", "--preset", P2, "--word",
                               format_letters(letters), "--open-path"],
                      "path": _path_check("endpoint", letters, std[P2])})
    return cycle


def _certify(seed: int, presets_root: Path, workdir: Path) -> List[Dict]:
    words = (presets_root / P1 / "subgroups" / "hirzebruch.words").read_text()
    subgroup = [ln.strip() for ln in words.splitlines()
                if ln.strip() and not ln.startswith("#")]
    return [{"argv": ["certify", "--preset", P1, "--subgroup", "hirzebruch"],
             "text": _golden("certify-hirzebruch"),
             "lines": ([f"  {w}" for w in subgroup]
                       + ["index: 72", "abelianization: Z^4", "derived part: Z^4",
                          "verdict: INFINITE_ORDER"])}]


def _subgroup_base(seed: int, presets_root: Path, workdir: Path) -> List[Dict]:
    sub = ["--preset", P1, "--subgroup", "hirzebruch"]
    # invariants documented with the fixture (hirzebruch.md): free ranks 4, 3
    cycle = [
        {"argv": ["subpres"] + sub, "text": _golden("subpres-hirzebruch"),
         "free_abelian": 4},
        {"argv": ["nq2"] + sub, "text": "abelianization: Z^4\nderived part: Z^3\n"},
        {"argv": ["abelian"] + sub, "text": "abelianization: Z^4\n"},
    ]
    shift = seed % len(cycle)
    return cycle[shift:] + cycle[:shift]


def _cosets(seed: int, presets_root: Path, workdir: Path) -> List[Dict]:
    words = kernel_words(PresetFiles(presets_root / P2), random.Random(seed),
                         KERNEL_LETTERS)
    path = workdir / f"kernel-mod3-s{seed}.words"
    path.write_text("\n".join(words) + "\n")
    return [{"argv": ["cosets", "--preset", P2, "--subgroup", str(path)],
             "text": "index: 6048\nvalid: yes\nnormal: yes\n"}]


# workload -> (presets loaded in set-up, fewest cycles a run makes, cycle maker)
_WORKLOADS = {
    "lift-presets": ((P1, P2), LIFT_MIN_CYCLES, _lift_presets),
    "certify-hirzebruch": ((P1,), 1, _certify),
    "subgroup-base": ((P1,), 1, _subgroup_base),
    "cosets-congruence": ((P2,), 1, _cosets),
}


def build(name: str, seed: int, presets_root: Path, workdir: Path) -> Dict:
    """Plan for one run: presets to load in set-up, and the command cycle."""
    presets, min_cycles, make_cycle = _WORKLOADS[name]
    cycle = make_cycle(seed, presets_root, workdir)
    for cmd in cycle:
        cmd.setdefault("rc", 0)
    return {"workload": name, "seed": seed, "presets": list(presets),
            "min_cycles": min_cycles, "cycle": cycle}
