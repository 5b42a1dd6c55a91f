"""Lattices: one loader for presentations with exact generator matrices,
their relators' exact central values, and the bundled triangle-group
fixtures with their self-checks."""

from __future__ import annotations

import os
from importlib import resources
from pathlib import Path
from typing import (TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from .exactnum import zeta
from .fpgroups import (Presentation, Word, braid_relator, content_lines,
                       format_word, parse_presentation)
from .su21 import (GroupMatrix, HermitianForm, check_unitary,
                   parse_matrix_file, scale_to_su)

if TYPE_CHECKING:
    import numpy as np
    from .pathlift import LiftedPresentation

_LABELS = {
    "dm-5-4-1-1-1-6": "(5,4,1,1,1)/6",
    "dm-11-7-2-2-2-12": "(11,7,2,2,2)/12",
}

# each preset by its directory id or its weight label
_CANONICAL = {key: name for name, label in _LABELS.items()
              for key in (name, label)}

EXPECTED_POWERS = (2, 2, 2, 0, 0, 0, 0)


def preset_ids() -> List[str]:
    """Canonical directory ids of the bundled presets."""
    return sorted(_LABELS)


def _presets_root():
    env = os.environ.get("LATCOVER_PRESETS")
    if env:
        return Path(env)
    return resources.files(__package__) / "presets"


def _template_presentation(r1: int, r2: int) -> Presentation:
    b, u, v = Word.gen(0), Word.gen(1), Word.gen(2)
    return Presentation(["b", "u", "v"], [
        b ** r1,
        u ** r1,
        v ** r2,
        braid_relator(0, 2, 2),
        braid_relator(0, 1, 3),
        braid_relator(1, 2, 4),
        (b * u * v) ** 3,
    ])


def read_words(path: Path, presentation: Presentation) -> List[Word]:
    """Words of a subgroup file, at least one, one per line; `#` starts a
    comment."""
    words = [presentation.word(line) for line in content_lines(path.read_text())]
    if not words:
        raise ValueError(f"subgroup file {path} holds no words")
    return words


class WordProducts:
    """Exact products of syllable words over generator matrices, memoised
    by syllable tuple for one evaluation pass: a periodic word p^k is p
    raised by squaring, any other its longest proper prefix times its last
    syllable, and a generator is inverted at most once."""

    __slots__ = ("gens", "_memo")

    def __init__(self, gens: Sequence[GroupMatrix], form: HermitianForm):
        self.gens = gens
        self._memo = {(): GroupMatrix.identity(form)}

    def of(self, syllables: Tuple[Tuple[int, int], ...]) -> GroupMatrix:
        """The product of the syllables (g, e), each gens[g]^e."""
        if syllables not in self._memo:
            size = len(syllables)
            period = next(d for d in range(1, size + 1) if size % d == 0
                          and syllables == syllables[:d] * (size // d))
            if period < size:
                product = self.of(syllables[:period]) ** (size // period)
            elif size > 1:
                product = self.of(syllables[:-1]) * self.of(syllables[-1:])
            else:
                (g, e), = syllables
                base = self.gens[g] if e > 0 else (
                    self.gens[g].inv() if e == -1 else self.of(((g, -1),)))
                product = base ** abs(e)
            self._memo[syllables] = product
        return self._memo[syllables]


def central_power(word: Word, products: WordProducts) -> Optional[int]:
    """j in {0,1,2} with the exact product of word equal to zeta_3^j * Id,
    or None when the product is not such a central element. With P the
    word's longest positive prefix and Q the inverse of the rest, that is
    exactly P = zeta_3^j * Q."""
    syls = word.syllables
    cut = next((i for i, (_, e) in enumerate(syls) if e < 0), len(syls))
    p = products.of(syls[:cut]).exact
    q = products.of(tuple((g, -e) for g, e in reversed(syls[cut:]))).exact
    # q is invertible: a nonzero cell first rules out every wrong j at once
    cells = sorted(((r, c) for r in range(3) for c in range(3)),
                   key=lambda cell: not q[cell[0]][cell[1]])
    return next((j for j in range(3) if all(
        p[r][c] == (zeta(3, j) * q[r][c] if j else q[r][c]) for r, c in cells)),
        None)


class Lattice:
    """A presentation, optionally with exact generator matrices.

    Matrices are checked once, here: their names must be the generator
    names, each is scaled into SU(2,1) from any root-of-unity determinant
    and must then be exactly unitary for the form, and each relator must
    evaluate to a central element zeta_3^j * Id, its j kept in
    `central_powers` (one `WordProducts` pass). The numeric view,
    conjugated to the standard form where path sampling works, is built
    on the first `numerics()` call: loading a lattice embeds nothing and
    imports no numeric module.
    """

    __slots__ = ("presentation", "form", "matrices", "central_powers",
                 "standard_numerics")

    def __init__(self, presentation: Presentation,
                 form: Optional[HermitianForm] = None,
                 matrices: Optional[Mapping[str, GroupMatrix]] = None):
        self.presentation = presentation
        self.form = form
        self.matrices: Optional[Dict[str, GroupMatrix]] = None
        self.central_powers: Optional[List[int]] = None
        self.standard_numerics: Optional[List[np.ndarray]] = None
        if matrices is None:
            return
        gens = presentation.gens
        if sorted(matrices) != sorted(gens):
            raise ValueError(f"matrix names {sorted(matrices)} do not match "
                             f"generators {gens}")
        self.matrices = {g: scale_to_su(matrices[g]) for g in gens}
        for name, mat in self.matrices.items():
            if not check_unitary(mat):
                raise ValueError(f"matrix {name} is not unitary for the "
                                 f"declared form")
        products = WordProducts([self.matrices[g] for g in gens], form)
        self.central_powers = []
        for rel in presentation.relators:
            j = central_power(rel, products)
            if j is None:
                raise ValueError(f"relator {format_word(rel, gens)} does not "
                                 "evaluate to a central element")
            self.central_powers.append(j)

    def numerics(self) -> List[np.ndarray]:
        """Standard-form numeric generator matrices, in generator order."""
        numeric = [self.matrices[g].numeric for g in self.presentation.gens]
        if self.form.is_standard:
            return numeric
        if self.standard_numerics is None:
            from .pathlift import standard_form_numerics
            self.standard_numerics = standard_form_numerics(self.form, numeric)
        return list(self.standard_numerics)

    def lift(self, samples_per_letter: Optional[int] = None
             ) -> LiftedPresentation:
        """Lift to the universal cover, in the canonical generator gauge, at
        `pathlift.DEFAULT_SAMPLES_PER_LETTER` samples per letter by default."""
        from . import pathlift
        if samples_per_letter is None:
            samples_per_letter = pathlift.DEFAULT_SAMPLES_PER_LETTER
        return pathlift.normalize_lift(pathlift.lift_presentation(
            self.presentation, self.central_powers, self.numerics(),
            samples_per_letter))


def file_lattice(pres_path: Path, matrices_path: Optional[Path] = None
                 ) -> Lattice:
    """Load a presentation file and, optionally, a matrix file."""
    presentation = parse_presentation(Path(pres_path).read_text())
    if not matrices_path:
        return Lattice(presentation)
    return Lattice(presentation, *parse_matrix_file(
        Path(matrices_path).read_text()))


class LatticePreset(Lattice):
    """A packaged lattice with its name, weight label and fixture directory."""

    __slots__ = ("name", "label", "_root")

    def __init__(self, name: str, root, presentation: Presentation,
                 form: HermitianForm, matrices: Mapping[str, GroupMatrix]):
        super().__init__(presentation, form, matrices)
        self.name = name
        self.label = _LABELS.get(name, name)
        self._root = root

    def subgroup_names(self) -> List[str]:
        """Bundled subgroup word files, without the .words suffix."""
        sub = self._root / "subgroups"
        if not sub.is_dir():
            return []
        return sorted(p.name[:-len(".words")] for p in sub.iterdir()
                      if p.name.endswith(".words"))

    def subgroup_words(self, name: str) -> List[Word]:
        """Generating words of a bundled subgroup, over the base generators."""
        path = self._root / "subgroups" / f"{name}.words"
        if not path.is_file():
            known = ", ".join(self.subgroup_names()) or "none"
            raise FileNotFoundError(
                f"no subgroup fixture {name!r} for preset {self.name} "
                f"(available: {known})")
        return read_words(path, self.presentation)

    def __repr__(self) -> str:
        return f"LatticePreset({self.name!r}, weights {self.label})"


def verify_preset(preset: LatticePreset) -> List[Tuple[str, int]]:
    """Compare every relator's exact central power, found at load, with the
    template's.

    Returns (relator, j) pairs with relator value = zhat^j; raises if any
    disagrees with the expected powers.
    """
    results: List[Tuple[str, int]] = []
    for rel, j, expected in zip(preset.presentation.relators,
                                preset.central_powers, EXPECTED_POWERS):
        text = format_word(rel, preset.presentation.gens)
        if j != expected:
            raise ValueError(f"relator {text} evaluates to zhat^{j}, "
                             f"expected zhat^{expected} in preset {preset.name}")
        results.append((text, j))
    return results


def dm_lattice(preset_id: str) -> LatticePreset:
    """Load, scale, and verify a bundled preset by directory id or weight label."""
    name = _CANONICAL.get(preset_id)
    if name is None:
        known = sorted(_CANONICAL)
        raise ValueError(f"unknown preset {preset_id!r}; known ids: "
                         f"{', '.join(known)}")
    root = _presets_root() / name
    if not root.is_dir():
        raise FileNotFoundError(f"preset fixture directory not found: {root}")

    presentation = parse_presentation((root / "presentation.txt").read_text())
    gens, relators = presentation.gens, presentation.relators
    if gens != ["b", "u", "v"]:
        raise ValueError(f"preset {name}: generators must be b, u, v, "
                         f"got {gens}")
    if len(relators) != len(EXPECTED_POWERS):
        raise ValueError(f"preset {name}: expected {len(EXPECTED_POWERS)} "
                         f"relators, got {len(relators)}")
    r1, r2 = relators[0].exponent_sum(0), relators[2].exponent_sum(2)
    if min(r1, r2) < 2:
        raise ValueError(f"preset {name}: orders of b and v must be at least "
                         f"2, got {r1} and {r2}")
    for want, got in zip(_template_presentation(r1, r2).relators, relators):
        if got != want:
            raise ValueError(f"preset {name}: expected {format_word(want, gens)}"
                             f", got {format_word(got, gens)}")

    form, unscaled = parse_matrix_file((root / "matrices.txt").read_text())
    preset = LatticePreset(name, root, presentation, form, unscaled)
    verify_preset(preset)
    return preset
