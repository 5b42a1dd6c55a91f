"""Path lifting in SU(2,1): logarithms of elliptic elements, piecewise
relator paths, winding numbers of the last-coordinate projection, and the
central extension presentation they determine."""

from __future__ import annotations

import cmath
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .fpgroups import Presentation, Word
from .su21 import _H_STD, Z0, unitarity_residual

TWO_PI = 2.0 * math.pi
EXP_TOL = 1e-10
CLOSURE_TOL = 1e-8
MODULUS_FLOOR = 1e-6
ARG_STEP_LIMIT = math.pi / 2
SNAP_TOL = 0.05
DEFAULT_SAMPLES_PER_LETTER = 256
REFINE_BUDGET = 2 ** 16
# bound on len(word) * samples_per_letter, checked before any allocation
MAX_PATH_SAMPLES = 2 ** 22

# traceless anti-hermitian log of the central element zeta_3*Id; its
# one-parameter path stays in SU(2,1) and its projection turns by +2*pi/3
CENTRAL_THETA = np.array([TWO_PI / 3, -2 * TWO_PI / 3, TWO_PI / 3])


class GeneratorLog:
    """Anti-hermitian logarithm of an elliptic generator with its spectral
    data cached for fast path evaluation."""

    __slots__ = ("index", "v", "thetas", "vecs", "vecs_inv")

    def __init__(self, index: int, thetas: np.ndarray, vecs: np.ndarray,
                 vecs_inv: np.ndarray):
        self.index = index
        self.thetas = np.asarray(thetas, dtype=float)
        self.vecs = np.asarray(vecs, dtype=complex)
        self.vecs_inv = np.asarray(vecs_inv, dtype=complex)
        self.v = (self.vecs * (1j * self.thetas)) @ self.vecs_inv

    def exp_at(self, t: float, sign: int = 1) -> np.ndarray:
        phases = np.exp(1j * sign * self.thetas * t)
        return (self.vecs * phases) @ self.vecs_inv

    def matrix(self) -> np.ndarray:
        return self.exp_at(1.0)

    def projection_samples(self, start: np.ndarray, sign: int,
                           times: np.ndarray) -> np.ndarray:
        """Last coordinate of exp(sign*v*t) @ start for each t, vectorized.

        exp(sign*v*t)@start = sum_j (V[:,j] * (V^-1 start)_j) e^(i sign th_j t);
        only the last row of V matters for the projection.
        """
        coeffs = self.vecs[2, :] * (self.vecs_inv @ start)
        phases = np.exp(1j * sign * np.outer(times, self.thetas))
        return phases @ coeffs


def central_log(index: int = -1) -> GeneratorLog:
    """Log of the central element zeta_3*Id (the distinguished lift z)."""
    eye = np.eye(3, dtype=complex)
    return GeneratorLog(index, CENTRAL_THETA.copy(), eye, eye.copy())


def generator_logs(numeric: Sequence[np.ndarray]) -> List[GeneratorLog]:
    """Logs of standard-form generator matrices in order, followed by the
    central log, which serves the letter z."""
    logs = [elliptic_log(mat, index=i) for i, mat in enumerate(numeric)]
    logs.append(central_log(index=len(logs)))
    return logs


def _h_inner(x: np.ndarray, y: np.ndarray) -> complex:
    return complex(x.conj() @ _H_STD @ y)


def _split_repeated_eigenspace(vecs: np.ndarray, i: int, j: int) -> np.ndarray:
    """Replace eigenvector columns i, j (same eigenvalue) by an h-orthogonal
    pair so a branch shift can be applied to a single h-compatible line."""
    x1, x2 = vecs[:, i], vecs[:, j]
    y1 = None
    for cand in (x1, x2, x1 + x2, x1 + 1j * x2):
        if abs(_h_inner(cand, cand)) > 1e-8 * float(np.linalg.norm(cand)) ** 2:
            y1 = cand / np.linalg.norm(cand)
            break
    if y1 is None:
        raise ValueError("degenerate eigenspace: cannot split h-orthogonally")
    y2 = x2 - y1 * (_h_inner(y1, x2) / _h_inner(y1, y1))
    if np.linalg.norm(y2) < 1e-10:
        y2 = x1 - y1 * (_h_inner(y1, x1) / _h_inner(y1, y1))
    y2 = y2 / np.linalg.norm(y2)
    out = vecs.copy()
    out[:, i] = y1
    out[:, j] = y2
    return out


def elliptic_log(g: np.ndarray, index: int = 0, tol: float = EXP_TOL) -> GeneratorLog:
    """Traceless anti-hermitian log of an elliptic or central SU(2,1) matrix,
    eigenvalue arguments branch (-pi, pi] before the traceless adjustment."""
    mat = np.asarray(g, dtype=complex)
    off = mat - np.eye(3) * mat[0, 0]
    if np.max(np.abs(off)) < 1e-12:
        value = mat[0, 0]
        zeta3 = cmath.exp(2j * math.pi / 3)
        eye = np.eye(3, dtype=complex)
        if abs(value - 1.0) < 1e-9:
            return GeneratorLog(index, np.zeros(3), eye, eye.copy())
        if abs(value - zeta3) < 1e-9:
            return GeneratorLog(index, CENTRAL_THETA.copy(), eye, eye.copy())
        if abs(value - zeta3 ** 2) < 1e-9:
            return GeneratorLog(index, -CENTRAL_THETA.copy(), eye, eye.copy())
        raise ValueError(f"scalar {value} is not in SU(3)")

    vals, vecs = np.linalg.eig(mat)
    if np.max(np.abs(np.abs(vals) - 1.0)) > 1e-8:
        raise ValueError(f"eigenvalues {vals} are not unit modulus; "
                         "input is not elliptic")
    if np.linalg.cond(vecs) > 1e6:
        raise ValueError("matrix is not safely diagonalizable "
                         "(parabolic input is unsupported)")

    order = np.argsort(-np.angle(vals), kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    thetas = np.angle(vals)  # principal branch (-pi, pi]
    total = thetas.sum()
    shift = int(round(total / TWO_PI))
    if abs(total - shift * TWO_PI) > 1e-7:
        raise ValueError(f"eigenvalue arguments sum to {total}, "
                         "not a multiple of 2*pi; det is off")
    if shift == 1:
        if thetas[0] - thetas[1] < 1e-9:
            vecs = _split_repeated_eigenspace(vecs, 0, 1)
        thetas[0] -= TWO_PI
    elif shift == -1:
        if thetas[1] - thetas[2] < 1e-9:
            vecs = _split_repeated_eigenspace(vecs, 2, 1)
        thetas[2] += TWO_PI
    elif shift != 0:
        raise ValueError(f"unexpected branch shift {shift}")

    vecs_inv = np.linalg.inv(vecs)
    log = GeneratorLog(index, thetas, vecs, vecs_inv)
    residual = float(np.max(np.abs(log.matrix() - mat)))
    if residual > tol:
        raise ValueError(f"log reconstruction residual {residual:.3e} "
                         f"exceeds {tol}")
    if abs(np.trace(log.v)) > 1e-9:
        raise AssertionError("log is not traceless")
    herm = np.max(np.abs(log.v.conj().T @ _H_STD + _H_STD @ log.v))
    if herm > 1e-7:
        raise AssertionError("log is not anti-hermitian for the form")
    return log


class RelatorPath:
    """Sampled projection of a piecewise one-parameter path for a word.

    The word's letters act right to left: segment m travels along letter m's
    one-parameter subgroup and is right-multiplied by the product of the
    letters already traversed.
    """

    __slots__ = ("word", "s", "values", "segments", "letters")

    def __init__(self, word: Word, s: np.ndarray, values: np.ndarray,
                 segments: np.ndarray, letters: List[Tuple[int, int]]):
        self.word = word
        self.s = s
        self.values = values
        self.segments = segments
        self.letters = letters
        if abs(values[0] - 1.0) > 1e-12:
            raise ValueError("path must start at 1")
        moduli = np.abs(values)
        if float(moduli.min()) <= MODULUS_FLOOR:
            raise ValueError(f"projection modulus {moduli.min():.3e} at "
                             f"s={s[int(moduli.argmin())]:.6f} breaks the "
                             "nonvanishing guarantee")
        steps = np.abs(np.angle(values[1:] / values[:-1]))
        if steps.size and float(steps.max()) >= ARG_STEP_LIMIT:
            raise ValueError("consecutive samples differ in argument by "
                             f"{steps.max():.3f} >= pi/2")

    @property
    def endpoint(self) -> complex:
        return complex(self.values[-1])

    @property
    def is_closed(self) -> bool:
        return abs(self.values[-1] - self.values[0]) < CLOSURE_TOL

    def total_argument(self) -> float:
        return float(np.angle(self.values[1:] / self.values[:-1]).sum())


def relator_path(word: Word, logs: Sequence[GeneratorLog],
                 samples_per_letter: int = DEFAULT_SAMPLES_PER_LETTER,
                 budget: int = REFINE_BUDGET) -> RelatorPath:
    """Sample the projected path of a word, refining each segment until
    consecutive samples turn by less than pi/2."""
    nominal = len(word) * samples_per_letter
    if nominal > MAX_PATH_SAMPLES:
        raise ValueError(f"path needs {nominal} samples ({len(word)} letters "
                         f"x {samples_per_letter}), over the limit of "
                         f"{MAX_PATH_SAMPLES}")
    letters = list(reversed(word.letters()))  # rightmost letter acts first
    s_parts = [np.array([0.0])]
    value_parts = [np.array([1.0 + 0.0j])]
    seg_parts = [np.array([0], dtype=int)]
    nletters = max(len(letters), 1)
    accumulated = np.eye(3, dtype=complex)

    for seg, (gen, sign) in enumerate(letters):
        log = logs[gen]
        start = accumulated @ Z0
        prev_value = value_parts[-1][-1]
        n = samples_per_letter
        while True:
            times = np.arange(1, n + 1) / n
            values = log.projection_samples(start, sign, times)
            all_vals = np.concatenate(([prev_value], values))
            steps = np.abs(np.angle(all_vals[1:] / all_vals[:-1]))
            if float(steps.max()) < ARG_STEP_LIMIT:
                break
            if n >= budget:
                raise ValueError(f"segment {seg} still turns too fast at "
                                 f"{n} samples (budget {budget})")
            n *= 2
        s_parts.append((seg + times) / nletters)
        value_parts.append(values)
        seg_parts.append(np.full(n, seg, dtype=int))
        accumulated = log.exp_at(1.0, sign) @ accumulated

    if not letters:
        s_parts.append(np.array([1.0]))
        value_parts.append(np.array([1.0 + 0.0j]))
        seg_parts.append(np.array([0], dtype=int))

    return RelatorPath(word, np.concatenate(s_parts),
                       np.concatenate(value_parts),
                       np.concatenate(seg_parts), letters)


def winding_number(path: RelatorPath) -> int:
    """Winding of the sampled loop around 0, counterclockwise positive."""
    if not path.is_closed:
        raise ValueError(f"path is not closed: endpoint {path.endpoint}")
    return _snap(path.total_argument() / TWO_PI)


def _snap(turns: float) -> int:
    nearest = round(turns)
    if abs(turns - nearest) > SNAP_TOL:
        raise ValueError(f"total turning {turns} is not within {SNAP_TOL} "
                         "of an integer")
    return int(nearest)


class LiftedPresentation:
    """Base presentation extended by a central generator z, with the central
    exponent k_i for each base relator meaning relator * z^(k_i) = 1."""

    __slots__ = ("base", "z_name", "exponents")

    def __init__(self, base: Presentation, exponents: Sequence[int],
                 z_name: str = "z"):
        if len(exponents) != len(base.relators):
            raise ValueError("need one central exponent per base relator")
        if z_name in base.gens:
            raise ValueError(f"central generator name {z_name!r} collides")
        self.base = base
        self.exponents = list(int(k) for k in exponents)
        self.z_name = z_name

    def to_presentation(self) -> Presentation:
        """Presentation on base generators plus z: lifted relators and
        centrality relations."""
        zi = self.base.ngens
        z = Word.gen(zi)
        relators = [rel * z ** k
                    for rel, k in zip(self.base.relators, self.exponents)]
        for g in range(self.base.ngens):
            gw = Word.gen(g)
            relators.append(gw * z * gw.inv() * z.inv())
        return Presentation(self.base.gens + [self.z_name], relators)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LiftedPresentation):
            return NotImplemented
        return (self.base == other.base and self.exponents == other.exponents
                and self.z_name == other.z_name)

    def __repr__(self) -> str:
        rels = ", ".join(
            f"{r!r}*z^{k}" if k else f"{r!r}"
            for r, k in zip(self.base.relators, self.exponents))
        return f"LiftedPresentation({rels})"


def lift_presentation(pres: Presentation, powers: Sequence[Optional[int]],
                      numeric: Sequence[np.ndarray],
                      samples_per_letter: int = DEFAULT_SAMPLES_PER_LETTER,
                      ) -> LiftedPresentation:
    """Lift a presentation whose relators are exactly central to the
    universal cover.

    powers[i] is relator i's exact value as a power j of zeta_3 (None if not
    central) and numeric the standard-form generator matrices. Each relator
    is sampled once: the closed loop z^-j * relator appends j central
    segments that each turn by exactly -2*pi/3, so its winding is the open
    path's turning minus j*2*pi/3.
    """
    for name, mat in zip(pres.gens, numeric):
        residual = unitarity_residual(mat)
        if residual > 1e-8:
            raise ValueError(f"generator {name} is not numerically in "
                             f"SU(2,1): residual {residual:.3e}")
    logs = generator_logs(numeric)
    zeta3 = cmath.exp(2j * math.pi / 3)

    exponents = []
    for rel, j in zip(pres.relators, powers):
        if j is None:
            raise ValueError("relator does not evaluate to a central element")
        path = relator_path(rel, logs, samples_per_letter)
        if abs(path.endpoint - zeta3 ** j) > CLOSURE_TOL:
            raise ValueError(f"numeric path endpoint {path.endpoint} "
                             f"disagrees with exact central value index {j}")
        r = _snap((path.total_argument() - j * TWO_PI / 3) / TWO_PI)
        exponents.append(-(j + 3 * r))
    return LiftedPresentation(pres, exponents)


def normalize_lift(lp: LiftedPresentation) -> LiftedPresentation:
    """Canonical form under the moves g_i -> g_i*z^(c_i) and z -> z^-1.

    Torsion relators g^m (z-exponent k) pin c_g by minimizing |k + m*c|,
    ties toward the nonnegative value; every relator then receives the
    induced correction via its exponent sums; of the two z-orientations the
    lexicographically larger exponent vector wins.
    """
    base = lp.base

    def normal_form(exponents: List[int]) -> List[int]:
        shifts = [0] * base.ngens
        pinned = [False] * base.ngens
        for rel, k in zip(base.relators, exponents):
            if len(rel.syllables) != 1:
                continue
            g, m = rel.syllables[0]
            if m <= 0 or pinned[g]:
                continue
            c = -(k // m) if k % m == 0 else round(-k / m)
            best = min((abs(k + m * cc), -(k + m * cc), cc)
                       for cc in (c - 1, c, c + 1))
            shifts[g] = best[2]
            pinned[g] = True
        return [k + sum(cc * rel.exponent_sum(g)
                        for g, cc in enumerate(shifts))
                for rel, k in zip(base.relators, exponents)]

    straight = normal_form(lp.exponents)
    flipped = normal_form([-k for k in lp.exponents])
    chosen = max(straight, flipped)
    return LiftedPresentation(base, chosen, lp.z_name)
