"""Numeric SU(2,1) geometry and path lifting: the standard form, Iwasawa
coordinates, the last-coordinate projection, logarithms of elliptic
elements, piecewise relator paths, their winding numbers, and the central
extension presentation they determine. Only the commands that sample paths
import this module, and with it numpy."""

from __future__ import annotations

import cmath
import math
from typing import List, Optional, Sequence

import numpy as np

from .fpgroups import Presentation, Word
from .su21 import HermitianForm

TWO_PI = 2.0 * math.pi
EXP_TOL = 1e-10
CLOSURE_TOL = 1e-8
MODULUS_FLOOR = 1e-6
ARG_STEP_LIMIT = math.pi / 2
SNAP_TOL = 0.05
DEFAULT_SAMPLES_PER_LETTER = 256
REFINE_BUDGET = 2 ** 16
Z_NAME = "z"  # the central generator of lifted presentations
# bound on len(word) * samples_per_letter, checked before any allocation
MAX_PATH_SAMPLES = 2 ** 22
UNITARY_TOL = 1e-8
NONVANISHING_TOL = 1e-8

_H_STD = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
# distinguished h-negative vector: last coordinate of g*z0 never vanishes
Z0 = np.array([-1.0, 0.0, 1.0], dtype=complex)
# columns: the h-orthonormal basis f1 = (e1+e3)/sqrt2, f2 = e2 of the
# z0-perpendicular plane, then the normalized negative vector z0/sqrt2
_FRAME = np.array([[1, 0, -1], [0, math.sqrt(2), 0], [1, 0, 1]]) / math.sqrt(2)

# traceless anti-hermitian log of the central element zeta_3*Id; its
# one-parameter path stays in SU(2,1) and its projection turns by +2*pi/3
CENTRAL_THETA = np.array([TWO_PI / 3, -2 * TWO_PI / 3, TWO_PI / 3])
ZETA3 = cmath.exp(2j * math.pi / 3)


class IwasawaCoords:
    """Coordinates g = b(lam, zvec, t) * k(k_su, xi) for the standard form."""

    __slots__ = ("lam", "zvec", "t", "k_su", "xi")

    def __init__(self, lam: float, zvec: complex, t: float,
                 k_su: np.ndarray, xi: complex):
        if lam <= 0:
            raise ValueError(f"lambda must be positive, got {lam}")
        if abs(abs(xi) - 1.0) > 1e-6:
            raise ValueError(f"xi must have unit modulus, got {xi}")
        self.lam = float(lam)
        self.zvec = complex(zvec)
        self.t = float(t)
        self.k_su = np.asarray(k_su, dtype=complex)
        self.xi = complex(xi)

    def b_matrix(self) -> np.ndarray:
        lam, z, t = self.lam, self.zvec, self.t
        return np.array([
            [lam, -lam * z.conjugate(), -lam * abs(z) ** 2 / 2 + 1j * t],
            [0.0, 1.0, z],
            [0.0, 0.0, 1.0 / lam],
        ], dtype=complex)

    def k_matrix(self) -> np.ndarray:
        # eta restores det(U) = xi^-1 from the special-unitary block
        eta = _principal_sqrt(1.0 / self.xi)
        u_block = eta * self.k_su
        block = np.zeros((3, 3), dtype=complex)
        block[:2, :2] = u_block
        block[2, 2] = self.xi
        return _FRAME @ block @ _FRAME.T

    def matrix(self) -> np.ndarray:
        return self.b_matrix() @ self.k_matrix()


def _principal_sqrt(w: complex) -> complex:
    return cmath.exp(0.5j * cmath.phase(w)) * math.sqrt(abs(w))


def unitarity_residual(g: np.ndarray) -> float:
    return float(np.max(np.abs(g.conj().T @ _H_STD @ g - _H_STD)))


def standard_form_conjugator(form: HermitianForm) -> np.ndarray:
    """Numeric C with C* h_std C = h, so g -> C g C^-1 carries h-unitary
    matrices to standard-form unitaries."""
    if form.is_standard:
        return np.eye(3, dtype=complex)
    eigvals, vecs = np.linalg.eigh(form.numeric)
    # eigenvalues ascend, so the signature check pins the signs: one
    # negative direction, two positive
    a = np.vstack([
        math.sqrt(eigvals[1]) * vecs[:, 1].conj(),
        math.sqrt(eigvals[2]) * vecs[:, 2].conj(),
        math.sqrt(-eigvals[0]) * vecs[:, 0].conj(),
    ])
    # a* diag(1,1,-1) a = h; q is its own inverse and turns diag(1,1,-1)
    # into the antidiagonal form, q* diag(1,1,-1) q = h_std
    s = 1.0 / math.sqrt(2.0)
    q = np.array([[s, 0, s], [0, 1, 0], [s, 0, -s]], dtype=complex)
    return q @ a


def standard_form_numerics(form: HermitianForm, numeric: Sequence[np.ndarray]
                           ) -> List[np.ndarray]:
    """Numeric matrices unitary for `form`, conjugated to the standard form."""
    conj = standard_form_conjugator(form)
    conj_inv = np.linalg.inv(conj)
    return [conj @ m @ conj_inv for m in numeric]


def iwasawa(g: np.ndarray, tol: float = UNITARY_TOL) -> IwasawaCoords:
    """Iwasawa coordinates of a numeric SU(2,1) matrix (standard form)."""
    mat = np.asarray(g, dtype=complex)
    residual = unitarity_residual(mat)
    if residual > tol:
        raise ValueError(f"matrix is not h-unitary: residual {residual:.3e}")
    det = np.linalg.det(mat)
    if abs(det - 1.0) > 1e-6:
        raise ValueError(f"matrix is not special: det {det}")
    w = mat @ Z0
    lam = 1.0 / abs(w[2])
    xi = w[2] * lam
    zvec = w[1] / xi
    t = (w[0] / xi).imag
    coords_b = IwasawaCoords(lam, zvec, t, np.eye(2), 1.0)
    k = np.linalg.inv(coords_b.b_matrix()) @ mat
    # unitary block on the z0-perpendicular plane, read off via the form
    plane = _FRAME[:, :2]
    u_block = plane.conj().T @ _H_STD @ k @ plane
    eta = _principal_sqrt(1.0 / xi)
    k_su = u_block / eta
    return IwasawaCoords(lam, zvec, t, k_su, xi)


def homog_project(g: np.ndarray, tol: float = NONVANISHING_TOL) -> complex:
    """Last coordinate of g*z0; equals lambda^-1 * xi, never zero on SU(2,1)."""
    value = complex((np.asarray(g, dtype=complex) @ Z0)[2])
    if abs(value) < tol:
        raise ValueError(f"projection modulus {abs(value):.3e} below {tol}; "
                         "input is not close to SU(2,1)")
    return value


class GeneratorLog:
    """Anti-hermitian logarithm of an elliptic generator with its spectral
    data cached for fast path evaluation."""

    __slots__ = ("v", "thetas", "vecs", "vecs_inv")

    def __init__(self, thetas: np.ndarray, vecs: np.ndarray,
                 vecs_inv: np.ndarray):
        self.thetas = np.asarray(thetas, dtype=float)
        self.vecs = np.asarray(vecs, dtype=complex)
        self.vecs_inv = np.asarray(vecs_inv, dtype=complex)
        self.v = (self.vecs * (1j * self.thetas)) @ self.vecs_inv

    def exp_at(self, t: float, sign: int = 1) -> np.ndarray:
        phases = np.exp(1j * sign * self.thetas * t)
        return (self.vecs * phases) @ self.vecs_inv

    def matrix(self) -> np.ndarray:
        return self.exp_at(1.0)


def central_log(j: int = 1) -> GeneratorLog:
    """Log of the central element zeta_3^j * Id, j in {0, 1, 2}; j = 1 is
    the distinguished lift z."""
    eye = np.eye(3, dtype=complex)
    thetas = (np.zeros(3), CENTRAL_THETA, -CENTRAL_THETA)[j]
    return GeneratorLog(thetas.copy(), eye, eye.copy())


def generator_logs(numeric: Sequence[np.ndarray]) -> List[GeneratorLog]:
    """Logs of standard-form generator matrices in order, followed by the
    central log, which serves the letter z."""
    logs = [elliptic_log(mat) for mat in numeric]
    logs.append(central_log())
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


def elliptic_log(g: np.ndarray) -> GeneratorLog:
    """Traceless anti-hermitian log of an elliptic or central SU(2,1) matrix,
    eigenvalue arguments branch (-pi, pi] before the traceless adjustment."""
    mat = np.asarray(g, dtype=complex)
    off = mat - np.eye(3) * mat[0, 0]
    if np.max(np.abs(off)) < 1e-12:
        value = mat[0, 0]
        for j in range(3):
            if abs(value - ZETA3 ** j) < 1e-9:
                return central_log(j)
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
    log = GeneratorLog(thetas, vecs, vecs_inv)
    residual = float(np.max(np.abs(log.matrix() - mat)))
    if residual > EXP_TOL:
        raise ValueError(f"log reconstruction residual {residual:.3e} "
                         f"exceeds {EXP_TOL}")
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

    __slots__ = ("s", "values")

    def __init__(self, s: np.ndarray, values: np.ndarray):
        self.s = s
        self.values = values
        moduli = np.abs(values)
        if float(moduli.min()) <= MODULUS_FLOOR:
            raise ValueError(f"projection modulus {moduli.min():.3e} at "
                             f"s={s[int(moduli.argmin())]:.6f} breaks the "
                             "nonvanishing guarantee")

    @property
    def endpoint(self) -> complex:
        return complex(self.values[-1])

    @property
    def is_closed(self) -> bool:
        return abs(self.values[-1] - self.values[0]) < CLOSURE_TOL

    def total_argument(self) -> float:
        return float(np.angle(self.values[1:] / self.values[:-1]).sum())


def relator_path(word: Word, logs: Sequence[GeneratorLog],
                 samples_per_letter: int = DEFAULT_SAMPLES_PER_LETTER
                 ) -> RelatorPath:
    """Sample the projected path of a word, refining each segment until
    consecutive samples turn by less than pi/2, up to REFINE_BUDGET samples.

    Each letter's end matrix, and its sample times and phases per sample
    count, are built once per call."""
    nominal = len(word) * samples_per_letter
    if nominal > MAX_PATH_SAMPLES:
        raise ValueError(f"path needs {nominal} samples ({len(word)} letters "
                         f"x {samples_per_letter}), over the limit of "
                         f"{MAX_PATH_SAMPLES}")
    letters = list(reversed(word.letters()))  # rightmost letter acts first
    s_parts = [np.array([0.0])]
    value_parts = [np.array([1.0 + 0.0j])]
    nletters = max(len(letters), 1)
    accumulated = np.eye(3, dtype=complex)
    ends = {key: logs[key[0]].exp_at(1.0, key[1]) for key in set(letters)}
    tables = {}  # (gen, sign, n) -> (times, phases)

    for seg, (gen, sign) in enumerate(letters):
        log = logs[gen]
        # exp(sign*v*t) @ start = sum_j V[:,j] (V^-1 start)_j e^(i sign th_j t),
        # and only the last row of V matters for the projection
        coeffs = log.vecs[2, :] * (log.vecs_inv @ (accumulated @ Z0))
        prev_value = value_parts[-1][-1]
        n = samples_per_letter
        while True:
            if (gen, sign, n) not in tables:
                times = np.arange(1, n + 1) / n
                tables[gen, sign, n] = times, np.exp(
                    1j * sign * np.outer(times, log.thetas))
            times, phases = tables[gen, sign, n]
            values = phases @ coeffs
            all_vals = np.concatenate(([prev_value], values))
            steps = np.abs(np.angle(all_vals[1:] / all_vals[:-1]))
            if float(steps.max()) < ARG_STEP_LIMIT:
                break
            if n >= REFINE_BUDGET:
                raise ValueError(f"segment {seg} still turns too fast at "
                                 f"{n} samples (budget {REFINE_BUDGET})")
            n *= 2
        s_parts.append((seg + times) / nletters)
        value_parts.append(values)
        accumulated = ends[gen, sign] @ accumulated

    if not letters:
        s_parts.append(np.array([1.0]))
        value_parts.append(np.array([1.0 + 0.0j]))

    return RelatorPath(np.concatenate(s_parts), np.concatenate(value_parts))


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

    __slots__ = ("base", "exponents")
    z_name = Z_NAME

    def __init__(self, base: Presentation, exponents: Sequence[int]):
        if len(exponents) != len(base.relators):
            raise ValueError("need one central exponent per base relator")
        if Z_NAME in base.gens:
            raise ValueError(f"central generator name {Z_NAME!r} collides")
        self.base = base
        self.exponents = list(int(k) for k in exponents)

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
        return Presentation(self.base.gens + [Z_NAME], relators)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LiftedPresentation):
            return NotImplemented
        return (self.base == other.base
                and self.exponents == other.exponents)

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
        if residual > UNITARY_TOL:
            raise ValueError(f"generator {name} is not numerically in "
                             f"SU(2,1): residual {residual:.3e}")
    logs = generator_logs(numeric)

    exponents = []
    for rel, j in zip(pres.relators, powers):
        if j is None:
            raise ValueError("relator does not evaluate to a central element")
        path = relator_path(rel, logs, samples_per_letter)
        if abs(path.endpoint - ZETA3 ** j) > CLOSURE_TOL:
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
    return LiftedPresentation(base, chosen)
