import cmath
import math
import random

import numpy as np
import pytest

from helpers_latcover import picard_lattice, picard_presentation, picard_scaled
from latcover.exactnum import zeta
from latcover.fpgroups import Presentation, Word, braid_relator
from latcover.pathlift import (
    CENTRAL_THETA,
    GeneratorLog,
    LiftedPresentation,
    RelatorPath,
    TWO_PI,
    central_log,
    elliptic_log,
    normalize_lift,
    relator_path,
    winding_number,
)
from latcover.presets import Lattice
from latcover.su21 import GroupMatrix, HermitianForm, IwasawaCoords

H = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
ZETA3 = cmath.exp(2j * math.pi / 3)


def _deg(values):
    return sorted(round(math.degrees(t)) for t in values)


def _anti_hermitian_residual(v):
    return float(np.max(np.abs(v.conj().T @ H + H @ v)))


# ---------------------------------------------------------------- logarithms


def test_log_identity():
    log = elliptic_log(np.eye(3))
    assert np.max(np.abs(log.v)) < 1e-12
    assert np.allclose(log.matrix(), np.eye(3))


def test_log_central_scalars():
    log = elliptic_log(ZETA3 * np.eye(3))
    assert np.allclose(log.thetas, CENTRAL_THETA)
    assert np.max(np.abs(log.matrix() - ZETA3 * np.eye(3))) < 1e-12
    assert abs(np.trace(log.v)) < 1e-12
    assert _anti_hermitian_residual(log.v) < 1e-12
    inv = elliptic_log(ZETA3 ** 2 * np.eye(3))
    assert np.allclose(inv.thetas, -CENTRAL_THETA)


def test_log_scaled_generators():
    _, b, u, v = picard_scaled()
    for mat, degrees in ((b, [-40, -40, 80]), (u, [-40, -40, 80]),
                         (v, [-200, 100, 100])):
        log = elliptic_log(mat.numeric)
        assert np.max(np.abs(log.matrix() - mat.numeric)) < 1e-10
        assert abs(np.trace(log.v)) < 1e-9
        assert _anti_hermitian_residual(log.v) < 1e-8
        assert _deg(log.thetas) == degrees


def test_log_branch_split_on_repeated_extreme():
    g = np.diag([-1.0, 1.0, -1.0]).astype(complex)
    log = elliptic_log(g)
    assert np.max(np.abs(log.matrix() - g)) < 1e-10
    assert abs(np.trace(log.v)) < 1e-10
    assert _anti_hermitian_residual(log.v) < 1e-8
    assert _deg(log.thetas) == [-180, 0, 180]


def test_log_rejects_hyperbolic():
    with pytest.raises(ValueError, match="unit modulus"):
        elliptic_log(np.diag([2.0, 1.0, 0.5]))


def test_log_rejects_parabolic():
    unipotent = IwasawaCoords(1.0, 1.0, 0.0, np.eye(2), 1.0).b_matrix()
    with pytest.raises(ValueError, match="diagonalizable"):
        elliptic_log(unipotent)


def test_central_log_turns_one_third():
    path = relator_path(Word.gen(0), [central_log(0)])
    assert abs(path.endpoint - ZETA3) < 1e-12
    assert abs(path.total_argument() / TWO_PI - 1 / 3) < 1e-9


# ---------------------------------------------------------------- paths


def _picard_logs():
    _, b, u, v = picard_scaled()
    logs = [elliptic_log(g.numeric, index=i) for i, g in enumerate((b, u, v))]
    logs.append(central_log(index=3))
    return logs


def test_empty_word_path():
    path = relator_path(Word(), _picard_logs())
    assert np.allclose(path.values, 1.0)
    assert winding_number(path) == 0


def test_b_cubed_endpoint():
    logs = _picard_logs()
    path = relator_path(Word.gen(0) ** 3, logs)
    assert abs(path.endpoint - cmath.exp(4j * math.pi / 3)) < 1e-6
    turns = path.total_argument() / TWO_PI
    assert abs(turns - (-1 / 3)) < 0.02
    with pytest.raises(ValueError, match="not closed"):
        winding_number(path)


def test_b_ninth_full_clockwise():
    logs = _picard_logs()
    for spl in (64, 128, 256, 512):
        path = relator_path(Word.gen(0) ** 9, logs, samples_per_letter=spl)
        assert path.is_closed
        assert winding_number(path) == -1


def test_v_powers():
    logs = _picard_logs()
    path6 = relator_path(Word.gen(2) ** 6, logs)
    assert abs(path6.endpoint - ZETA3 ** 2) < 1e-9
    path18 = relator_path(Word.gen(2) ** 18, logs)
    assert winding_number(path18) == 5


def test_winding_additivity():
    logs = _picard_logs()
    b9 = Word.gen(0) ** 9
    v18 = Word.gen(2) ** 18
    w_b = winding_number(relator_path(b9, logs))
    w_v = winding_number(relator_path(v18, logs))
    assert w_b + w_v == 4
    assert winding_number(relator_path(b9 * v18, logs)) == 4
    assert winding_number(relator_path(v18 * b9, logs)) == 4


def test_path_sample_structure():
    logs = _picard_logs()
    path = relator_path(Word.gen(0) ** 3, logs, samples_per_letter=64)
    assert path.values[0] == 1.0
    assert np.min(np.abs(path.values)) > 1e-6
    assert len(path.letters) == 3
    assert path.s[0] == 0.0 and path.s[-1] == 1.0
    assert set(path.segments.tolist()) == {0, 1, 2}
    steps = np.abs(np.angle(path.values[1:] / path.values[:-1]))
    assert float(steps.max()) < math.pi / 2


def test_refinement_kicks_in():
    logs = _picard_logs()
    # one sample per letter would step 100 degrees along the v path; the
    # sampler must refine until every step is under 90 degrees
    path = relator_path(Word.gen(2) ** 6, logs, samples_per_letter=1)
    assert len(path.values) >= 13
    assert path.total_argument() / TWO_PI == pytest.approx(5 / 3, abs=1e-6)


def test_refinement_budget_error():
    eye = np.eye(3, dtype=complex)
    wild = GeneratorLog(0, np.array([4.0, -8.0, 4.0]), eye, eye.copy())
    with pytest.raises(ValueError, match="budget"):
        relator_path(Word.gen(0), [wild], samples_per_letter=1, budget=2)


def test_conjugation_invariance():
    _, b, u, v = picard_scaled()
    beta = 0.62
    k_su = np.array([[math.cos(beta) * cmath.exp(0.3j),
                      math.sin(beta) * cmath.exp(-0.8j)],
                     [-math.sin(beta) * cmath.exp(0.8j),
                      math.cos(beta) * cmath.exp(-0.3j)]])
    g0 = IwasawaCoords(1.3, 0.2 - 0.1j, 0.7, k_su, cmath.exp(0.4j)).matrix()
    g0_inv = np.linalg.inv(g0)
    mats = [g.numeric for g in (b, u, v)]
    conj = [g0 @ m @ g0_inv for m in mats]
    words = [Word.gen(0) ** 9, Word.gen(2) ** 18, braid_relator(0, 2, 2),
             braid_relator(0, 1, 3), braid_relator(1, 2, 4)]
    for word in words:
        logs_a = [elliptic_log(m, index=i) for i, m in enumerate(mats)]
        logs_b = [elliptic_log(m, index=i) for i, m in enumerate(conj)]
        assert (winding_number(relator_path(word, logs_a))
                == winding_number(relator_path(word, logs_b)))


RANDOM_WORDS = 1000


@pytest.mark.property_suite(cases=RANDOM_WORDS)
def test_winding_additivity_and_conjugation_on_random_words():
    logs = _picard_logs()
    b, u, v = Word.gen(0), Word.gen(1), Word.gen(2)
    # closed loops with known windings: torsion powers that project to the
    # identity, the braid relators, and the central letter's full turn
    blocks = [
        (b ** 9, -1),
        (u ** 9, -1),
        (v ** 18, 5),
        (braid_relator(0, 2, 2), 0),
        (braid_relator(0, 1, 3), 0),
        (braid_relator(1, 2, 4), 0),
        ((b * u * v) ** 3, 0),
        (Word.gen(3) ** 3, 1),
    ]
    rng = random.Random(20260817)
    for _ in range(RANDOM_WORDS):
        word, expected = Word(), 0
        for _ in range(rng.randint(1, 3)):
            part, turns = blocks[rng.randrange(len(blocks))]
            if rng.random() < 0.3:
                part, turns = part.inv(), -turns
            word = word * part
            expected += turns
        assert winding_number(relator_path(word, logs, 64)) == expected
        conj = Word([(rng.randrange(3), rng.choice([-2, -1, 1, 2]))
                     for _ in range(rng.randint(0, 2))])
        moved = conj * word * conj.inv()
        assert winding_number(relator_path(moved, logs, 64)) == expected


# ---------------------------------------------------------------- lifting


def test_lift_toy_central_generator():
    form = HermitianForm.standard()
    pres = Presentation(["a"], [Word.gen(0) ** 3])
    lattice = Lattice(pres, form, {"a": GroupMatrix.scalar(zeta(3), form)})
    lifted = lattice.lift(normalized=False)
    assert lifted.exponents == [-3]
    normalized = normalize_lift(lifted)
    assert normalized.exponents == [0]


def test_lift_picard_presentation():
    pres = picard_presentation(6)
    lifted = picard_lattice(pres).lift(normalized=False)
    # hand-integrated anchors: the b-cube loop closes after two central
    # corrections with one clockwise turn; the v-sixth loop with one
    # counterclockwise turn
    assert lifted.exponents[0] == 1
    assert lifted.exponents[2] == -5
    normalized = normalize_lift(lifted)
    assert normalized.exponents == [1, 1, 1, 0, 0, 0, 3]


def test_lift_samples_each_relator_once(monkeypatch):
    import latcover.pathlift as pathlift
    sampled = []
    original = pathlift.relator_path

    def counting(word, *args, **kwargs):
        sampled.append(word)
        return original(word, *args, **kwargs)

    monkeypatch.setattr(pathlift, "relator_path", counting)
    pres = picard_presentation(6)
    assert picard_lattice(pres).lift().exponents == [1, 1, 1, 0, 0, 0, 3]
    assert sampled == pres.relators


def test_lift_rejects_noncentral_relator():
    bad = Presentation(["b", "u", "v"], [Word.gen(0)])
    with pytest.raises(ValueError, match="central"):
        picard_lattice(bad).lift()


def test_lifted_presentation_to_presentation():
    base = picard_presentation(6)
    lifted = LiftedPresentation(base, [1, 1, 1, 0, 0, 0, 3])
    pres = lifted.to_presentation()
    assert pres.gens == ["b", "u", "v", "z"]
    assert len(pres.relators) == 7 + 3
    assert pres.relators[0] == Word.gen(0) ** 3 * Word.gen(3)
    assert pres.relators[3] == braid_relator(0, 2, 2)
    z = Word.gen(3)
    b = Word.gen(0)
    assert pres.relators[7] == b * z * b.inv() * z.inv()


def test_lifted_presentation_validation():
    base = picard_presentation(6)
    with pytest.raises(ValueError, match="one central exponent"):
        LiftedPresentation(base, [1, 2])
    with pytest.raises(ValueError, match="collides"):
        LiftedPresentation(Presentation(["z"], [Word.gen(0)]), [0])


# ---------------------------------------------------------------- normal form


def _canonical_form():
    return LiftedPresentation(picard_presentation(6), [1, 1, 1, 0, 0, 0, 3])


def test_normalize_fixpoint():
    lp = _canonical_form()
    assert normalize_lift(lp) == lp


def test_normalize_undoes_generator_shift():
    # replacing b by b*z shifts the b-cube exponent by 3, the odd braid in
    # (b,u) by 1, and the (buv)^3 relator by 3
    shifted = LiftedPresentation(picard_presentation(6),
                                 [4, 1, 1, 0, 1, 0, 6])
    assert normalize_lift(shifted) == _canonical_form()


def test_normalize_undoes_z_inversion():
    flipped = LiftedPresentation(picard_presentation(6),
                                 [-1, -1, -1, 0, 0, 0, -3])
    assert normalize_lift(flipped) == _canonical_form()


def test_normalize_tie_prefers_nonnegative():
    base = Presentation(["a"], [Word.gen(0) ** 4])
    assert normalize_lift(LiftedPresentation(base, [2])).exponents == [2]
    assert normalize_lift(LiftedPresentation(base, [-2])).exponents == [2]
    assert normalize_lift(LiftedPresentation(base, [6])).exponents == [2]


def test_normalize_idempotent():
    lp = LiftedPresentation(picard_presentation(6), [7, -2, 10, 1, 2, -1, 9])
    once = normalize_lift(lp)
    assert normalize_lift(once) == once
