"""End-to-end acceptance checks for the shipped guarantees, one test per
check so `pytest -v tests/test_acceptance.py` prints one pass/fail line
each. Run with -s to also see the measured numbers."""

import cmath
import math
import os
import time

import pytest

from latcover.fpgroups import Word, todd_coxeter
from latcover.intlinalg import hnf, saturation_order
from latcover.nq2 import rf_certificate, subgroup_class2
from latcover.pathlift import (central_log, elliptic_log, relator_path,
                               winding_number)
from latcover.presets import dm_lattice, verify_preset

PRESET1 = "dm-5-4-1-1-1-6"
PRESET2 = "dm-11-7-2-2-2-12"


def _relator_texts(pres):
    from latcover.fpgroups import format_word
    return [format_word(rel, pres.gens) for rel in pres.relators]


def _lift_and_check(preset_id, expected_torsion_relator):
    start = time.monotonic()
    preset = dm_lattice(preset_id)
    lifted = preset.lift()
    elapsed = time.monotonic() - start
    texts = _relator_texts(preset.presentation)
    assert texts == [
        "b^3", "u^3", expected_torsion_relator,
        "b*v*b^-1*v^-1",
        "b*u*b*u^-1*b^-1*u^-1",
        "u*v*u*v*u^-1*v^-1*u^-1*v^-1",
        "b*u*v*b*u*v*b*u*v",
    ]
    assert lifted.exponents == [1, 1, 1, 0, 0, 0, 3]
    assert lifted.z_name == "z"
    assert elapsed < 120.0
    return elapsed


def test_acceptance_01_lift_of_the_sixth_root_preset():
    elapsed = _lift_and_check(PRESET1, "v^6")
    print(f"PASS 01: {PRESET1} lifts to relator exponents [1,1,1,0,0,0,3] "
          f"(b^3*z, u^3*z, v^6*z, braids, (b*u*v)^3*z^3) in {elapsed:.1f}s")


def test_acceptance_02_lift_of_the_twelfth_root_preset():
    elapsed = _lift_and_check(PRESET2, "v^4")
    print(f"PASS 02: {PRESET2} lifts to relator exponents [1,1,1,0,0,0,3] "
          f"(v^4*z variant) in {elapsed:.1f}s")


def test_acceptance_03_exact_relator_values():
    for preset_id in (PRESET1, PRESET2):
        preset = dm_lattice(preset_id)
        powers = [j for _, j in verify_preset(preset)]
        # torsion relators hit the central element squared, braid relators
        # and the (b*u*v)^3 word land exactly on the identity
        assert powers == [2, 2, 2, 0, 0, 0, 0]
    print("PASS 03: b^3 = u^3 = v^6 = z^2 (first preset, v^4 in the second), "
          "braid words and (b*u*v)^3 exactly the identity, in exact "
          "cyclotomic arithmetic (zero tolerance)")


def test_acceptance_04_winding_figures():
    preset = dm_lattice(PRESET1)
    numeric = [preset.matrices[g].numeric for g in preset.presentation.gens]
    logs = [elliptic_log(m, index=i) for i, m in enumerate(numeric)]
    logs.append(central_log(index=3))
    b = Word.gen(0)

    open_path = relator_path(b ** 3, logs)
    target = cmath.exp(4j * math.pi / 3)
    gap = abs(open_path.endpoint - target)
    assert gap < 1e-6

    windings = [winding_number(relator_path(b ** 9, logs,
                                            samples_per_letter=n))
                for n in (256, 512, 1024)]
    assert windings == [-1, -1, -1]
    print(f"PASS 04: b^3 path ends {gap:.2e} from exp(4*pi*i/3); b^9 loop "
          "winds -1 at 256, 512 and 1024 samples per letter")


def test_acceptance_05_index_72_certificate():
    start = time.monotonic()
    preset = dm_lattice(PRESET1)
    pres = preset.presentation
    words = preset.subgroup_words("hirzebruch")

    table = todd_coxeter(pres, words, max_cosets=200000)
    assert table.index == 72
    assert table.validates(pres, words)
    assert table.fixes_all_cosets(words)
    conjugates = [Word.gen(t, e) * w * Word.gen(t, -e)
                  for w in words for t in range(pres.ngens) for e in (1, -1)]
    assert table.fixes_all_cosets(conjugates)

    base_q = subgroup_class2(table, pres)
    assert base_q.abelianization.free_rank == 4
    assert base_q.derived_part.free_rank == 3

    lifted = preset.lift()
    cert = rf_certificate(lifted, words, max_cosets=200000)
    assert cert.index == 72
    assert cert.abelianization.free_rank == 4
    assert cert.derived_part.free_rank == 4
    assert cert.z_image.order is None
    assert cert.z_location == "derived part"
    assert cert.verdict == "INFINITE_ORDER"

    lifted_q = subgroup_class2(table, pres,
                               central=lifted.exponents * table.index)
    epsilon = (lifted_q.derived_part.free_rank
               - base_q.derived_part.free_rank)
    assert epsilon == 1

    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print(f"PASS 05: index-72 normal subgroup; quotient invariants "
          f"{base_q.abelianization.describe()} over "
          f"{base_q.derived_part.describe()} (base), "
          f"{cert.abelianization.describe()} over "
          f"{cert.derived_part.describe()} (lifted); z of infinite order in "
          f"the derived part; epsilon = 1; {elapsed:.1f}s "
          f"(torsion reported informationally: none appeared)")


@pytest.mark.stretch
def test_acceptance_06_stretch_surface_numbers():
    """Opt-in, expected-expensive: the second preset's known index-54432
    subgroup. Not run by default and excluded from CI; set LATCOVER_STRETCH=1
    and bundle an index54432 subgroup fixture to enable."""
    if not os.environ.get("LATCOVER_STRETCH"):
        pytest.skip("stretch check not requested (set LATCOVER_STRETCH=1)")
    preset = dm_lattice(PRESET2)
    try:
        words = preset.subgroup_words("index54432")
    except FileNotFoundError:
        pytest.skip("no index54432 subgroup fixture bundled")

    pres = preset.presentation
    table = todd_coxeter(pres, words, max_cosets=10 ** 7)
    assert table.index == 54432
    base_q = subgroup_class2(table, pres)
    assert base_q.abelianization.describe() == "Z^14"
    assert base_q.derived_part.describe() == "Z^29"

    lifted = preset.lift()
    q = subgroup_class2(table, pres, central=lifted.exponents * table.index)
    z_word = Word.gen(q.n - 1)
    assert q.abelianization.describe() == "Z^14"
    assert q.derived_part.describe() == "Z/4 x Z^28"
    z_image = q.image(z_word)
    assert z_image.order is None

    # z^3 lands on 4 times a primitive derived-part element: its central
    # residue is divisible by 4, not by 8, modulo the relation lattice
    from latcover.nq2 import ClassTwoElement
    cubed = q._central_residue(ClassTwoElement.from_word(q.n, z_word) ** 3)
    assert cubed is not None
    width = len(cubed)
    relations = [list(row) for row in q.center_basis]

    def divisible(d):
        lattice = [[d if i == j else 0 for j in range(width)]
                   for i in range(width)] + relations
        return saturation_order(cubed, hnf(lattice)) == 1

    assert divisible(4)
    assert not divisible(8)


def test_acceptance_07_property_suites(property_suites):
    # tests/conftest.py runs this check last and records every suite's
    # outcome in this session; run alone, it sees no suites and fails
    names = sorted(property_suites)
    assert len(names) == 11, f"expected 11 property suites, ran {names}"
    unpassed = {k: v[0] for k, v in property_suites.items()
                if v[0] != "passed"}
    assert not unpassed, f"property suites not passed: {unpassed}"
    small = {k: v[1] for k, v in property_suites.items() if v[1] < 1000}
    assert not small, f"property suites under 1000 cases: {small}"
    print(f"PASS 07: {len(names)} randomized invariant suites green at "
          ">= 1000 cases each (field axioms, embedding, SNF/HNF, coset tracing, "
          "subgroup ranks, Tietze invariance, collection law, brute-force "
          "comparison, winding, Iwasawa)")
