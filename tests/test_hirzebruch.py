"""End-to-end checks of the bundled index-72 subgroup fixture."""

import pytest

from latcover.fpgroups import (Word, schreier_system, tietze_reduce,
                               todd_coxeter)
from latcover.nq2 import (class2_quotient, epsilon, preimage_presentation,
                          rf_certificate)
from latcover.presets import dm_lattice


@pytest.fixture(scope="module")
def preset():
    return dm_lattice("dm-5-4-1-1-1-6")


@pytest.fixture(scope="module")
def words(preset):
    return preset.subgroup_words("hirzebruch")


@pytest.fixture(scope="module")
def base_table(preset, words):
    return todd_coxeter(preset.presentation, words, max_cosets=200000)


@pytest.fixture(scope="module")
def base_reduced(preset, base_table):
    sub = schreier_system(base_table, preset.presentation).presentation
    return tietze_reduce(sub, budget=200000)


@pytest.fixture(scope="module")
def lifted(preset):
    return preset.lift()


@pytest.fixture(scope="module")
def lifted_reduced(lifted, words):
    return preimage_presentation(lifted, words, max_cosets=200000)


def test_fixture_is_listed(preset):
    assert "hirzebruch" in preset.subgroup_names()


def test_fixture_has_four_words(words):
    assert len(words) == 4
    assert all(not w.is_identity for w in words)


def test_index_72(base_table):
    assert base_table.index == 72


def test_normality(base_table, preset, words):
    assert base_table.validates(preset.presentation, words)
    assert base_table.fixes_all_cosets(words)
    conjugates = []
    for g in range(3):
        t = Word.gen(g)
        conjugates.extend(t * w * t.inv() for w in words)
    assert base_table.fixes_all_cosets(conjugates)


def test_base_subgroup_quotient_ranks(base_reduced):
    q = class2_quotient(base_reduced)
    assert q.abelianization.free_rank == 4
    assert q.derived_part.free_rank == 3
    # measured: the quotients carry no torsion at all
    assert q.abelianization.describe() == "Z^4"
    assert q.derived_part.describe() == "Z^3"


def test_preimage_index_matches(lifted_reduced, base_table):
    index, _ = lifted_reduced
    assert index == base_table.index == 72


def test_lifted_subgroup_quotient_ranks(lifted_reduced):
    _, reduced = lifted_reduced
    z_word = Word.gen(reduced.ngens - 1)
    q = class2_quotient(reduced)
    assert q.abelianization.free_rank == 4
    assert q.derived_part.free_rank == 4
    image = q.image(z_word)
    assert image.order is None
    # z dies in the abelianization but survives in the derived part
    assert q.abelian_order(image.a) is not None


def test_epsilon_is_one(base_reduced, lifted_reduced):
    _, reduced = lifted_reduced
    assert epsilon(base_reduced, reduced) == 1


def test_certificate_succeeds(lifted, words):
    cert = rf_certificate(lifted, words)
    assert cert.verdict == "INFINITE_ORDER"
    assert cert.success
    assert cert.index == 72
    assert cert.z_location == "derived part"
    assert cert.abelianization.free_rank == 4
    assert cert.derived_part.free_rank == 4
    report = cert.report()
    assert "z order: infinite (in the derived part)" in report
    assert "verdict: INFINITE_ORDER" in report


def test_certificate_is_deterministic(lifted, words):
    first = rf_certificate(lifted, words)
    second = rf_certificate(lifted, words)
    assert first.report() == second.report()
