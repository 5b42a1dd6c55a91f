"""End-to-end checks of the bundled index-72 subgroup fixture."""

import pytest

from latcover.fpgroups import Word, todd_coxeter
from latcover.intlinalg import hnf, saturation_order
from latcover.nq2 import ClassTwoElement, rf_certificate, subgroup_class2
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
def base_quotient(preset, base_table):
    return subgroup_class2(base_table, preset.presentation)


@pytest.fixture(scope="module")
def lifted(preset):
    return preset.lift()


@pytest.fixture(scope="module")
def lifted_quotient(lifted, words):
    table = todd_coxeter(lifted.base, words, max_cosets=200000)
    return table.index, subgroup_class2(table, lifted.base,
                                        central=lifted.exponents)


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


def test_base_subgroup_quotient_ranks(base_quotient):
    q = base_quotient
    assert q.abelianization.free_rank == 4
    assert q.derived_part.free_rank == 3
    # measured: the quotients carry no torsion at all
    assert q.abelianization.describe() == "Z^4"
    assert q.derived_part.describe() == "Z^3"


def test_preimage_index_matches(lifted_quotient, base_table):
    index, _ = lifted_quotient
    assert index == base_table.index == 72


def test_lifted_subgroup_quotient_ranks(lifted_quotient):
    _, q = lifted_quotient
    z_word = Word.gen(q.n - 1)
    assert q.abelianization.free_rank == 4
    assert q.derived_part.free_rank == 4
    image = q.image(z_word)
    assert image.order is None
    # z dies in the abelianization but survives in the derived part
    assert q.abelian_order(image.a) is not None


def test_z_cubed_residue_divisibility(lifted_quotient):
    # the stretch check's divisibility test at index 72: z^3's central
    # residue is 3 times a primitive element modulo the relation lattice
    _, q = lifted_quotient
    z = ClassTwoElement.from_word(q.n, Word.gen(q.n - 1))
    cubed = q._central_residue(z ** 3)
    assert cubed is not None
    width = len(cubed)
    relations = [list(row) for row in q.center_basis]

    def divisible(d):
        lattice = [[d if i == j else 0 for j in range(width)]
                   for i in range(width)] + relations
        return saturation_order(cubed, hnf(lattice)) == 1

    assert [d for d in range(1, 41) if divisible(d)] == [1, 3]


def test_epsilon_is_one(base_quotient, lifted_quotient):
    # lifting to the universal cover grows the derived part's free rank by 1
    _, q = lifted_quotient
    assert (q.derived_part.free_rank
            - base_quotient.derived_part.free_rank) == 1


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
