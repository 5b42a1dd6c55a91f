import shutil
import unittest.mock
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from latcover.cli import main
from latcover.exactnum import CycloElt
from latcover.fpgroups import Word, braid_relator
from latcover.presets import (EXPECTED_POWERS, WordProducts, central_power,
                              dm_lattice, preset_ids, verify_preset)
from latcover.pathlift import unitarity_residual
from latcover.su21 import GroupMatrix, check_unitary

from helpers_latcover import reference_central_power

_BUNDLED = Path(__file__).resolve().parents[1] / "src" / "latcover" / "presets"


@pytest.fixture(scope="module")
def first():
    return dm_lattice("dm-5-4-1-1-1-6")


@pytest.fixture(scope="module")
def second():
    return dm_lattice("dm-11-7-2-2-2-12")


def test_preset_ids():
    assert preset_ids() == ["dm-11-7-2-2-2-12", "dm-5-4-1-1-1-6"]


def test_preset_directories_hold_only_what_the_loader_reads():
    assert sorted(p.name for p in _BUNDLED.iterdir()) == preset_ids()
    for name in preset_ids():
        entries = {p.name for p in (_BUNDLED / name).iterdir()}
        assert entries - {"subgroups"} == {"presentation.txt", "matrices.txt"}
        assert "subgroups" not in entries or (
            _BUNDLED / name / "subgroups").is_dir()


def test_weight_labels_are_aliases(first):
    by_label = dm_lattice("(5,4,1,1,1)/6")
    assert by_label.name == first.name == "dm-5-4-1-1-1-6"
    assert by_label.label == "(5,4,1,1,1)/6"
    assert dm_lattice("(11,7,2,2,2)/12").name == "dm-11-7-2-2-2-12"


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown preset"):
        dm_lattice("dm-3-3-3-3-3-9")


def test_first_preset_shape(first):
    assert first.presentation.gens == ["b", "u", "v"]
    assert first.presentation.relators[0].syllables == ((0, 3),)
    assert first.presentation.relators[2].syllables == ((2, 6),)
    assert first.form.is_standard
    assert first.standard_numerics is None
    one = CycloElt.one()
    for name in ("b", "u", "v"):
        g = first.matrices[name]
        assert g.det() == one
        assert check_unitary(g)


def test_second_preset_shape(second):
    assert second.presentation.gens == ["b", "u", "v"]
    assert second.presentation.relators[0].syllables == ((0, 3),)
    assert second.presentation.relators[2].syllables == ((2, 4),)
    assert not second.form.is_standard
    one = CycloElt.one()
    for name in ("b", "u", "v"):
        g = second.matrices[name]
        assert g.det() == one
        assert check_unitary(g)


def test_second_preset_standard_numerics(second):
    numerics = second.numerics()
    assert len(numerics) == 3
    for mat, name in zip(numerics, ("b", "u", "v")):
        assert unitarity_residual(mat) < 1e-9
        assert unitarity_residual(second.matrices[name].numeric) > 1e-3


def _products(lattice):
    gens = [lattice.matrices[g] for g in lattice.presentation.gens]
    return WordProducts(gens, lattice.form)


def test_central_power_of_generator_powers(first):
    products = _products(first)
    b = Word.gen(0)
    assert central_power(b ** 3, products) == 2
    assert central_power(b ** 6, products) == 1
    assert central_power(b ** -9, products) == 0
    assert central_power(b, products) is None


def _counting(calls, original):
    def counting(self, *args):
        calls.append(self)
        return original(self, *args)

    return counting


@pytest.mark.parametrize("preset_id", ["dm-5-4-1-1-1-6", "dm-11-7-2-2-2-12"])
def test_central_powers_invert_each_generator_at_most_once(monkeypatch,
                                                           preset_id):
    # every template relator splits into two positive halves, so no
    # generator is inverted at all; the halves share prefixes and periods
    inverted, multiplied = [], []
    monkeypatch.setattr(GroupMatrix, "inv",
                        _counting(inverted, GroupMatrix.inv))
    monkeypatch.setattr(GroupMatrix, "__mul__",
                        _counting(multiplied, GroupMatrix.__mul__))
    preset = dm_lattice(preset_id)  # the loader finds the central powers
    assert preset.central_powers == list(EXPECTED_POWERS)
    assert inverted == []
    assert len(multiplied) == {"dm-5-4-1-1-1-6": 20,
                               "dm-11-7-2-2-2-12": 19}[preset_id]


def _mixed_words():
    letter = st.tuples(st.integers(0, 2), st.sampled_from([1, -1]))
    plain = st.lists(letter, max_size=7).map(Word)
    # conjugates of central words (b^3 = zeta_3^2, u^-3 = zeta_3, a braid
    # relator = 1) put negative syllables after positive ones
    central = st.sampled_from([Word.gen(0, 3), Word.gen(1, -3),
                               braid_relator(0, 1, 3)])
    conjugates = st.tuples(plain, central).map(lambda tc: tc[0] * tc[1]
                                               * tc[0].inv())
    return st.lists(st.one_of(plain, conjugates), min_size=1, max_size=4)


@given(words=_mixed_words())
@settings(max_examples=100, deadline=None)
def test_central_power_matches_left_to_right_products(first, words):
    products = _products(first)
    expected = [reference_central_power(w, products.gens, first.form)
                for w in words]
    inverted = []
    with unittest.mock.patch.object(GroupMatrix, "inv",
                                    _counting(inverted, GroupMatrix.inv)):
        assert [central_power(w, products) for w in words] == expected
    assert len(set(map(id, inverted))) == len(inverted)


def test_verify_powers_first(first):
    results = verify_preset(first)
    assert [j for _, j in results] == list(EXPECTED_POWERS)
    assert results[0][0] == "b^3"
    assert results[2][0] == "v^6"


def test_verify_powers_second(second):
    results = verify_preset(second)
    assert [j for _, j in results] == list(EXPECTED_POWERS)
    assert results[2][0] == "v^4"
    assert results[6][0] == "b*u*v*b*u*v*b*u*v"


def _copy_preset(tmp_path: Path, name: str) -> Path:
    root = tmp_path / "presets"
    shutil.copytree(_BUNDLED / name, root / name)
    return root


def test_corrupted_matrix_fails_loudly(tmp_path, monkeypatch):
    root = _copy_preset(tmp_path, "dm-5-4-1-1-1-6")
    path = root / "dm-5-4-1-1-1-6" / "matrices.txt"
    text = path.read_text()
    assert text.count("matrix v\nz6") == 1
    path.write_text(text.replace("matrix v\nz6", "matrix v\n1"))
    monkeypatch.setenv("LATCOVER_PRESETS", str(root))
    with pytest.raises(ValueError):
        dm_lattice("dm-5-4-1-1-1-6")


def test_non_unitary_preset_matrix_is_rejected(tmp_path, monkeypatch):
    # diag(2, 1/2, 1) has det 1, so only the unitarity check can reject it
    root = _copy_preset(tmp_path, "dm-5-4-1-1-1-6")
    path = root / "dm-5-4-1-1-1-6" / "matrices.txt"
    head, tail = path.read_text().split("matrix v\n")
    assert "matrix" not in tail
    path.write_text(head + "matrix v\n" + "\n".join(
        ["2", "0", "0", "0", "1/2", "0", "0", "0", "1"]) + "\n")
    monkeypatch.setenv("LATCOVER_PRESETS", str(root))
    with pytest.raises(ValueError, match="matrix v is not unitary"):
        dm_lattice("dm-5-4-1-1-1-6")


def test_corrupted_presentation_fails_loudly(tmp_path, monkeypatch):
    root = _copy_preset(tmp_path, "dm-5-4-1-1-1-6")
    path = root / "dm-5-4-1-1-1-6" / "presentation.txt"
    path.write_text(path.read_text().replace("v^6", "v^5"))
    monkeypatch.setenv("LATCOVER_PRESETS", str(root))
    with pytest.raises(ValueError, match="central"):
        dm_lattice("dm-5-4-1-1-1-6")


@pytest.mark.parametrize("rewrite, message", [
    (lambda text: text.replace("\nb^3\n", "\nb^3*u\n", 1), "got b^3*u"),
    (lambda text: "\n".join(text.splitlines()[:3]) + "\n", "relators, got 2"),
    (lambda text: text.replace("\nb^3\nu^3\n", "\nb\nu\n", 1),
     "orders of b and v must be at least 2, got 1 and 6"),
], ids=["non-power-relator", "too-few-relators", "order-below-2"])
def test_malformed_preset_exits_2(tmp_path, monkeypatch, capsys, rewrite,
                                  message):
    root = _copy_preset(tmp_path, "dm-5-4-1-1-1-6")
    path = root / "dm-5-4-1-1-1-6" / "presentation.txt"
    path.write_text(rewrite(path.read_text()))
    monkeypatch.setenv("LATCOVER_PRESETS", str(root))
    assert main(["lift", "--preset", "dm-5-4-1-1-1-6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err


def test_missing_fixture_directory(tmp_path, monkeypatch):
    monkeypatch.setenv("LATCOVER_PRESETS", str(tmp_path))
    with pytest.raises(FileNotFoundError):
        dm_lattice("dm-5-4-1-1-1-6")


def test_missing_subgroup_file(first):
    with pytest.raises(FileNotFoundError, match="no subgroup fixture"):
        first.subgroup_words("no-such-subgroup")


@pytest.fixture(scope="module")
def lifted_first(first):
    return first.lift()


@pytest.fixture(scope="module")
def lifted_second(second):
    return second.lift()


def test_first_preset_lift_exponents(lifted_first):
    assert lifted_first.exponents == [1, 1, 1, 0, 0, 0, 3]
    base = lifted_first.base
    assert [len(r.syllables) == 1 and r.syllables[0][1] for r in
            base.relators[:3]] == [3, 3, 6]


def test_second_preset_lift_exponents(lifted_second):
    assert lifted_second.exponents == [1, 1, 1, 0, 0, 0, 3]
    assert lifted_second.base.relators[2].syllables == ((2, 4),)


def test_lift_exponents_match_verify_powers(first, lifted_first):
    powers = [j for _, j in verify_preset(first)]
    assert [(-k) % 3 for k in lifted_first.exponents] == powers


def test_lifted_presentation_names(lifted_first):
    pres = lifted_first.to_presentation()
    assert pres.gens == ["b", "u", "v", "z"]
