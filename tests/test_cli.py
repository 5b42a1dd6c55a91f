import cmath
import math
import random
import re
from pathlib import Path

import pytest

from latcover.cli import main
from latcover.su21 import MAX_CONDUCTOR

PRESET1 = "dm-5-4-1-1-1-6"
PRESET2 = "dm-11-7-2-2-2-12"

LIFT1_EXPECTED = """\
generators: b u v z
b^3*z
u^3*z
v^6*z
b*v*b^-1*v^-1
b*u*b*u^-1*b^-1*u^-1
u*v*u*v*u^-1*v^-1*u^-1*v^-1
b*u*v*b*u*v*b*u*v*z^3
# z central
"""


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_lift_preset_one_report(capsys):
    rc, out, err = run(capsys, "lift", "--preset", PRESET1)
    assert rc == 0
    assert out == LIFT1_EXPECTED
    assert err == ""


def test_lift_preset_two_report(capsys):
    rc, out, _ = run(capsys, "lift", "--preset", PRESET2)
    assert rc == 0
    assert out == LIFT1_EXPECTED.replace("v^6*z", "v^4*z")


def test_lift_accepts_weight_labels(capsys):
    rc, out, _ = run(capsys, "lift", "--preset", "(5,4,1,1,1)/6")
    assert rc == 0
    assert out == LIFT1_EXPECTED


@pytest.mark.parametrize("preset, expected", [
    (PRESET1, LIFT1_EXPECTED),
    # a custom form: the file path conjugates to the standard form too
    (PRESET2, LIFT1_EXPECTED.replace("v^6*z", "v^4*z")),
], ids=[PRESET1, PRESET2])
def test_lift_from_files_matches_preset(capsys, preset, expected):
    directory = _presets_root() / preset
    rc, out, _ = run(capsys, "lift",
                     "--pres", str(directory / "presentation.txt"),
                     "--matrices", str(directory / "matrices.txt"))
    assert rc == 0
    assert out == expected


def test_lift_and_verify_evaluate_each_relator_once(capsys, monkeypatch):
    import latcover.presets as presets
    evaluated = []
    original = presets.central_power

    def counting(word, *args):
        evaluated.append(word)
        return original(word, *args)

    monkeypatch.setattr(presets, "central_power", counting)
    relators = presets.dm_lattice(PRESET1).presentation.relators
    for command in ("lift", "verify"):
        evaluated.clear()
        rc, _, _ = run(capsys, command, "--preset", PRESET1)
        assert rc == 0
        assert evaluated == relators


def _presets_root():
    import latcover.presets as presets
    from pathlib import Path
    return Path(str(presets._presets_root()))


@pytest.fixture(scope="module")
def preset1_dir():
    return _presets_root() / PRESET1


def test_winding_b9_is_minus_one(capsys):
    rc, out, _ = run(capsys, "winding", "--preset", PRESET1, "--word", "b^9")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "winding: -1"
    assert lines[1] == "s,re,im"
    assert lines[2] == "0.000000000,1.000000000,0.000000000"
    assert len(lines) >= 2 + 9 * 256


def test_winding_empty_word_is_zero(capsys):
    rc, out, _ = run(capsys, "winding", "--preset", PRESET1, "--word", "")
    assert rc == 0
    assert out.splitlines()[0] == "winding: 0"


def test_winding_open_path_endpoint(capsys):
    rc, out, _ = run(capsys, "winding", "--preset", PRESET1,
                     "--word", "b^3", "--open-path")
    assert rc == 0
    first = out.splitlines()[0]
    assert first.startswith("endpoint: ")
    re_part, im_part = first.split(" ", 2)[1:]
    endpoint = complex(float(re_part), float(im_part.rstrip("i")))
    assert abs(endpoint - cmath.exp(4j * math.pi / 3)) < 1e-6


def test_winding_invariant_under_sample_doubling(capsys):
    results = []
    for n in (256, 512, 1024):
        rc, out, _ = run(capsys, "winding", "--preset", PRESET1,
                         "--word", "b^9", "--samples", str(n))
        assert rc == 0
        results.append(out.splitlines()[0])
    assert results == ["winding: -1"] * 3


def test_winding_central_letter(capsys):
    rc, out, _ = run(capsys, "winding", "--preset", PRESET1, "--word", "z^3")
    assert rc == 0
    assert out.splitlines()[0] == "winding: 1"


def test_winding_svg(capsys, tmp_path):
    svg = tmp_path / "trace.svg"
    rc, out, _ = run(capsys, "winding", "--preset", PRESET1,
                     "--word", "b^9", "--svg", str(svg))
    assert rc == 0
    text = svg.read_text()
    assert text.startswith("<svg ")
    assert "<polyline" in text
    assert "<circle" in text
    assert out.splitlines()[0] == "winding: -1"


def test_winding_svg_into_missing_directory_exits_2(capsys, tmp_path):
    rc, out, err = run(capsys, "winding", "--preset", PRESET1, "--word",
                       "b^9", "--svg", str(tmp_path / "missing" / "x.svg"))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ")


def test_winding_deterministic_bytes(capsys):
    _, first, _ = run(capsys, "winding", "--preset", PRESET2,
                      "--word", "b*u*v*b*u*v*b*u*v")
    _, second, _ = run(capsys, "winding", "--preset", PRESET2,
                       "--word", "b*u*v*b*u*v*b*u*v")
    assert first == second


def _seeded_open_word(seed: int, letters: int) -> str:
    rng = random.Random(seed)
    word = []
    while len(word) < letters:
        letter = (rng.choice("buv"), rng.choice((1, -1)))
        if not word or word[-1] != (letter[0], -letter[1]):
            word.append(letter)
    return "*".join(g if e == 1 else f"{g}^-1" for g, e in word)


@pytest.mark.parametrize("preset, word, open_path, samples", [
    (PRESET1, "b^9", False, 256),
    (PRESET2, _seeded_open_word(6, 64), True, 256),
    (PRESET1, "u^-1", True, 1500),
], ids=["b9", "open-64-letters", "samples-1500"])
def test_sample_table_bytes_match_per_element_formatting(
        capsys, tmp_path, preset, word, open_path, samples):
    # the reference formats each numpy scalar of relator_path's output, as
    # the sample table and the SVG trace were once written
    from latcover.cli import _SAMPLE_SLICE
    from latcover.pathlift import generator_logs, relator_path, winding_number
    from latcover.presets import dm_lattice
    lattice = dm_lattice(preset)
    path = relator_path(lattice.presentation.word(word),
                        generator_logs(lattice.numerics()), samples)
    assert len(path.s) > _SAMPLE_SLICE and len(path.s) % _SAMPLE_SLICE
    if open_path:
        end = path.endpoint
        head = f"endpoint: {end.real:.9f} {end.imag:+.9f}i\n"
    else:
        head = f"winding: {winding_number(path)}\n"
    expected = head + "s,re,im\n" + "".join(
        f"{s:.9f},{v.real:.9f},{v.imag:.9f}\n"
        for s, v in zip(path.s, path.values))
    xs = [float(v.real) for v in path.values]
    ys = [float(v.imag) for v in path.values]
    lo, hi = min(min(xs), min(ys)), max(max(xs), max(ys))
    span = max(hi - lo, 1e-9)
    pad = 0.1 * span
    lo, span = lo - pad, span + 2 * pad
    points = " ".join(f"{(x - lo) / span * 600.0:.2f},"
                      f"{600.0 - (y - lo) / span * 600.0:.2f}"
                      for x, y in zip(xs, ys))
    svg = tmp_path / "trace.svg"
    rc, out, _ = run(capsys, "winding", "--preset", preset, "--word", word,
                     "--samples", str(samples), "--svg", str(svg),
                     *(["--open-path"] if open_path else []))
    assert rc == 0
    assert out == expected
    assert f'<polyline points="{points}" ' in svg.read_text()


def test_verify_both_presets(capsys):
    rc, out, _ = run(capsys, "verify", "--preset", PRESET1)
    assert rc == 0
    assert "v^6 = z^2" in out
    assert "all relator values match (exact arithmetic)" in out
    rc, out, _ = run(capsys, "verify", "--preset", PRESET2)
    assert rc == 0
    assert "v^4 = z^2" in out
    assert "b*u*v*b*u*v*b*u*v = 1" in out


def test_verify_bits_flag_tightens_residuals(capsys):
    _, coarse, _ = run(capsys, "verify", "--preset", PRESET1, "--bits", "64")
    _, fine, _ = run(capsys, "verify", "--preset", PRESET1, "--bits", "192")
    def worst(report):
        vals = [float(line.rsplit(" ", 1)[1]) for line in report.splitlines()
                if "unitarity residual" in line]
        return max(vals)
    assert worst(fine) < worst(coarse)


def test_cosets_report(capsys):
    rc, out, _ = run(capsys, "cosets", "--preset", PRESET1,
                     "--subgroup", "hirzebruch")
    assert rc == 0
    assert out == "index: 72\nvalid: yes\nnormal: yes\n"


def test_cosets_validates_the_table_once(capsys, monkeypatch):
    from latcover.fpgroups import CosetTable
    calls = []
    original = CosetTable.validates

    def counting(self, *args):
        calls.append(self.index)
        return original(self, *args)

    monkeypatch.setattr(CosetTable, "validates", counting)
    rc, out, _ = run(capsys, "cosets", "--preset", PRESET1,
                     "--subgroup", "hirzebruch")
    assert (rc, out) == (0, "index: 72\nvalid: yes\nnormal: yes\n")
    assert calls == [72]


def test_cosets_reports_a_subgroup_that_is_not_normal(capsys, tmp_path):
    pres = tmp_path / "a4.txt"
    pres.write_text("generators: a b\na^2\nb^3\na*b*a*b*a*b\n")
    words = tmp_path / "b.words"
    words.write_text("b\n")
    rc, out, _ = run(capsys, "cosets", "--pres", str(pres),
                     "--subgroup", str(words))
    assert (rc, out) == (0, "index: 4\nvalid: yes\nnormal: no\n")


def test_cosets_walks_every_coset_only_for_the_relators(capsys, monkeypatch):
    # normality reads the cosets next to coset 0; only validates' relator
    # check walks the words from every coset
    import sys
    from latcover.fpgroups import CosetTable
    callers = []
    original = CosetTable.fixes_all_cosets

    def counting(self, words):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(self, words)

    monkeypatch.setattr(CosetTable, "fixes_all_cosets", counting)
    rc, out, _ = run(capsys, "cosets", "--preset", PRESET1,
                     "--subgroup", "hirzebruch")
    assert (rc, out) == (0, "index: 72\nvalid: yes\nnormal: yes\n")
    assert callers == ["validates"]


def test_cosets_invalid_table_exits_3(capsys, monkeypatch):
    from latcover.fpgroups import CosetTable
    monkeypatch.setattr(CosetTable, "validates", lambda self, *args: False)
    rc, out, err = run(capsys, "cosets", "--preset", PRESET1,
                       "--subgroup", "hirzebruch")
    assert rc == 3
    assert out == ""
    assert err == "error: enumeration produced an invalid table\n"


GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


@pytest.mark.parametrize("golden, argv", [
    ("verify-dm-11-7-2-2-2-12", ["verify", "--preset", PRESET2]),
    ("winding-b9-dm-5-4-1-1-1-6", ["winding", "--preset", PRESET1,
                                   "--word", "b^9"]),
    ("subpres-hirzebruch", ["subpres", "--preset", PRESET1,
                            "--subgroup", "hirzebruch"]),
    ("certify-hirzebruch", ["certify", "--preset", PRESET1,
                            "--subgroup", "hirzebruch"]),
])
def test_output_matches_benchmark_golden(capsys, golden, argv):
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert out == (GOLDEN / f"{golden}.txt").read_text()


@pytest.mark.parametrize("argv, expected", [
    (["certify", "--preset", PRESET1, "--subgroup", "hirzebruch"],
     (GOLDEN / "certify-hirzebruch.txt").read_text()),
    (["nq2", "--preset", PRESET1, "--subgroup", "hirzebruch"],
     "abelianization: Z^4\nderived part: Z^3\n"),
    (["nq2", "--preset", PRESET1],
     "abelianization: Z/3 x Z/3\nderived part: trivial\n"),
], ids=["certify-hirzebruch", "nq2-hirzebruch", "nq2-whole-group"])
def test_class2_quotients_need_no_hnf_transform(capsys, monkeypatch, argv,
                                                expected):
    # every Hermite form is of a relation matrix alone and returns the
    # nonzero rows of its lattice basis, with no transform alongside
    import latcover.intlinalg as intlinalg
    import latcover.nq2 as nq2
    original = intlinalg.hnf
    widths = []

    def basis_only(rows):
        out = original(rows)
        widths.append(len(rows[0]) if rows else 0)
        assert all(len(row) == widths[-1] and any(row) for row in out)
        return out

    monkeypatch.setattr(intlinalg, "hnf", basis_only)
    monkeypatch.setattr(nq2, "hnf", basis_only)
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (0, expected, "")
    assert widths


def test_subpres_reduces_to_four_generators(capsys):
    rc, out, _ = run(capsys, "subpres", "--preset", PRESET1,
                     "--subgroup", "hirzebruch")
    assert rc == 0
    header = out.splitlines()[0]
    assert header.startswith("generators: ")
    assert len(header.split()) == 1 + 4


def test_abelian_whole_group(capsys):
    rc, out, _ = run(capsys, "abelian", "--preset", PRESET1)
    assert rc == 0
    assert out == "abelianization: Z/3 x Z/3\n"


def test_abelian_of_stalling_smith_form(capsys, tmp_path):
    # exponent sums on which a minimal-pivot Smith form ran for minutes
    rows = [[4, -7, -8, 7, -6], [-5, 3, -9, 2, 7], [9, 8, -6, 6, -4],
            [4, 6, -2, 7, 4], [4, -4, 7, 4, 8], [-5, -7, -2, 4, 4]]
    relators = ["*".join(f"{g}^{e}" for g, e in zip("abcde", row))
                for row in rows]
    pres = tmp_path / "m1.pres"
    pres.write_text("generators: a b c d e\n" + "\n".join(relators) + "\n")
    rc, out, _ = run(capsys, "abelian", "--pres", str(pres))
    assert (rc, out) == (0, "abelianization: Z/3\n")


def test_abelian_subgroup(capsys):
    rc, out, _ = run(capsys, "abelian", "--preset", PRESET1,
                     "--subgroup", "hirzebruch")
    assert rc == 0
    assert out == "abelianization: Z^4\n"


def test_nq2_subgroup(capsys):
    rc, out, _ = run(capsys, "nq2", "--preset", PRESET1,
                     "--subgroup", "hirzebruch")
    assert rc == 0
    assert out == "abelianization: Z^4\nderived part: Z^3\n"


def test_certify_whole_group_inconclusive(capsys):
    rc, out, _ = run(capsys, "certify", "--preset", PRESET1)
    assert rc == 1
    assert "verdict: INCONCLUSIVE" in out
    assert "subgroup: whole group" in out


def test_certify_hirzebruch(capsys):
    rc, out, _ = run(capsys, "certify", "--preset", PRESET1,
                     "--subgroup", "hirzebruch")
    assert rc == 0
    assert "index: 72" in out
    assert "derived part: Z^4" in out
    assert "z order: infinite (in the derived part)" in out
    assert "verdict: INFINITE_ORDER" in out


def test_unknown_preset_exits_2(capsys):
    rc, out, err = run(capsys, "lift", "--preset", "nope")
    assert rc == 2
    assert out == ""
    assert "unknown preset" in err


def test_missing_subgroup_fixture_exits_2(capsys):
    rc, out, err = run(capsys, "certify", "--preset", PRESET1,
                       "--subgroup", "atlas")
    assert rc == 2
    assert out == ""
    assert "atlas" in err


def test_missing_subgroup_file_exits_2(capsys, tmp_path):
    rc, out, err = run(capsys, "cosets", "--preset", PRESET1,
                       "--subgroup", str(tmp_path / "gone.words"))
    assert rc == 2
    assert out == ""
    assert "not found" in err


def test_lift_without_matrices_exits_2(capsys, preset1_dir):
    rc, out, _ = run(capsys, "lift",
                     "--pres", str(preset1_dir / "presentation.txt"))
    assert rc == 2
    assert out == ""


@pytest.mark.parametrize("command", ["lift", "certify", "cosets", "abelian",
                                     "nq2", "winding"])
def test_noncentral_relator_from_files_exits_2(capsys, tmp_path, preset1_dir,
                                               command):
    # b*v is not central on the preset's matrices: every command given
    # matrices exits 2 at load, from a preset or from files alike
    (tmp_path / "p.txt").write_text("generators: b u v\nb^3\nu^3\nv^6\nb*v\n")
    word = ["--word", "b^9"] if command == "winding" else []
    rc, out, err = run(capsys, command, "--pres", str(tmp_path / "p.txt"),
                       "--matrices", str(preset1_dir / "matrices.txt"), *word)
    assert rc == 2
    assert out == ""
    assert err == ("error: relator b*v does not evaluate to a central "
                   "element\n")


def test_extra_matrix_exits_2(capsys, tmp_path, preset1_dir):
    # every matrix must name a generator: w is not one
    entries = ["2", "0", "0", "0", "1/2", "0", "0", "0", "1"]
    (tmp_path / "m.txt").write_text(
        (preset1_dir / "matrices.txt").read_text() + "matrix w\n"
        + "\n".join(entries) + "\n")
    rc, out, err = run(capsys, "lift",
                       "--pres", str(preset1_dir / "presentation.txt"),
                       "--matrices", str(tmp_path / "m.txt"))
    assert rc == 2
    assert out == ""
    assert err == ("error: matrix names ['b', 'u', 'v', 'w'] do not match "
                   "generators ['b', 'u', 'v']\n")


@pytest.mark.parametrize("command", ["cosets", "subpres", "abelian", "nq2",
                                     "certify"])
def test_empty_subgroup_file_exits_2(capsys, tmp_path, command):
    # a file without words names neither the trivial nor the whole subgroup
    (tmp_path / "h.words").write_text("# no words here\n\n")
    rc, out, err = run(capsys, command, "--preset", PRESET1,
                       "--subgroup", str(tmp_path / "h.words"))
    assert rc == 2
    assert out == ""
    assert err == f"error: subgroup file {tmp_path / 'h.words'} holds no words\n"


def test_both_preset_and_pres_exits_2(capsys, preset1_dir):
    rc, out, err = run(capsys, "lift", "--preset", PRESET1,
                       "--pres", str(preset1_dir / "presentation.txt"))
    assert rc == 2
    assert "not both" in err


def test_matrices_without_pres_exits_2(capsys, monkeypatch):
    import latcover.cli as cli

    def no_preset(preset_id):
        raise AssertionError("the preset was loaded")

    monkeypatch.setattr(cli, "dm_lattice", no_preset)
    rc, out, err = run(capsys, "lift", "--preset", PRESET1,
                       "--matrices", "/nonexistent")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "--matrices" in err


def test_bad_word_exits_2(capsys):
    rc, out, err = run(capsys, "winding", "--preset", PRESET1,
                       "--word", "q^2")
    assert rc == 2
    assert out == ""
    assert "unknown generator" in err


def test_open_word_without_flag_exits_3(capsys):
    rc, out, err = run(capsys, "winding", "--preset", PRESET1, "--word", "b")
    assert rc == 3
    assert out == ""
    assert "not closed" in err


def test_enumeration_limit_exits_3(capsys):
    rc, out, err = run(capsys, "cosets", "--preset", PRESET1,
                       "--subgroup", "hirzebruch", "--max-cosets", "10")
    assert rc == 3
    assert out == ""
    assert "limit" in err


def test_oversized_subgroup_words_exit_3(capsys, monkeypatch, tmp_path,
                                         preset1_dir):
    import latcover.fpgroups as fpgroups
    # the preset's relators have 39 letters together; b, u, v bring 3 more,
    # and spelling b as b^7 (b has order 3) brings 9
    monkeypatch.setattr(fpgroups, "MAX_WORD_LETTERS", 45)
    words = tmp_path / "whole.words"
    argv = ("cosets", "--pres", str(preset1_dir / "presentation.txt"),
            "--subgroup", str(words))
    words.write_text("b\nu\nv\n")
    rc, out, _ = run(capsys, *argv)
    assert rc == 0 and out.startswith("index: 1\n")
    words.write_text("b^7\nu\nv\n")
    rc, out, err = run(capsys, *argv)
    assert rc == 3
    assert out == ""
    assert "over the limit" in err


def test_subpres_letter_bound_exits_3(capsys, monkeypatch, tmp_path):
    import latcover.fpgroups as fpgroups
    # the base relators and subgroup words pass Todd-Coxeter's check; the
    # hirzebruch Schreier relators have 1,815 letters as rewritten
    monkeypatch.setattr(fpgroups, "MAX_WORD_LETTERS", 1000)
    rc, out, err = run(capsys, "subpres", "--preset", PRESET1,
                       "--subgroup", "hirzebruch")
    assert rc == 3
    assert out == ""
    assert err.startswith("error: Tietze relators have 1815 letters")
    # 13 letters on entry, 27 after eliminating a = b^9
    pres = tmp_path / "grow.txt"
    pres.write_text("generators: a b\na*b^-9\na^3\n")
    words = tmp_path / "whole.words"
    words.write_text("a\nb\n")
    monkeypatch.setattr(fpgroups, "MAX_WORD_LETTERS", 20)
    rc, out, err = run(capsys, "subpres", "--pres", str(pres),
                       "--subgroup", str(words))
    assert rc == 3
    assert out == ""
    assert err.startswith("error: Tietze relators have 27 letters")


def test_subpres_growth_checked_before_expansion(capsys, tmp_path):
    # 131,073 letters pass both checks on entry; eliminating a = b^65536
    # turns a^65536 into b^(2^32), which must be refused before any
    # relator is expanded to letters
    pres = tmp_path / "grow.txt"
    pres.write_text("generators: a b\na*b^-65536\na^65536\n")
    words = tmp_path / "whole.words"
    words.write_text("a\nb\n")
    rc, out, err = run(capsys, "subpres", "--pres", str(pres),
                       "--subgroup", str(words))
    assert rc == 3
    assert out == ""
    assert err.startswith(f"error: Tietze relators have {2 ** 32} letters")


def test_main_leaves_no_cyclic_garbage(capsys):
    import gc
    main(["lift", "--preset", PRESET1])
    gc.collect()
    gc.disable()
    try:
        rc = main(["lift", "--preset", PRESET1])
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert rc == 0
    capsys.readouterr()


@pytest.mark.parametrize("word, samples", [("b^1000000000", "256"),
                                           ("b^9", "1000000000")])
def test_oversized_path_exits_3_before_sampling(capsys, word, samples):
    rc, out, err = run(capsys, "winding", "--preset", PRESET1,
                       "--word", word, "--samples", samples)
    assert rc == 3
    assert out == ""
    assert "over the limit" in err


def test_oversized_nq2_exits_3(capsys, monkeypatch):
    import latcover.nq2 as nq2
    monkeypatch.setattr(nq2, "MAX_WEDGE_SIZE", 2)
    rc, out, err = run(capsys, "nq2", "--preset", PRESET1)
    assert rc == 3
    assert out == ""
    assert "over the limit" in err


@pytest.mark.parametrize("command", ["nq2", "certify"])
def test_oversized_survivor_set_exits_3(capsys, monkeypatch, command):
    # hirzebruch leaves 4 surviving Schreier generators, 5 with z; a limit of
    # 3 wedge coordinates admits 3, and the check comes before any
    # back-substitution
    import latcover.nq2 as nq2
    monkeypatch.setattr(nq2, "MAX_WEDGE_SIZE", 3)

    def unreachable(*args):
        raise RuntimeError("back-substitution ran past the size check")

    monkeypatch.setattr(nq2, "_back_substitute", unreachable)
    rc, out, err = run(capsys, command, "--preset", PRESET1,
                       "--subgroup", "hirzebruch")
    assert rc == 3
    assert out == ""
    assert "over the limit" in err


@pytest.mark.parametrize("part", ["a-part", "m-part"])
@pytest.mark.parametrize("command", ["nq2", "certify"])
def test_corrupted_m_part_trips_self_check(capsys, monkeypatch, command, part):
    # one eliminated generator's abelian or commutator coordinates off by
    # one: some pivot relator no longer maps to the identity
    import latcover.nq2 as nq2
    solve = nq2._back_substitute

    def corrupted(elim, known, constants):
        x = solve(elim, known, constants)
        # the a-pass knows the survivors' unit vectors, the m-pass nothing
        if bool(known) == (part == "a-part"):
            col = elim.pivots[len(elim.pivots) // 2][0]
            x[col] = [x[col][0] + 1] + x[col][1:]
        return x

    monkeypatch.setattr(nq2, "_back_substitute", corrupted)
    rc, out, err = run(capsys, command, "--preset", PRESET1,
                       "--subgroup", "hirzebruch")
    assert rc == 3
    assert out == ""
    assert "pivot relator" in err


@pytest.fixture
def z_named_files(tmp_path, preset1_dir):
    """The first preset's files with generator v renamed z."""
    for source, target in (("presentation.txt", "p.txt"),
                           ("subgroups/hirzebruch.words", "h.words")):
        text = (preset1_dir / source).read_text()
        (tmp_path / target).write_text(re.sub(r"\bv\b", "z", text))
    mats = (preset1_dir / "matrices.txt").read_text()
    (tmp_path / "m.txt").write_text(mats.replace("matrix v", "matrix z"))
    return ["--pres", str(tmp_path / "p.txt"),
            "--matrices", str(tmp_path / "m.txt")]


@pytest.mark.parametrize("command", ["lift", "certify"])
def test_generator_named_z_exits_2(capsys, z_named_files, command):
    rc, out, err = run(capsys, command, *z_named_files)
    assert rc == 2
    assert out == ""
    assert err == "error: central generator name 'z' collides\n"


def test_generator_named_z_without_lift(capsys, z_named_files, tmp_path):
    subgroup = ["--subgroup", str(tmp_path / "h.words")]
    rc, out, _ = run(capsys, "cosets", *z_named_files, *subgroup)
    assert (rc, out) == (0, "index: 72\nvalid: yes\nnormal: yes\n")
    rc, out, _ = run(capsys, "subpres", *z_named_files, *subgroup)
    assert rc == 0
    assert len(out.splitlines()[0].split()) == 1 + 4
    rc, out, _ = run(capsys, "winding", *z_named_files, "--word", "b^9")
    assert rc == 0
    assert out.startswith("winding: -1\n")


def test_nonpositive_samples_exits_2(capsys):
    rc, out, err = run(capsys, "winding", "--preset", PRESET1,
                       "--word", "b^9", "--samples", "0")
    assert rc == 2
    assert "positive" in err


def test_bits_below_double_precision_exits_2(capsys, monkeypatch):
    import latcover.cli as cli

    def unexpected(*args):
        raise AssertionError("the preset loaded before the --bits check")

    monkeypatch.setattr(cli, "dm_lattice", unexpected)
    rc, out, err = run(capsys, "verify", "--preset", PRESET1, "--bits", "40")
    assert rc == 2
    assert out == ""
    assert err == "error: --bits must be at least 53 (double precision)\n"


def test_bits_above_bound_exits_2(capsys, monkeypatch):
    import latcover.cli as cli

    def unexpected(*args):
        raise AssertionError("the preset loaded before the --bits check")

    monkeypatch.setattr(cli, "dm_lattice", unexpected)
    rc, out, err = run(capsys, "verify", "--preset", PRESET1,
                       "--bits", str(cli.MAX_BITS + 1))
    assert rc == 2
    assert out == ""
    assert err == f"error: --bits must be at most {cli.MAX_BITS}\n"


def test_verify_needs_preset_exits_2(capsys, preset1_dir):
    rc, _, err = run(capsys, "verify",
                     "--pres", str(preset1_dir / "presentation.txt"))
    assert rc == 2
    assert "preset" in err


def test_subpres_needs_subgroup_exits_2(capsys):
    rc, _, err = run(capsys, "subpres", "--preset", PRESET1)
    assert rc == 2
    assert "subgroup" in err


def test_nonunitary_user_matrix_exits_2(capsys, tmp_path):
    (tmp_path / "p.txt").write_text("generators: b\nb^3\n")
    entries = ["2", "0", "0", "0", "1/2", "0", "0", "0", "1"]
    (tmp_path / "m.txt").write_text(
        "conductor 6\nform standard\nmatrix b\n" + "\n".join(entries) + "\n")
    rc, out, err = run(capsys, "lift", "--pres", str(tmp_path / "p.txt"),
                       "--matrices", str(tmp_path / "m.txt"))
    assert rc == 2
    assert out == ""
    assert "not unitary" in err


_IDENTITY = ["1", "0", "0", "0", "1", "0", "0", "0", "1"]


@pytest.mark.parametrize("form, rc", [
    (["1", "0", "0", "0", "1", "0", "0", "0", "1"], 2),  # (3,0)
    (["1", "0", "0", "0", "-1", "0", "0", "0", "-1"], 2),  # (1,2)
    (["-1", "0", "0", "0", "-1", "0", "0", "0", "-1"], 2),  # (0,3)
    (["1", "1", "0", "1", "1", "0", "0", "0", "-1"], 2),  # eigenvalue 0
    (None, 0),
    (["2", "z4", "0", "-z4", "1", "0", "0", "0", "-1"], 0),
    (["1", "0", "0", "0", "1", "0", "0", "0", "-5"], 0),  # negative trace
], ids=["3-0", "1-2", "0-3", "singular", "standard", "custom",
        "negative-trace"])
def test_form_signature_decides_the_exit_code(capsys, tmp_path, form, rc):
    (tmp_path / "p.txt").write_text("generators: g\ng^2\n")
    header = ["form standard"] if form is None else ["form custom"] + form
    (tmp_path / "m.txt").write_text("\n".join(
        ["conductor 4"] + header + ["matrix g"] + _IDENTITY) + "\n")
    got, out, err = run(capsys, "abelian", "--pres", str(tmp_path / "p.txt"),
                        "--matrices", str(tmp_path / "m.txt"))
    assert got == rc
    if rc:
        assert out == ""
        assert err.startswith("error: form does not have signature (2,1)")
    else:
        assert out == "abelianization: Z/2\n"


@pytest.mark.parametrize("conductor, rc", [
    (MAX_CONDUCTOR, 0), (MAX_CONDUCTOR + 1, 2), (1000000, 2)])
def test_conductor_bound_decides_the_exit_code(capsys, tmp_path, conductor,
                                               rc):
    (tmp_path / "p.txt").write_text("generators: g\ng^2\n")
    (tmp_path / "m.txt").write_text("\n".join(
        [f"conductor {conductor}", "form standard", "matrix g"] + _IDENTITY)
        + "\n")
    got, out, err = run(capsys, "cosets", "--pres", str(tmp_path / "p.txt"),
                        "--matrices", str(tmp_path / "m.txt"))
    assert got == rc
    if rc:
        assert out == ""
        assert err.startswith(f"error: conductor {conductor} is outside")
    else:
        assert out.startswith("index: 2\n")


_NO_NUMPY_SCRIPT = """\
import contextlib, io, json, sys
from latcover.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    print(json.dumps([argv[0], rc, "numpy" in sys.modules]))
"""


def test_group_theory_commands_never_import_numpy(tmp_path):
    import json
    import os
    import subprocess
    import sys
    import latcover
    whole = tmp_path / "whole.words"
    whole.write_text("b\nu\nv\n")
    root = _presets_root() / PRESET2
    inputs = [["--preset", PRESET1], ["--preset", PRESET2],
              ["--pres", str(root / "presentation.txt"),
               "--matrices", str(root / "matrices.txt")]]
    runs = [["verify", "--preset", PRESET1], ["verify", "--preset", PRESET2],
            ["cosets", "--preset", PRESET1, "--subgroup", "hirzebruch"],
            ["subpres", "--preset", PRESET1, "--subgroup", "hirzebruch"]]
    for lattice in inputs:
        runs += [["cosets", *lattice, "--subgroup", str(whole)],
                 ["subpres", *lattice, "--subgroup", str(whole)],
                 ["abelian", *lattice], ["nq2", *lattice]]
    runs.append(["lift", "--preset", PRESET2])
    env = dict(os.environ,
               PYTHONPATH=str(Path(latcover.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_SCRIPT, json.dumps(runs)], env=env,
        capture_output=True, text=True, check=True, timeout=300)
    results = [json.loads(line) for line in done.stdout.splitlines()]
    assert results == [[argv[0], 0, argv[0] == "lift"] for argv in runs]


# set-up as the benchmark times it, then each command, with what it loaded
_IMPORT_SURFACE_SCRIPT = """\
import contextlib, io, json, sys
import latcover.cli
from latcover.presets import dm_lattice
dm_lattice("dm-5-4-1-1-1-6")
dm_lattice("dm-11-7-2-2-2-12")
print(json.dumps([m for m in ("numpy", "mpmath", "latcover.nq2", "hashlib",
                              "latcover.pathlift") if m in sys.modules]))
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = latcover.cli.main(argv)
    print(json.dumps([argv[0], rc] + [m in sys.modules for m in (
        "mpmath", "latcover.nq2", "hashlib")]))
"""


def test_set_up_and_exact_commands_import_neither_mpmath_nor_nq2(tmp_path):
    import json
    import os
    import subprocess
    import sys
    import latcover
    whole = tmp_path / "whole.words"
    whole.write_text("b\nu\nv\n")
    root = _presets_root() / PRESET2
    inputs = [["--preset", PRESET1], ["--preset", PRESET2],
              ["--pres", str(root / "presentation.txt"),
               "--matrices", str(root / "matrices.txt")]]
    env = dict(os.environ,
               PYTHONPATH=str(Path(latcover.__file__).resolve().parents[1]))

    def loaded(runs):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_SURFACE_SCRIPT, json.dumps(runs)],
            env=env, capture_output=True, text=True, check=True, timeout=300)
        lines = [json.loads(line) for line in done.stdout.splitlines()]
        assert lines[0] == []  # after set-up
        return [tuple(line) for line in lines[1:]]

    # the group-theory commands never import mpmath; nq2 loads with the
    # first command that reads a class-2 quotient or a subgroup's invariants,
    # and hashlib only with a certificate
    exact = [[cmd, *lattice, "--subgroup", str(whole)]
             for lattice in inputs for cmd in ("cosets", "subpres")]
    exact += [["cosets", "--preset", PRESET1, "--subgroup", "hirzebruch"],
              ["subpres", "--preset", PRESET1, "--subgroup", "hirzebruch"]]
    quotients = [["abelian", *lattice] for lattice in inputs]
    quotients += [argv for lattice in inputs for argv in (
        ["abelian", *lattice, "--subgroup", str(whole)], ["nq2", *lattice])]
    assert loaded(exact + quotients) == (
        [(argv[0], 0, False, False, False) for argv in exact + quotients[:3]]
        + [(argv[0], 0, False, True, False) for argv in quotients[3:]])
    # the numeric commands import mpmath, and none but certify nq2
    numeric = [["cosets", "--preset", PRESET2, "--subgroup", str(whole)],
               ["verify", "--preset", PRESET1], ["verify", "--preset", PRESET2]]
    numeric += [["lift", *lattice] for lattice in inputs]
    numeric += [["winding", *lattice, "--word", "b^9"] for lattice in inputs]
    assert loaded(numeric + [["certify", "--preset", PRESET1]]) == (
        [("cosets", 0, False, False, False)]
        + [(argv[0], 0, True, False, False) for argv in numeric[1:]]
        + [("certify", 1, True, True, True)])


def test_zero_denominator_in_matrix_file_exits_2(capsys, tmp_path,
                                                 preset1_dir):
    lines = (preset1_dir / "matrices.txt").read_text().splitlines()
    lines[lines.index("matrix b") + 1] = "1/0"  # b's top-left entry
    (tmp_path / "m.txt").write_text("\n".join(lines) + "\n")
    (tmp_path / "p.txt").write_text(
        (preset1_dir / "presentation.txt").read_text())
    rc, out, err = run(capsys, "lift", "--pres", str(tmp_path / "p.txt"),
                       "--matrices", str(tmp_path / "m.txt"))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "zero denominator" in err


def test_no_arguments_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
