import os
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from latcover import fpgroups
from latcover.fpgroups import (
    CosetTable,
    EnumerationLimit,
    Presentation,
    Word,
    braid_relator,
    format_word,
    parse_presentation,
    parse_word,
    schreier_system,
    serialize_presentation,
    tietze_reduce,
    todd_coxeter,
)
from latcover.intlinalg import AbelianInvariants, quotient_invariants
from latcover.nq2 import (class2_quotient, subgroup_abelianization,
                          subgroup_class2)
from latcover.pathlift import LiftedPresentation
from latcover.presets import dm_lattice

from helpers_latcover import (ROOT, load_script, reference_tietze_reduce,
                              reference_todd_coxeter)


def w(text, gens):
    return parse_word(text, gens)


# ---------------------------------------------------------------- words


def test_word_free_reduction():
    assert Word([(0, 2), (0, -2)]).is_identity
    assert Word([(0, 1), (1, 1), (1, -1), (0, 1)]) == Word([(0, 2)])
    assert Word([(0, 1), (0, 1), (0, -3)]) == Word([(0, -1)])


def test_word_algebra():
    a, b = Word.gen(0), Word.gen(1)
    word = a * b * a.inv()
    assert word.inv() == a * b.inv() * a.inv()
    assert (word * word.inv()).is_identity
    assert (a * b) ** 2 == a * b * a * b
    assert (a * b) ** -1 == b.inv() * a.inv()
    assert len(a * b ** 3) == 4
    assert (a * b ** 3).exponent_sum(1) == 3
    assert (a * b * a.inv()).exponent_sum(0) == 0


def test_cyclic_reduction():
    word = Word([(0, 1), (1, 2), (0, -1)])
    assert word.cyclically_reduced() == Word([(1, 2)])
    assert Word([(0, 2), (1, 1), (0, -1)]).cyclically_reduced() == Word([(0, 1), (1, 1)])
    assert Word([(0, 3)]).cyclically_reduced() == Word([(0, 3)])


def test_parse_format_word():
    gens = ["b", "u", "v"]
    assert parse_word("b^3*u^-1*v", gens) == Word([(0, 3), (1, -1), (2, 1)])
    assert parse_word("", gens).is_identity
    assert parse_word("1", gens).is_identity
    assert format_word(Word([(0, 3), (1, -1), (2, 1)]), gens) == "b^3*u^-1*v"
    assert format_word(Word(), gens) == "1"
    round_trip = parse_word(format_word(Word([(2, -4), (0, 1)]), gens), gens)
    assert round_trip == Word([(2, -4), (0, 1)])
    with pytest.raises(ValueError):
        parse_word("b*q", gens)
    with pytest.raises(ValueError):
        parse_word("b^x", gens)
    with pytest.raises(ValueError):
        parse_word("b**u", gens)


# ---------------------------------------------------------------- presentations


def test_presentation_parse_serialize():
    text = """
# sample
generators: b u v
b^3
b*u*b^-1*u^-1   # comment after relator
"""
    pres = parse_presentation(text)
    assert pres.gens == ["b", "u", "v"]
    assert pres.relators == [Word([(0, 3)]), Word([(0, 1), (1, 1), (0, -1), (1, -1)])]
    again = parse_presentation(serialize_presentation(pres))
    assert again == pres


def test_presentation_errors():
    with pytest.raises(ValueError):
        parse_presentation("a^2\n")
    with pytest.raises(ValueError):
        parse_presentation("generators:\n")
    with pytest.raises(ValueError):
        Presentation(["a", "a"], [])
    with pytest.raises(ValueError):
        Presentation(["a"], [Word([(1, 1)])])


def test_abelianization():
    pres = parse_presentation("generators: a b\na^2\nb^3\n")
    inv = pres.abelianization()
    assert inv.free_rank == 0
    assert inv.torsion == [6]
    free = parse_presentation("generators: a b\n")
    inv = free.abelianization()
    assert inv.free_rank == 2
    assert inv.torsion == []


# ---------------------------------------------------------------- braid relators


def test_braid_relator_forms():
    gens = ["a", "b"]
    assert format_word(braid_relator(0, 1, 2), gens) == "a*b*a^-1*b^-1"
    assert format_word(braid_relator(0, 1, 3), gens) == "a*b*a*b^-1*a^-1*b^-1"
    assert format_word(braid_relator(0, 1, 4), gens) == "a*b*a*b*a^-1*b^-1*a^-1*b^-1"
    with pytest.raises(ValueError):
        braid_relator(0, 1, 1)


# ---------------------------------------------------------------- Todd-Coxeter


def test_cyclic_five():
    pres = parse_presentation("generators: a\na^5\n")
    table = todd_coxeter(pres, [])
    assert table.index == 5
    assert table.validates(pres, [])
    # standardized form is pinned for determinism
    assert table.table == [[1, 2], [3, 0], [0, 4], [4, 1], [2, 3]]


def test_a4_order_twelve():
    pres = Presentation(["a", "b"], [
        Word([(0, 2)]), Word([(1, 3)]),
        Word([(0, 1), (1, 1)]) ** 3,
    ])
    table = todd_coxeter(pres, [])
    assert table.index == 12
    assert table.validates(pres, [])


def test_dihedral_subgroup_indices():
    for n in (1, 2, 5, 12):
        pres = Presentation(["r", "s"], [
            Word([(0, n)]), Word([(1, 2)]),
            (Word.gen(0) * Word.gen(1)) ** 2,
        ])
        assert todd_coxeter(pres, []).index == 2 * n
        assert todd_coxeter(pres, [Word.gen(0)]).index == 2
        assert todd_coxeter(pres, [Word.gen(1)]).index == n


def test_enumeration_limit():
    free = Presentation(["a", "b"], [])
    with pytest.raises(EnumerationLimit):
        todd_coxeter(free, [], max_cosets=50)


def test_determinism():
    pres = Presentation(["a", "b"], [
        Word([(0, 2)]), Word([(1, 3)]),
        (Word.gen(0) * Word.gen(1)) ** 3,
    ])
    t1 = todd_coxeter(pres, [Word.gen(1)])
    t2 = todd_coxeter(pres, [Word.gen(1)])
    assert t1.table == t2.table


def test_normality_detection():
    pres = Presentation(["a", "b"], [
        Word([(0, 2)]), Word([(1, 3)]),
        (Word.gen(0) * Word.gen(1)) ** 3,
    ])
    a, b = Word.gen(0), Word.gen(1)
    klein = [a, b * a * b.inv()]
    table = todd_coxeter(pres, klein)
    assert table.index == 3
    assert table.fixes_all_cosets(klein)
    assert table.is_normal(klein)
    table_b = todd_coxeter(pres, [b])
    assert table_b.index == 4
    assert not table_b.fixes_all_cosets([b])
    assert not table_b.is_normal([b])


def _finite_group(name):
    a, b = Word.gen(0), Word.gen(1)
    dihedral = {f"D{n}": [a ** n, b ** 2, (a * b) ** 2] for n in (3, 4, 6)}
    relators = {
        **dihedral,
        "A4": [a ** 2, b ** 3, (a * b) ** 3],
        "S4": [a ** 2, b ** 3, (a * b) ** 4],
        # order 168: PSL(2, 7)
        "L2(7)": [a ** 2, b ** 3, (a * b) ** 7,
                  (a * b * a.inv() * b.inv()) ** 4],
    }[name]
    return Presentation(["a", "b"], relators)


FINITE_GROUPS = ["D3", "D4", "D6", "A4", "S4", "L2(7)"]


def test_is_normal_matches_the_all_coset_walk():
    # H = <words> is normal iff every word fixes every coset; is_normal
    # reads only the cosets next to coset 0
    answers = set()

    @given(st.sampled_from(FINITE_GROUPS),
           st.lists(st.lists(st.tuples(st.integers(0, 1),
                                       st.sampled_from([-2, -1, 1, 2, 3])),
                             max_size=6),
                    max_size=3))
    @settings(max_examples=300, deadline=None)
    def check(name, raw_words):
        pres = _finite_group(name)
        words = [Word(raw) for raw in raw_words]
        table = todd_coxeter(pres, words)
        answer = table.fixes_all_cosets(words)
        assert table.is_normal(words) == answer
        answers.add(answer)

    check()
    assert answers == {True, False}


def test_is_normal_identity_word_and_index_one():
    for name in FINITE_GROUPS:
        pres = _finite_group(name)
        trivial = todd_coxeter(pres, [Word()])
        assert trivial.index > 1
        assert trivial.is_normal([Word()]) and trivial.is_normal([])
        whole = [Word.gen(0), Word.gen(1)]
        table = todd_coxeter(pres, whole)
        assert table.index == 1
        assert table.is_normal(whole) and table.fixes_all_cosets(whole)


# ---------------------------------------------------------------- Schreier


def test_index_two_of_cyclic_four():
    pres = parse_presentation("generators: a\na^4\n")
    table = todd_coxeter(pres, [Word([(0, 2)])])
    assert table.index == 2
    sub = schreier_system(table, pres).presentation
    assert len(sub.relators) == 2 * 1
    inv = sub.abelianization()
    assert inv.free_rank == 0
    assert inv.torsion == [2]


def test_free_kernel_rank_three():
    free = Presentation(["a", "b"], [])
    a, b = Word.gen(0), Word.gen(1)
    even = [a * a, a * b, b * a]
    table = todd_coxeter(free, even)
    assert table.index == 2
    sub = schreier_system(table, free).presentation
    assert sub.ngens == 2 * (2 - 1) + 1 == 3
    assert sub.relators == []


def test_schreier_transversal_and_rewriting():
    pres = Presentation(["a", "b"], [
        Word([(0, 2)]), Word([(1, 3)]),
        (Word.gen(0) * Word.gen(1)) ** 3,
    ])
    b = Word.gen(1)
    table = todd_coxeter(pres, [b])
    system = schreier_system(table, pres)
    t = system.transversal
    for coset, word in enumerate(t):
        assert table.trace(0, word) == coset
    # Schreier generator (alpha, g) is t_alpha g t_{alpha.g}^-1; the
    # generators run over the non-tree edges in (alpha, g) order, and the
    # tree edges are exactly those whose word reduces to the identity
    ambient = [t[alpha] * Word.gen(g) * t[table.table[alpha][2 * g]].inv()
               for alpha in range(table.index) for g in range(pres.ngens)]
    ambient = [word for word in ambient if not word.is_identity]
    assert len(ambient) == system.presentation.ngens
    for word in ambient:
        assert table.trace(0, word) == 0
    # rewriting the subgroup generator expresses it in Schreier generators,
    # and re-expanding lands on the same group element (regular-action check)
    regular = todd_coxeter(pres, [])
    rewritten = system.rewrite(b)
    expanded = Word()
    for g, e in rewritten.syllables:
        expanded = expanded * ambient[g] ** e
    for c in range(regular.index):
        assert regular.trace(c, expanded) == regular.trace(c, b)


# ---------------------------------------------------------------- Tietze


def test_tietze_eliminates_generator():
    pres = parse_presentation("generators: a b\nb*a^-2\n")
    reduced = tietze_reduce(pres)
    assert reduced.gens == ["a"]
    assert reduced.relators == []


def test_tietze_fixpoint():
    pres = Presentation(["a", "b"], [
        Word([(0, 2)]), Word([(1, 3)]),
        (Word.gen(0) * Word.gen(1)) ** 3,
    ])
    reduced = tietze_reduce(pres)
    assert reduced == pres


def test_tietze_preserves_group_order():
    pres = Presentation(["a", "b", "c"], [
        Word([(0, 2)]), Word([(1, 3)]),
        (Word.gen(0) * Word.gen(1)) ** 3,
        Word([(2, 1), (0, -1), (1, -1)]),  # c = ba (redundant generator)
    ])
    before = todd_coxeter(pres, []).index
    reduced = tietze_reduce(pres)
    assert reduced.ngens <= 2
    assert todd_coxeter(reduced, []).index == before


def test_tietze_shortens_with_substitution():
    # no generator occurs just once, so only substitution can fire: the
    # second relator starts with the whole first relator as a chunk
    pres = Presentation(["a", "b"], [
        Word([(0, 1), (1, 1), (0, 1), (1, 1)]),
        Word([(0, 1), (1, 1), (0, 1), (1, 3)]),
    ])
    reduced = tietze_reduce(pres)
    assert reduced.ngens == 2
    assert Word([(1, 2)]) in reduced.relators
    assert sum(len(r) for r in reduced.relators) <= 6


def test_tietze_letter_bound_after_a_move(monkeypatch):
    # 13 letters on entry; eliminating a = b^9 turns a^3 into b^27
    pres = parse_presentation("generators: a b\na*b^-9\na^3\n")
    monkeypatch.setattr(fpgroups, "MAX_WORD_LETTERS", 27)
    assert tietze_reduce(pres).relators == [Word([(0, 27)])]
    monkeypatch.setattr(fpgroups, "MAX_WORD_LETTERS", 26)
    with pytest.raises(EnumerationLimit, match="27 letters"):
        tietze_reduce(pres)
    monkeypatch.setattr(fpgroups, "MAX_WORD_LETTERS", 12)
    with pytest.raises(EnumerationLimit, match="13 letters"):
        tietze_reduce(pres)


def test_tietze_sweep_keeps_the_earlier_of_two_equal_relators():
    # eliminating x = a turns the third relator into the inverse of the
    # first: the first survives in its place, and the last keeps its order
    pres = parse_presentation(
        "generators: x a b\na^2*b^2\nx*a^-1\nb^-2*x^-2\na^3*b^-3\n")
    assert tietze_reduce(pres) == Presentation(
        ["a", "b"], [Word([(0, 2), (1, 2)]), Word([(0, 3), (1, -3)])])


def test_tietze_drops_a_relator_a_substitution_cancels():
    # eliminating x = a turns x^2*a^-2 into the identity
    pres = parse_presentation("generators: x a b\nx*a^-1\nx^2*a^-2\nb^3\n")
    assert tietze_reduce(pres) == Presentation(["a", "b"], [Word([(1, 3)])])


def test_tietze_letter_total_after_the_sweep(monkeypatch):
    # 17 letters on entry, 15 once the sweep drops c^-2 (the inverse of
    # c^2); eliminating a = b^9 removes its 10 letters and turns a^3 into
    # b^27, so 29 letters after the move, not 31 (swept c^-2 counted) or
    # 39 (the eliminating relator counted)
    pres = parse_presentation("generators: a b c\na*b^-9\na^3\nc^2\nc^-2\n")
    monkeypatch.setattr(fpgroups, "MAX_WORD_LETTERS", 29)
    assert tietze_reduce(pres) == Presentation(
        ["b", "c"], [Word([(0, 27)]), Word([(1, 2)])])
    monkeypatch.setattr(fpgroups, "MAX_WORD_LETTERS", 28)
    with pytest.raises(EnumerationLimit, match="have 29 letters"):
        tietze_reduce(pres)


@pytest.mark.stretch
def test_tietze_index_6048_kernel_to_fifty_generators(monkeypatch):
    """Opt-in: the Schreier presentation of the index-6048 kernel of
    reduction mod 3 (the benchmark's seed-1 kernel words; 12,097 generators,
    42,336 relators) comes down to at most 50 generators in 12,050 moves.
    Set LATCOVER_STRETCH=1 to run it."""
    if not os.environ.get("LATCOVER_STRETCH"):
        pytest.skip("stretch check not requested (set LATCOVER_STRETCH=1)")
    reference = load_script("perfbench_reference",
                            ROOT / "perfbench" / "reference.py")
    name = "dm-11-7-2-2-2-12"
    files = reference.PresetFiles(ROOT / "src" / "latcover" / "presets" / name)
    pres = dm_lattice(name).presentation
    words = [pres.word(text) for text in
             reference.kernel_words(files, random.Random(1), 300)]
    table = todd_coxeter(pres, words)
    assert table.index == 6048
    monkeypatch.setattr(fpgroups, "TIETZE_STEPS", 12050)
    reduced = tietze_reduce(schreier_system(table, pres).presentation)
    assert reduced.ngens <= 50


# ---------------------------------------------------------------- preimage


def _a4():
    a, b = Word.gen(0), Word.gen(1)
    return [a ** 2, b ** 3, (a * b) ** 3]


# base presentation, central exponents, subgroup words, (index, z order)
PREIMAGE_CASES = {
    # Z/3 lifted to Z/9: a^3 = z and a^3 = z^-2 force z^3 = 1
    "z9-trivial": (Presentation(["a"], [Word.gen(0, 3)] * 2), [-1, 2], [],
                   (3, 3)),
    "z9-whole": (Presentation(["a"], [Word.gen(0, 3)] * 2), [-1, 2],
                 [Word.gen(0)], (1, 3)),
    # A4 x Z/2: a repeated a^2 carries z^2
    "a4xz2-b": (Presentation(["a", "b"], _a4() + [Word.gen(0, 2)]),
                [0, 0, 0, 2], [Word.gen(1)], (4, 2)),
    # A4 lifted by a^2 = b^3 = (ab)^3 = z^-1: order 72, z of order 6
    "a4-lift-b": (Presentation(["a", "b"], _a4()), [1, 1, 1], [Word.gen(1)],
                  (4, 6)),
}


def _preimage_quotient(lp, table):
    """Class-2 quotient of the preimage, in the lifted group, of the
    subgroup the table enumerates, by the Schreier route with central
    exponents."""
    return subgroup_class2(table, lp.base, central=lp.exponents)


def _reference_quotient(lp, words):
    """The same preimage with z as an ordinary generator of the lifted
    presentation: its unreduced Schreier presentation, no elimination and no
    Tietze; returns the index, the quotient and z's image."""
    lifted = lp.to_presentation()
    z = Word.gen(lifted.ngens - 1)
    table = todd_coxeter(lifted, list(words) + [z])
    system = schreier_system(table, lifted)
    ref = class2_quotient(system.presentation)
    return table.index, ref, ref.image(system.rewrite(z))


@pytest.mark.parametrize("case", list(PREIMAGE_CASES))
def test_preimage_presentation_matches_reference(case):
    base, exponents, words, (index, z_order) = PREIMAGE_CASES[case]
    lp = LiftedPresentation(base, exponents)
    table = todd_coxeter(base, words)
    q = _preimage_quotient(lp, table)
    ref_index, ref, ref_z = _reference_quotient(lp, words)
    assert table.index == ref_index == index
    assert q.abelianization == ref.abelianization
    assert q.derived_part == ref.derived_part
    z_image = q.image(Word.gen(q.n - 1))
    assert z_image.order == ref_z.order == z_order


def _whole_group(pres):
    return todd_coxeter(pres, [Word.gen(g) for g in range(pres.ngens)])


def test_subgroup_class2_carries_central_exponents():
    # b*a^-2*z = 1 eliminates b = a^2*z^-1, so b^3 becomes a^6*z^-3
    pres = parse_presentation("generators: a b\nb*a^-2\nb^3\n")
    q = subgroup_class2(_whole_group(pres), pres, central=[1, 0])
    assert q.n == 2
    assert q.relator_images[0].a == (6, -3)
    assert q.abelianization == AbelianInvariants(1, [3])
    assert q.derived_part == AbelianInvariants(0, [])
    assert q.image(Word.gen(1)).order is None
    with pytest.raises(ValueError, match="central exponents"):
        subgroup_class2(_whole_group(pres), pres, central=[1])


def test_subgroup_class2_collapsed_relator_gives_z_finite_order():
    # a*b^-1*z = 1 and a*b^-1*z^-1 = 1 leave z^-2 = 1 once a is eliminated:
    # the second relator collapses to a power of z alone
    pres = parse_presentation("generators: a b\na*b^-1\na*b^-1\n")
    q = subgroup_class2(_whole_group(pres), pres, central=[1, -1])
    assert q.n == 2
    assert [e.a for e in q.relator_images[:1]] == [(0, -2)]
    assert q.image(Word.gen(1)).order == 2
    assert q.abelianization == AbelianInvariants(1, [2])
    assert subgroup_class2(_whole_group(pres), pres).abelianization == \
        AbelianInvariants(1, [])


def test_subgroup_class2_duplicate_and_inverse_relators():
    # a^3*z, a^-3*z^-1 and a^3*z^2: the first two are one relation, the
    # third leaves z = 1 in the group of order 3
    a3 = Word([(0, 3)])
    pres = Presentation(["a"], [a3, a3.inv(), a3])
    table = _whole_group(pres)
    q = subgroup_class2(table, pres, central=[1, -1, 2])
    assert q.image(Word.gen(1)).order == 1
    assert q.abelianization == AbelianInvariants(0, [3])
    # a^3*z and a^-3*z: z^2 = 1, a of order 6
    pres = Presentation(["a"], [a3, a3.inv()])
    q = subgroup_class2(table, pres, central=[1, 1])
    assert q.image(Word.gen(1)).order == 2
    assert q.image(Word.gen(0)).order == 6
    # the subgroup of index 3: a^3 is its one Schreier generator
    table = todd_coxeter(pres, [])
    assert table.index == 3
    q = subgroup_class2(table, pres, central=[1, 1])
    assert q.n == 1 and q.image(Word.gen(0)).order == 2


@st.composite
def lifted_subgroup_case(draw):
    """A small base group, central exponents, and subgroup words."""
    a, b = Word.gen(0), Word.gen(1)
    comm = a.inv() * b.inv() * a * b
    base = draw(st.sampled_from([
        Presentation(["a"], [a ** 6]),
        Presentation(["a", "b"], [a ** 2, b ** 2, (a * b) ** 3]),
        Presentation(["a", "b"], [a ** 2, b ** 3, (a * b) ** 3]),
        Presentation(["a", "b"], [a ** 4, b ** 2, comm]),
        Presentation(["a", "b"], [comm]),
        Presentation(["a", "b"], [a ** 3, b ** 3, (a * b) ** 3]),
    ]))
    exps = draw(st.lists(st.integers(-3, 3), min_size=len(base.relators),
                         max_size=len(base.relators)))
    syllable = st.tuples(st.integers(0, base.ngens - 1),
                         st.sampled_from([-2, -1, 1, 2, 3]))
    words = draw(st.lists(st.lists(syllable, min_size=1, max_size=4)
                          .map(Word), max_size=2))
    # powers of every generator keep the index finite on the infinite bases
    words += [Word.gen(g, draw(st.integers(2, 4))) for g in range(base.ngens)]
    return LiftedPresentation(base, exps), words


@given(lifted_subgroup_case())
@settings(max_examples=200, deadline=None)
def test_subgroup_class2_matches_unreduced_schreier_reference(case):
    lp, words = case
    try:
        table = todd_coxeter(lp.base, words, max_cosets=64)
    except EnumerationLimit:
        table = None
    assume(table is not None and table.index <= 8)
    q = _preimage_quotient(lp, table)
    ref_index, ref, ref_z = _reference_quotient(lp, words)
    assert table.index == ref_index
    assert q.abelianization == ref.abelianization
    assert q.derived_part == ref.derived_part
    assert q.image(Word.gen(q.n - 1)).order == ref_z.order


# ---------------------------------------------------------------- properties


@st.composite
def permutation_subgroup_case(draw):
    nperm = draw(st.integers(min_value=2, max_value=3))
    k = draw(st.integers(min_value=2, max_value=7))
    seed = draw(st.integers(min_value=0, max_value=10 ** 9))
    rng = random.Random(seed)
    perms = []
    for _ in range(nperm):
        p = list(range(k))
        rng.shuffle(p)
        perms.append(p)
    return nperm, perms


def _stabilizer_words_from_permutations(perms):
    """Schreier generators of the stabilizer of 0, computed directly from the
    permutation action (independent of the coset-table code under test)."""
    k = len(perms[0])
    inv_perms = [[0] * k for _ in perms]
    for i, p in enumerate(perms):
        for src, dst in enumerate(p):
            inv_perms[i][dst] = src
    transversal = {0: Word()}
    queue = [0]
    while queue:
        pt = queue.pop(0)
        for i, p in enumerate(perms):
            for image, step in ((p[pt], Word.gen(i)), (inv_perms[i][pt], Word.gen(i, -1))):
                if image not in transversal:
                    transversal[image] = transversal[pt] * step
                    queue.append(image)
    orbit = sorted(transversal)
    words = []
    for pt in orbit:
        for i, p in enumerate(perms):
            words.append(transversal[pt] * Word.gen(i) * transversal[p[pt]].inv())
    return orbit, [word for word in words if not word.is_identity]


@pytest.mark.property_suite
@given(permutation_subgroup_case())
@settings(max_examples=1000, deadline=None)
def test_free_subgroup_enumeration_matches_permutation_orbit(case):
    nperm, perms = case
    orbit, words = _stabilizer_words_from_permutations(perms)
    free = Presentation([f"x{i}" for i in range(nperm)], [])
    table = todd_coxeter(free, words)
    assert table.index == len(orbit)
    assert table.validates(free, words)
    sub = schreier_system(table, free).presentation
    assert sub.ngens == table.index * (nperm - 1) + 1
    assert sub.relators == []


@pytest.mark.property_suite
@given(st.integers(min_value=1, max_value=20),
       st.lists(st.lists(st.tuples(st.integers(0, 1), st.sampled_from([-2, -1, 1, 2])),
                         min_size=0, max_size=5),
                min_size=0, max_size=3))
@settings(max_examples=1000, deadline=None)
def test_dihedral_table_validity_with_random_subgroups(n, raw_words):
    pres = Presentation(["r", "s"], [
        Word([(0, n)]), Word([(1, 2)]),
        (Word.gen(0) * Word.gen(1)) ** 2,
    ])
    sub = [Word(raw) for raw in raw_words]
    table = todd_coxeter(pres, sub)
    assert table.validates(pres, sub)
    assert (2 * n) % table.index == 0
    # standardized: cosets 1, 2, ... first appear in order in a row-major scan
    scan = [0] + [c for row in table.table for c in row]
    assert list(dict.fromkeys(scan)) == list(range(table.index))


@st.composite
def random_presentation(draw, max_gens=4, max_relators=4, max_syllables=6):
    ngens = draw(st.integers(min_value=1, max_value=max_gens))
    nrel = draw(st.integers(min_value=0, max_value=max_relators))
    relators = []
    for _ in range(nrel):
        syl = draw(st.lists(
            st.tuples(st.integers(0, ngens - 1), st.sampled_from([-3, -2, -1, 1, 2, 3])),
            min_size=0, max_size=max_syllables))
        relators.append(Word(syl))
    return Presentation([f"g{i}" for i in range(ngens)], relators)


@pytest.mark.property_suite
@given(random_presentation())
@settings(max_examples=1000, deadline=None)
def test_tietze_preserves_abelianization(pres):
    before = pres.abelianization()
    reduced = tietze_reduce(pres)
    after = reduced.abelianization()
    assert (before.free_rank, before.torsion) == (after.free_rank, after.torsion)
    assert reduced.ngens <= pres.ngens


@pytest.mark.parametrize("steps", [1, 2, 5, None])
@given(random_presentation(max_gens=5, max_relators=8, max_syllables=10))
@settings(max_examples=250, deadline=None)
def test_tietze_moves_match_reference(steps, pres):
    # the slot index and lazy heap must make the moves of the engine that
    # rebuilds and rescans every relator after every move, up to any step
    # limit
    with pytest.MonkeyPatch.context() as mp:
        if steps is not None:
            mp.setattr(fpgroups, "TIETZE_STEPS", steps)
        assert (tietze_reduce(pres)
                == reference_tietze_reduce(pres, fpgroups.TIETZE_STEPS))


@st.composite
def presentation_with_repeats(draw):
    """Up to 20 generators and 40 relators, some of them rotated or
    inverted copies of others, placed anywhere in the list."""
    pres = draw(random_presentation(max_gens=20, max_relators=30,
                                    max_syllables=10))
    rels = list(pres.relators)
    copies = st.tuples(st.integers(0, 29), st.integers(0, 9), st.booleans(),
                       st.integers(0, 40))
    for pick, turn, invert, at in draw(st.lists(copies, max_size=10)):
        if not rels:
            break
        syl = rels[pick % len(rels)].syllables
        turn %= len(syl) + 1
        copy = Word(syl[turn:] + syl[:turn])
        rels.insert(at % (len(rels) + 1), copy.inv() if invert else copy)
    return Presentation(pres.gens, rels)


def test_tietze_moves_match_reference_at_scale():
    # one move here can touch many relators, settle repeats and leave stale
    # heap entries; a letter bound at most 20,000 above the given relators
    # stops random growth, often within a move or two, and checks the
    # running letter total against the reference's full sum: the same
    # result or the same EnumerationLimit message, at step limits 1, 2, 5
    # and the default, and both outcomes must occur
    outcomes = set()

    @given(presentation_with_repeats(),
           st.integers(0, 40) | st.integers(0, 20000),
           st.sampled_from([1, 2, 5, None]))
    @settings(max_examples=300, deadline=None)
    def check(pres, slack, steps):
        results = []
        with pytest.MonkeyPatch.context() as mp:
            if steps is not None:
                mp.setattr(fpgroups, "TIETZE_STEPS", steps)
            mp.setattr(fpgroups, "MAX_WORD_LETTERS",
                       sum(len(r) for r in pres.relators) + slack)
            for reduce in (tietze_reduce, lambda p: reference_tietze_reduce(
                    p, fpgroups.TIETZE_STEPS)):
                try:
                    results.append(reduce(pres))
                except EnumerationLimit as exc:
                    results.append(str(exc))
        assert results[0] == results[1]
        outcomes.add(type(results[0]))

    check()
    assert outcomes == {Presentation, str}


@st.composite
def enumeration_case(draw):
    pres = draw(st.one_of(
        random_presentation(max_gens=3, max_relators=5, max_syllables=6),
        st.sampled_from(FINITE_GROUPS).map(_finite_group)))
    words = [Word(syl) for syl in draw(st.lists(st.lists(
        st.tuples(st.integers(0, pres.ngens - 1),
                  st.sampled_from([-2, -1, 1, 2])), max_size=4), max_size=3))]
    # a small limit, or one that only infinite enumerations reach
    limit = draw(st.one_of(st.integers(min_value=1, max_value=60),
                           st.just(2000)))
    return pres, words, limit


def test_todd_coxeter_matches_reference():
    # the paired forward/backward columns, liveness read from the
    # union-find parent and the sparse rep calls must keep every definition
    # and coincidence of the reference engine, so the tables and the
    # limit's hits agree
    outcomes = set()

    @given(enumeration_case())
    @settings(max_examples=400, deadline=None)
    def check(case):
        pres, words, limit = case
        results = []
        for engine in (todd_coxeter, reference_todd_coxeter):
            try:
                results.append(engine(pres, words, max_cosets=limit).table)
            except EnumerationLimit as exc:
                results.append(str(exc))
        assert results[0] == results[1]
        outcomes.add(isinstance(results[0], str))

    check()
    assert outcomes == {True, False}


def _central_abelianization(pres, exps):
    """Abelianization of <gens, z | relator_i * z^k_i, z central>."""
    rows = [[r.exponent_sum(g) for g in range(pres.ngens)] + [k]
            for r, k in zip(pres.relators, exps)]
    return quotient_invariants(pres.ngens + 1, rows)


@given(random_presentation(), st.data())
@settings(max_examples=200, deadline=None)
def test_subgroup_routes_match_extension_abelianization(pres, data):
    n = len(pres.relators)
    exps = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    table = _whole_group(pres)
    q = subgroup_class2(table, pres, central=exps)
    assert q.abelianization == _central_abelianization(pres, exps)
    assert subgroup_abelianization(table, pres) == pres.abelianization()
    assert (subgroup_class2(table, pres).abelianization
            == pres.abelianization())


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_schreier_abelianization_of_cyclic_subgroup(n, d):
    # subgroup <a^d> of Z/n has order n/gcd(n,d): cyclic of that order
    import math
    pres = Presentation(["a"], [Word([(0, n)])])
    table = todd_coxeter(pres, [Word([(0, d)])])
    g = math.gcd(n, d)
    assert table.index == g
    sub = schreier_system(table, pres).presentation
    inv = sub.abelianization()
    order = n // g
    assert inv.free_rank == 0
    expected = [order] if order > 1 else []
    assert inv.torsion == expected
