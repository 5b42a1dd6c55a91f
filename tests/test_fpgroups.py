import random

import pytest
from hypothesis import given, settings, strategies as st

from latcover.fpgroups import (
    CosetTable,
    EnumerationLimit,
    Presentation,
    Word,
    braid_relator,
    format_word,
    parse_presentation,
    parse_word,
    preimage_subgroup,
    schreier_system,
    serialize_presentation,
    tietze_reduce,
    todd_coxeter,
)


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
    assert table.complete
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
    table_b = todd_coxeter(pres, [b])
    assert table_b.index == 4
    assert not table_b.fixes_all_cosets([b])


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
    for coset, t in enumerate(system.transversal):
        assert table.trace(0, t) == coset
    for word in system.ambient_words:
        assert table.trace(0, word) == 0
    # rewriting the subgroup generator expresses it in Schreier generators,
    # and re-expanding lands on the same group element (regular-action check)
    regular = todd_coxeter(pres, [])
    rewritten = system.rewrite(b)
    expanded = Word()
    for g, e in rewritten.syllables:
        expanded = expanded * system.ambient_words[g] ** e
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


def test_tietze_tracked_words():
    pres = parse_presentation("generators: a b\nb*a^-2\n")
    reduced, tracked = tietze_reduce(pres, tracked=[parse_word("b", pres.gens),
                                                   parse_word("a*b", pres.gens)])
    assert reduced.gens == ["a"]
    assert tracked[0] == Word([(0, 2)])
    assert tracked[1] == Word([(0, 3)])


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


# ---------------------------------------------------------------- preimage


def _lifted_z9():
    # central extension of Z/3 by Z/3: <a, z | a^3 z^-1, [a,z], z^3> = Z/9
    a, z = Word.gen(0), Word.gen(1)
    return Presentation(["a", "z"], [
        a ** 3 * z.inv(),
        a * z * a.inv() * z.inv(),
        z ** 3,
    ])


def test_preimage_of_trivial_subgroup():
    lifted = _lifted_z9()
    gens = preimage_subgroup(lifted, [])
    assert gens == [Word.gen(1)]
    assert todd_coxeter(lifted, gens).index == 3


def test_preimage_of_whole_group():
    lifted = _lifted_z9()
    gens = preimage_subgroup(lifted, [Word.gen(0)])
    assert todd_coxeter(lifted, gens).index == 1


def test_preimage_index_matches_base_index():
    # base A4, lifted trivially by a central z (direct product with Z/2)
    a, b, z = Word.gen(0), Word.gen(1), Word.gen(2)
    base = Presentation(["a", "b"], [
        Word([(0, 2)]), Word([(1, 3)]),
        (Word.gen(0) * Word.gen(1)) ** 3,
    ])
    lifted = Presentation(["a", "b", "z"], [
        Word([(0, 2)]), Word([(1, 3)]),
        (Word.gen(0) * Word.gen(1)) ** 3,
        a * z * a.inv() * z.inv(),
        b * z * b.inv() * z.inv(),
        z ** 2,
    ])
    sub = [b]
    base_index = todd_coxeter(base, sub).index
    lifted_index = todd_coxeter(lifted, preimage_subgroup(lifted, sub)).index
    assert base_index == lifted_index == 4


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


@st.composite
def random_presentation(draw):
    ngens = draw(st.integers(min_value=1, max_value=4))
    nrel = draw(st.integers(min_value=0, max_value=4))
    relators = []
    for _ in range(nrel):
        syl = draw(st.lists(
            st.tuples(st.integers(0, ngens - 1), st.sampled_from([-3, -2, -1, 1, 2, 3])),
            min_size=0, max_size=6))
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
