"""Class-2 collection arithmetic, quotient invariants against an enumeration
oracle, image orders, and residual-finiteness certificates."""

import random

from hypothesis import given, settings, strategies as st

import pytest

from latcover.fpgroups import (Presentation, Word, parse_presentation,
                               schreier_system, todd_coxeter)
from latcover.intlinalg import AbelianInvariants, saturation_order
from latcover.nq2 import (NQ2, Certificate, ClassTwoElement, NQ2Image,
                          _unit_elimination, class2_quotient, rf_certificate,
                          wedge_offsets, wedge_size)
from latcover.pathlift import LiftedPresentation
from latcover.presets import dm_lattice

from helpers_latcover import (TransformNQ2, picard_lattice,
                              picard_presentation, raw_lift,
                              reference_unit_elimination, relation_rows)


def words(n, max_syllables=6, max_exp=3):
    syllable = st.tuples(st.integers(0, n - 1),
                         st.integers(-max_exp, max_exp))
    return st.lists(syllable, max_size=max_syllables).map(Word)


# ---------------------------------------------------------------- collection

def test_identity_and_single_letter():
    e = ClassTwoElement.identity(3)
    assert e.a == (0, 0, 0) and e.m == (0, 0, 0)
    x = ClassTwoElement.from_word(3, Word.gen(1))
    assert x.a == (0, 1, 0) and x.m == (0, 0, 0)


def test_commutator_convention():
    # [x0, x1] = x0^-1 x1^-1 x0 x1 collects to the pair coordinate (0,1)
    w = Word([(0, -1), (1, -1), (0, 1), (1, 1)])
    elt = ClassTwoElement.from_word(2, w)
    assert elt.a == (0, 0)
    assert elt.m == (1,)


def test_wedge_indexing_on_outer_pair():
    w = Word([(0, -1), (2, -1), (0, 1), (2, 1)])
    elt = ClassTwoElement.from_word(3, w)
    assert elt.a == (0, 0, 0)
    # pair order for n=3 is (0,1), (0,2), (1,2)
    assert elt.m == (0, 1, 0)
    assert wedge_offsets(3) == [0, 2, 3]
    assert wedge_size(3) == 3


def test_inverse_and_power():
    elt = ClassTwoElement.from_word(3, Word([(0, 2), (1, -1), (2, 3), (0, 1)]))
    assert elt * elt.inv() == ClassTwoElement.identity(3)
    assert elt * elt * elt == elt ** 3
    assert elt ** -2 == (elt.inv()) ** 2
    assert elt ** 0 == ClassTwoElement.identity(3)


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError, match="rank"):
        ClassTwoElement.identity(2) * ClassTwoElement.identity(3)
    with pytest.raises(ValueError, match="outside rank"):
        ClassTwoElement.from_word(2, Word.gen(5))


@pytest.mark.property_suite
@settings(max_examples=1000, deadline=None)
@given(w1=words(4), w2=words(4))
def test_collection_is_a_homomorphism(w1, w2):
    left = ClassTwoElement.from_word(4, w1) * ClassTwoElement.from_word(4, w2)
    assert left == ClassTwoElement.from_word(4, w1 * w2)


@settings(max_examples=300, deadline=None)
@given(w=words(3), k=st.integers(-6, 6))
def test_power_matches_repeated_multiplication(w, k):
    elt = ClassTwoElement.from_word(3, w)
    expected = ClassTwoElement.identity(3)
    step = elt if k >= 0 else elt.inv()
    for _ in range(abs(k)):
        expected = expected * step
    assert elt ** k == expected


@settings(max_examples=300, deadline=None)
@given(w1=words(3), w2=words(3), k=st.integers(-6, 6))
def test_times_power_is_one_collection_of_the_product(w1, w2, k):
    # the Euclid steps of NQ2 collect x * y^k as one word
    x, y = ClassTwoElement.from_word(3, w1), ClassTwoElement.from_word(3, w2)
    assert x.times_power(y, k) == x * y ** k
    assert x.times_power(y, k) == ClassTwoElement.from_word(3, w1 * w2 ** k)


# ------------------------------------------------------- quotient invariants

def test_free_rank_two_is_heisenberg():
    q = class2_quotient(Presentation(["a", "b"], []))
    assert q.abelianization == AbelianInvariants(2, [])
    assert q.derived_part == AbelianInvariants(1, [])


def test_abelian_presentation_kills_derived_part():
    pres = parse_presentation("generators: a b\na*b*a^-1*b^-1\n")
    q = class2_quotient(pres)
    assert q.abelianization == AbelianInvariants(2, [])
    assert q.derived_part == AbelianInvariants(0, [])


def test_single_relator_with_coprime_wedges():
    pres = parse_presentation("generators: a b\na^2*b^-3\n")
    q = class2_quotient(pres)
    assert q.abelianization == AbelianInvariants(1, [])
    assert q.derived_part == AbelianInvariants(0, [])


def test_mutually_inverse_relators_add_no_relations():
    # the two relators multiply to the identity of the free class-2 group;
    # a row-lattice shortcut would wrongly kill a free factor of the center
    pres = parse_presentation("generators: a b c\na*b*c\nc^-1*b^-1*a^-1\n")
    q = class2_quotient(pres)
    assert q.abelianization == AbelianInvariants(2, [])
    assert q.derived_part == AbelianInvariants(1, [])


def test_heisenberg_mod_three_invariants():
    pres = _heisenberg_presentation(3)
    q = class2_quotient(pres)
    assert q.abelianization == AbelianInvariants(0, [3, 3])
    assert q.derived_part == AbelianInvariants(0, [3])


def test_relation_rows_shape():
    pres = parse_presentation("generators: a b\na^2*b^-3\n")
    q = class2_quotient(pres)
    rows = relation_rows(q)
    assert all(len(row) == 2 + 1 for row in rows)
    assert rows[0][:2] == [2, -3]
    assert len(rows) == 1 + len(q.center_basis)


# ----------------------------------------------------------------- orders

def _maps_to_identity(q, elt):
    residue = q._central_residue(elt)
    return (residue is not None
            and saturation_order(residue, q.center_basis) == 1)


def test_identity_image_order_one():
    q = class2_quotient(Presentation(["a", "b"], []))
    img = q.image(Word())
    assert img == NQ2Image((0, 0), (0,), 1)


def test_free_commutator_has_infinite_order():
    q = class2_quotient(Presentation(["a", "b"], []))
    img = q.image(Word([(0, -1), (1, -1), (0, 1), (1, 1)]))
    assert img.a == (0, 0) and img.m == (1,)
    assert img.order is None


def test_heisenberg_mod_three_orders():
    q = class2_quotient(_heisenberg_presentation(3))
    assert q.image(Word.gen(0)).order == 3
    assert q.image(Word.gen(0) * Word.gen(1)).order == 3
    commutator = Word([(0, -1), (1, -1), (0, 1), (1, 1)])
    assert q.image(commutator).order == 3


def test_infinite_order_in_abelianization():
    pres = parse_presentation("generators: a b\na^2*b^-3\n")
    q = class2_quotient(pres)
    assert q.image(Word.gen(0)).order is None
    assert q.abelian_order([1, 0]) is None


def test_large_cyclic_order_against_search_bound():
    pres = parse_presentation("generators: a\na^837\n")
    q = class2_quotient(pres)
    gen = ClassTwoElement.from_word(1, Word.gen(0))
    assert q.order_of(gen) == 837
    hits = [k for k in range(1, 1001) if _maps_to_identity(q, gen ** k)]
    assert hits == [837]


@settings(max_examples=60, deadline=None)
@given(rels=st.lists(words(2, max_syllables=4, max_exp=3), max_size=3),
       query=words(2, max_syllables=3, max_exp=2))
def test_order_agrees_with_direct_power_search(rels, query):
    q = class2_quotient(Presentation(["a", "b"], rels))
    elt = ClassTwoElement.from_word(2, query)
    order = q.order_of(elt)
    found = next((k for k in range(1, 201)
                  if _maps_to_identity(q, elt ** k)), None)
    if found is not None:
        assert order == found
    else:
        assert order is None or order > 200


@st.composite
def presentations_with_query(draw):
    """Relators mix plain words, commutators and powers, so that many
    presentations leave central remainders outside the pivots' wedges."""
    n = draw(st.integers(1, 4))
    word = words(n, max_syllables=4, max_exp=3)
    relator = st.one_of(
        word,
        st.tuples(word, word).map(
            lambda uv: uv[0].inv() * uv[1].inv() * uv[0] * uv[1]),
        st.tuples(word, st.integers(2, 4)).map(lambda wk: wk[0] ** wk[1]))
    rels = draw(st.lists(relator, max_size=5))
    return n, rels, draw(word)


@settings(max_examples=200, deadline=None)
@given(presentations_with_query())
def test_echelon_matches_hnf_transform_reference(case):
    n, rels, query = case
    images = [ClassTwoElement.from_word(n, rel) for rel in rels]
    q = NQ2(n, images)
    ref = TransformNQ2(n, images)
    assert q.abelianization == ref.abelianization
    assert q.derived_part == ref.derived_part
    assert q.center_basis == ref.center_basis
    elt = ClassTwoElement.from_word(n, query)
    assert q.order_of(elt) == ref.order_of(elt)
    d1 = q.abelian_order(elt.a)
    checks = [elt] + ([elt ** d1] if d1 is not None else [])
    for x in checks:
        mine, theirs = q._central_residue(x), ref.central_residue(x)
        assert (mine is None) == (theirs is None)
        if mine is not None:
            diff = [a - b for a, b in zip(mine, theirs)]
            assert saturation_order(diff, q.center_basis) == 1
    if d1 is not None:
        assert mine is not None


# ------------------------------------------- oracle: enumerated finite groups

def _heisenberg_presentation(p):
    pres = Presentation(["a", "b"], [])
    a, b = Word.gen(0), Word.gen(1)
    c = a.inv() * b.inv() * a * b
    return Presentation(["a", "b"], [
        a ** p, b ** p, c ** p,
        c.inv() * a.inv() * c * a,
        c.inv() * b.inv() * c * b,
    ])


def _sl23_presentation():
    return parse_presentation(
        "generators: a b\na^3*b^-3\na^3*b^-1*a^-1*b^-1*a^-1\n")


def _mult_table(pres):
    table = todd_coxeter(pres, (), max_cosets=20000)
    system = schreier_system(table, pres)
    size = table.index
    return [[table.trace(c, system.transversal[d]) for d in range(size)]
            for c in range(size)]


def _inverses(mult):
    return [mult[c].index(0) for c in range(len(mult))]


def _closure(mult, gens):
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for g in gens:
            y = mult[x][g]
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def _commutator(mult, inv, a, b):
    return mult[mult[mult[inv[a]][inv[b]]][a]][b]


def _prime_factors(n):
    out, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


def _plog(p, value):
    s = 0
    while value > 1:
        assert value % p == 0
        value //= p
        s += 1
    return s


def _section_invariants(mult, inv, top, bottom):
    """Invariant factors of the abelian section top/bottom, by counting
    solution sets of x^d = 1 (no matrix algebra involved)."""
    rep = {}
    for x in sorted(top):
        if x in rep:
            continue
        coset = {mult[x][b] for b in bottom}
        canon = min(coset)
        for y in coset:
            rep[y] = canon
    elems = sorted(set(rep.values()))
    ident = rep[min(bottom)]

    def qmult(x, y):
        return rep[mult[x][y]]

    orders = []
    for x in elems:
        k, y = 1, x
        while y != ident:
            y = qmult(y, x)
            k += 1
        orders.append(k)
    partitions = {}
    for p in sorted({f for o in orders for f in _prime_factors(o)}):
        counts = []
        previous = 0
        k = 1
        while True:
            s_k = _plog(p, sum(1 for o in orders if p ** k % o == 0))
            if s_k == previous:
                break
            counts.append(s_k - previous)
            previous = s_k
            k += 1
        partitions[p] = [sum(1 for c in counts if c >= i)
                         for i in range(1, counts[0] + 1)]
    width = max((len(lam) for lam in partitions.values()), default=0)
    descending = []
    for j in range(width):
        f = 1
        for p, lam in partitions.items():
            if j < len(lam):
                f *= p ** lam[j]
        descending.append(f)
    return [f for f in reversed(descending) if f > 1]


def _invariants_from_mult(mult):
    inv = _inverses(mult)
    size = len(mult)
    everyone = range(size)
    gamma2 = _closure(mult, {_commutator(mult, inv, a, b)
                             for a in everyone for b in everyone})
    gamma3 = _closure(mult, {_commutator(mult, inv, c, g)
                             for c in gamma2 for g in everyone})
    ab = _section_invariants(mult, inv, set(everyone), gamma2)
    derived = _section_invariants(mult, inv, gamma2, gamma3)
    return ab, derived


def _enumerated_class2_invariants(pres):
    return _invariants_from_mult(_mult_table(pres))


def _cayley(pres, max_cosets=50000):
    """Full multiplication table, one generator step per entry: each element
    e first appears as d*g for an earlier d, so column e is column d stepped
    by g."""
    table = todd_coxeter(pres, (), max_cosets=max_cosets)
    size = table.index
    steps = ([Word.gen(g) for g in range(pres.ngens)]
             + [Word.gen(g, -1) for g in range(pres.ngens)])
    mult = [[None] * size for _ in range(size)]
    for x in range(size):
        mult[x][0] = x
    defined = {0: None}
    queue = [0]
    bfs_order = [0]
    while queue:
        d = queue.pop(0)
        for w in steps:
            e = table.trace(d, w)
            if e not in defined:
                defined[e] = (d, w)
                bfs_order.append(e)
                queue.append(e)
    for e in bfs_order[1:]:
        d, w = defined[e]
        for x in range(size):
            mult[x][e] = table.trace(mult[x][d], w)
    return mult


FINITE_ORACLE_CASES = [
    ("s3", "generators: a b\na^2\nb^3\na*b*a*b\n", 6),
    ("d4", "generators: r s\nr^4\ns^2\ns*r*s*r\n", 8),
    ("q8", "generators: a b\na^4\na^2*b^-2\nb^-1*a*b*a\n", 8),
    ("z4xz2", "generators: a b\na^4\nb^2\na*b*a^-1*b^-1\n", 8),
    ("sl23", None, 24),
    ("heis3", None, 27),
    ("heis4", None, 64),
]


@pytest.mark.parametrize("name,text,order", FINITE_ORACLE_CASES,
                         ids=[c[0] for c in FINITE_ORACLE_CASES])
def test_invariants_match_enumeration_oracle(name, text, order):
    if name == "sl23":
        pres = _sl23_presentation()
    elif name == "heis3":
        pres = _heisenberg_presentation(3)
    elif name == "heis4":
        pres = _heisenberg_presentation(4)
    else:
        pres = parse_presentation(text)
    assert todd_coxeter(pres, ()).index == order
    ab_factors, derived_factors = _enumerated_class2_invariants(pres)
    q = class2_quotient(pres)
    assert q.abelianization == AbelianInvariants(0, ab_factors)
    assert q.derived_part == AbelianInvariants(0, derived_factors)


def _metacyclic(p, q, t):
    a, b = Word.gen(0), Word.gen(1)
    return Presentation(["a", "b"], [a ** p, b ** q,
                                     b.inv() * a * b * a ** (-t)])


def _random_finite_presentation(rng):
    """A finite group of order <= 512 with its order, as a presentation whose
    words have been scrambled by group-preserving rewrites."""
    a, b = Word.gen(0), Word.gen(1)
    comm = a.inv() * b.inv() * a * b
    roll = rng.random()
    if roll < 0.005:
        pres, order = rng.choice([
            (Presentation(["a"], [a ** 512]), 512),
            (Presentation(["r", "s"], [a ** 256, b ** 2,
                                       (a * b) ** 2]), 512),
            (Presentation(["a", "b"], [a ** 16, b ** 16, comm]), 256),
            (_heisenberg_presentation(5), 125),
        ])
    elif roll < 0.2:
        m = rng.randint(1, 32)
        pres, order = Presentation(["a"], [a ** m]), m
    elif roll < 0.4:
        x, y = rng.randint(1, 12), rng.randint(1, 12)
        pres, order = Presentation(["a", "b"],
                                   [a ** x, b ** y, comm]), x * y
    elif roll < 0.6:
        m = rng.randint(1, 16)
        pres, order = Presentation(["r", "s"],
                                   [a ** m, b ** 2, (a * b) ** 2]), 2 * m
    elif roll < 0.75:
        m = rng.randint(1, 8)
        pres = Presentation(["a", "b"],
                            [a ** (2 * m), a ** m * b ** -2,
                             b.inv() * a * b * a])
        order = 4 * m
    elif roll < 0.85:
        p = rng.choice([2, 3, 4])
        pres, order = _heisenberg_presentation(p), p ** 3
    elif roll < 0.95:
        p, q, t = rng.choice([(7, 3, 2), (5, 4, 2), (13, 3, 3),
                              (7, 6, 3), (9, 3, 4), (11, 5, 3)])
        pres, order = _metacyclic(p, q, t), p * q
    else:
        pres, order = _sl23_presentation(), 24

    def scramble_word(maxlen):
        return Word([(rng.randrange(pres.ngens), rng.choice([-1, 1]))
                     for _ in range(rng.randint(0, maxlen))])

    relators = []
    for rel in pres.relators:
        if rng.random() < 0.4:
            rel = rel.inv()
        w = scramble_word(2)
        relators.append(w * rel * w.inv())
    if len(relators) >= 2 and rng.random() < 0.3:
        i, j = rng.randrange(len(relators)), rng.randrange(len(relators))
        relators.append(relators[i] * relators[j])
    rng.shuffle(relators)
    return Presentation(pres.gens, relators), order


RANDOM_GROUPS = 1000


@pytest.mark.property_suite(cases=RANDOM_GROUPS)
def test_invariants_match_enumeration_on_random_finite_groups():
    rng = random.Random(97)
    for _ in range(RANDOM_GROUPS):
        pres, order = _random_finite_presentation(rng)
        mult = _cayley(pres)
        assert len(mult) == order
        ab_factors, derived_factors = _invariants_from_mult(mult)
        q = class2_quotient(pres)
        assert q.abelianization == AbelianInvariants(0, ab_factors)
        assert q.derived_part == AbelianInvariants(0, derived_factors)


def test_nq2_rejects_oversized_presentation(monkeypatch):
    import latcover.nq2 as nq2
    monkeypatch.setattr(nq2, "MAX_WEDGE_SIZE", wedge_size(4))
    assert class2_quotient(Presentation(list("abcd"), [])).n == 4
    with pytest.raises(ValueError, match="over the limit"):
        class2_quotient(Presentation(list("abcde"), []))


def test_nq2_limit_admits_stretch_sizes():
    # the stretch check's Z^14 abelianization needs 14 generators, plus z
    from latcover.nq2 import MAX_WEDGE_SIZE
    assert wedge_size(15) <= MAX_WEDGE_SIZE


# --------------------------------------------------- lifted presentations

def test_lifted_relators_and_centrality():
    lp = raw_lift(picard_lattice(picard_presentation(6)))
    lifted = lp.to_presentation()
    q = class2_quotient(lifted)
    for rel in lifted.relators:
        assert q.image(rel).order == 1
    z = Word.gen(lifted.ngens - 1)
    for g in range(lifted.ngens - 1):
        gw = Word.gen(g)
        commutator = z.inv() * gw.inv() * z * gw
        assert q.image(commutator).order == 1
        assert q.image((z ** 2).inv() * gw.inv() * z ** 2 * gw).order == 1


def test_whole_group_certificate_is_inconclusive_for_picard():
    lp = raw_lift(picard_lattice(picard_presentation(6)))
    cert = rf_certificate(lp)
    assert cert.verdict == "INCONCLUSIVE"
    assert cert.z_image.order == 1
    assert cert.abelianization == AbelianInvariants(0, [3, 3])
    assert cert.derived_part == AbelianInvariants(0, [])


def test_z_order_is_regauge_invariant():
    base = picard_presentation(6)
    raw = LiftedPresentation(base, [1, 1, -5, 0, 0, 0, 0])
    normalized = LiftedPresentation(base, [1, 1, 1, 0, 0, 0, 3])
    orders = []
    for lp in (raw, normalized):
        lifted = lp.to_presentation()
        q = class2_quotient(lifted)
        orders.append(q.image(Word.gen(lifted.ngens - 1)).order)
    assert orders[0] == orders[1]


# ------------------------------------------- derived rank growth (epsilon)

def test_epsilon_direct_product_is_zero():
    # a free central z adds no free rank to the derived part
    base = Presentation(["a", "b"], [])
    lifted = LiftedPresentation(base, []).to_presentation()
    assert (class2_quotient(lifted).derived_part.free_rank
            == class2_quotient(base).derived_part.free_rank)


# ------------------------------------------------------------ certificates

def test_certificate_whole_group_success():
    lp = LiftedPresentation(Presentation(["a", "b"], []), [])
    cert = rf_certificate(lp)
    assert cert.success and cert.verdict == "INFINITE_ORDER"
    assert cert.index == 1 and cert.subgroup is None
    assert cert.z_location == "abelianization"
    report = cert.report()
    assert "subgroup: whole group" in report
    assert "z order: infinite (in the abelianization)" in report
    assert "verdict: INFINITE_ORDER" in report
    assert report == rf_certificate(lp).report()


def test_certificate_subgroup_pipeline():
    lp = LiftedPresentation(Presentation(["a"], []), [])
    cert = rf_certificate(lp, [Word.gen(0, 2)])
    assert cert.index == 2
    assert cert.subgroup == ("a^2",)
    assert cert.success
    assert "subgroup words (over the base generators): 1" in cert.report()
    assert "  a^2" in cert.report()
    whole = rf_certificate(lp)
    assert whole.input_hash != cert.input_hash


def test_certificate_inconclusive_on_torsion_center():
    base = Presentation(["a"], [Word.gen(0, 3), Word.gen(0, 3)])
    lp = LiftedPresentation(base, [1, -2])
    cert = rf_certificate(lp)
    assert not cert.success and cert.verdict == "INCONCLUSIVE"
    assert cert.z_image.order == 3
    assert cert.z_location is None
    report = cert.report()
    assert "z order: 3" in report
    assert "verdict: INCONCLUSIVE" in report
    assert "decides nothing" in report


def test_certificate_validates_verdict():
    img = NQ2Image((0,), (), 1)
    with pytest.raises(ValueError, match="verdict"):
        Certificate("0" * 16, None, 1, AbelianInvariants(1, []),
                    AbelianInvariants(0, []), img, None, "MAYBE")


# ------------------------------------------------------ unit elimination

def _check_unit_elimination_on_schreier_rows(lattice, subgroup, with_z):
    table = todd_coxeter(lattice.presentation, subgroup)
    schreier = schreier_system(table, lattice.presentation).presentation
    words = [rel.syllables for rel in schreier.relators]
    frozen = None
    if with_z:
        frozen = schreier.ngens
        exponents = lattice.lift().exponents * table.index
        words = [w + ((frozen, k),) for w, k in zip(words, exponents)]
    rows = []
    for word in words:
        row = {}
        for g, e in word:
            row[g] = row.get(g, 0) + e
        rows.append({g: e for g, e in row.items() if e})
    expected_rows = [dict(row) for row in rows]
    expected = reference_unit_elimination(expected_rows, frozen)
    assert _unit_elimination(rows, frozen) == expected
    assert rows == expected_rows


@pytest.mark.parametrize("with_z", [False, True], ids=["base", "central"])
def test_unit_elimination_matches_reference_on_hirzebruch_rows(with_z):
    lattice = dm_lattice("dm-5-4-1-1-1-6")
    _check_unit_elimination_on_schreier_rows(
        lattice, lattice.subgroup_words("hirzebruch"), with_z)


@pytest.mark.parametrize("with_z", [False, True], ids=["base", "central"])
@pytest.mark.parametrize("preset", ["dm-5-4-1-1-1-6", "dm-11-7-2-2-2-12"])
def test_unit_elimination_matches_reference_on_whole_group_rows(preset,
                                                                with_z):
    lattice = dm_lattice(preset)
    _check_unit_elimination_on_schreier_rows(
        lattice, [Word.gen(g) for g in range(lattice.presentation.ngens)],
        with_z)

