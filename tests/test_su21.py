import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from latcover.exactnum import CycloElt, embed_complex, zeta
from latcover.pathlift import (
    IwasawaCoords,
    Z0,
    homog_project,
    iwasawa,
    standard_form_conjugator,
    unitarity_residual,
)
from latcover.presets import (Lattice, WordProducts, central_power,
                              dm_lattice)
from latcover.su21 import (
    DEFAULT_EMBED_BITS,
    GroupMatrix,
    HermitianForm,
    _numeric_from_exact,
    _sign,
    check_unitary,
    parse_matrix_file,
    scale_to_su,
)

from helpers_latcover import picard_presentation, serialize_matrix_file


def _c(x):
    return CycloElt.rational(x, 1) if not isinstance(x, CycloElt) else x


def _mat(rows):
    return tuple(tuple(_c(x) for x in row) for row in rows)


def picard_generators():
    """The first worked example's unscaled generators over conductor 6."""
    form = HermitianForm.standard()
    s = 2 * zeta(6) - 1            # sqrt(-3)
    c = (2 * zeta(6) - 1) / 3      # -1/sqrt(-3)
    b0 = GroupMatrix(form, _mat([
        [1, 0, c],
        [0, zeta(6, 5), 0],
        [s, 0, 0],
    ]))
    u0 = GroupMatrix(form, _mat([
        [zeta(6, 5), 0, 0],
        [s, zeta(6), 0],
        [s, s, zeta(6, 5)],
    ]))
    v0 = GroupMatrix(form, _mat([
        [zeta(6), 0, 0],
        [0, zeta(3), 0],
        [0, 0, zeta(6)],
    ]))
    return form, b0, u0, v0


# ---------------------------------------------------------------- forms


def test_standard_form():
    form = HermitianForm.standard()
    assert form.is_standard
    assert np.allclose(form.numeric, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])


def test_form_rejects_non_hermitian():
    with pytest.raises(ValueError):
        HermitianForm(_mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))


def test_form_rejects_wrong_signature():
    with pytest.raises(ValueError, match="signature"):
        HermitianForm(_mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    # negative definite, det and trace negative: the sum of the diagonal
    # cofactors (102) decides, and an off-diagonal one in its place would not
    with pytest.raises(ValueError, match="signature"):
        HermitianForm(_mat([[-9, -4, 1], [-4, -9, -4], [1, -4, -3]]))


def _cyclo(n, coeffs):
    out = CycloElt.zero(n)
    for k, c in enumerate(coeffs):
        out = out + zeta(n, k) * c
    return out


def _hermitian(n, diag, offs):
    """Diagonal integers, then the entries (0,1), (0,2), (1,2) as integer
    combinations of the powers of zeta_n, mirrored conjugated below."""
    entries = [[CycloElt.rational(d) if i == j else None
                for j, d in enumerate(diag)] for i in range(3)]
    for (i, j), coeffs in zip(((0, 1), (0, 2), (1, 2)), offs):
        entries[i][j] = _cyclo(n, coeffs)
        entries[j][i] = entries[i][j].conjugate()
    return tuple(tuple(row) for row in entries)


_forms = st.sampled_from([1, 3, 4, 6, 12]).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(-4, 4), min_size=3, max_size=3),
    st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
             min_size=3, max_size=3)))


@settings(max_examples=300, deadline=None)
@given(_forms)
def test_exact_signature_matches_numeric_eigenvalues(form):
    matrix = _hermitian(*form)
    eigs = np.linalg.eigvalsh(_numeric_from_exact(matrix))
    assume(np.min(np.abs(eigs)) >= 1e-6)
    try:
        HermitianForm(matrix)
        accepted = True
    except ValueError as exc:
        assert str(exc).startswith("form does not have signature (2,1)")
        accepted = False
    assert accepted == (eigs[0] < 0 < eigs[1])


def _counting_embeddings(monkeypatch):
    """Count the embeddings that su21 asks for."""
    import latcover.su21 as su21
    calls = []
    embed = su21.embed_complex

    def counting(a, *args):
        calls.append(a)
        return embed(a, *args)

    monkeypatch.setattr(su21, "embed_complex", counting)
    return calls


@pytest.mark.parametrize("n", [1, 3, 4, 5, 7, 8, 9, 12, 15, 20, 24])
def test_sign_matches_the_96_bit_embedding(n, monkeypatch):
    calls = _counting_embeddings(monkeypatch)
    rng = random.Random(n)
    for _ in range(200):
        y = _cyclo(n, [rng.randint(-9, 9) for _ in range(n)])
        x = (y + y.conjugate()) / rng.randint(1, 7)
        value = embed_complex(x, DEFAULT_EMBED_BITS).real
        assert _sign(x) == (0 if not x else 1 if value > 0 else -1)
    assert calls == []  # the double read decided every one


def test_sign_too_close_to_zero_for_doubles_reads_the_embedding(monkeypatch):
    calls = _counting_embeddings(monkeypatch)
    sqrt3 = 2 * zeta(12) - zeta(12, 3)
    tiny = (2 - sqrt3) ** 12  # p - q sqrt3, about 1.4e-7, with p near 3.6e6
    assert tiny.num[1] and not tiny.num[2]
    assert _sign(tiny) == 1 and _sign(-tiny) == -1
    assert len(calls) == 2
    assert _sign(tiny + 1) == 1 and len(calls) == 2


def test_sign_of_numerators_beyond_doubles_reads_the_embedding(monkeypatch):
    calls = _counting_embeddings(monkeypatch)
    x = (1 + 2 * zeta(12) - zeta(12, 3)) * 10 ** 400  # 10^400 (1 + sqrt3)
    assert _sign(x) == 1 and _sign(-x) == -1
    assert len(calls) == 2


def test_sign_of_a_rational_is_exact(monkeypatch):
    calls = _counting_embeddings(monkeypatch)
    assert [_sign(CycloElt.rational(q, 12)) for q in (10 ** 400, -3, 0)] == [
        1, -1, 0]
    assert calls == []


def test_loading_the_presets_embeds_nothing(monkeypatch):
    calls = _counting_embeddings(monkeypatch)
    for preset in ("dm-5-4-1-1-1-6", "dm-11-7-2-2-2-12"):
        dm_lattice(preset)
    assert calls == []


# ---------------------------------------------------------------- unitarity


def test_identity_is_unitary():
    form = HermitianForm.standard()
    assert check_unitary(GroupMatrix.identity(form))


def test_picard_generators_are_unitary():
    form, b0, u0, v0 = picard_generators()
    assert check_unitary(b0)
    assert check_unitary(u0)
    assert check_unitary(v0)


def test_scaling_matrix_is_not_unitary():
    form = HermitianForm.standard()
    g = GroupMatrix(form, _mat([[2, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert not check_unitary(g)


def test_braid_relations_hold_unscaled():
    form, b0, u0, v0 = picard_generators()
    ident = GroupMatrix.identity(form)
    assert b0 * v0 * b0.inv() * v0.inv() == ident
    assert b0 * u0 * b0 == u0 * b0 * u0
    assert u0 * v0 * u0 * v0 == v0 * u0 * v0 * u0
    assert ident * b0 == b0


# ---------------------------------------------------------------- scaling


def test_scale_det_one_fixed():
    form = HermitianForm.standard()
    ident = GroupMatrix.identity(form)
    assert scale_to_su(ident) == ident


def test_scale_picard_generators():
    form, b0, u0, v0 = picard_generators()
    b, u, v = scale_to_su(b0), scale_to_su(u0), scale_to_su(v0)
    one = CycloElt.one()
    assert b.det() == one and u.det() == one and v.det() == one
    # determinants are zeta_6^5, zeta_6^5, zeta_3^2; the principal cube roots
    # have arguments -20, -20, -40 degrees, so the scalings multiply by their
    # inverses
    assert b == b0.scale(zeta(18))
    assert u == u0.scale(zeta(18))
    assert v == v0.scale(zeta(9))


def test_scaled_relator_powers():
    form, b0, u0, v0 = picard_generators()
    b, u, v = scale_to_su(b0), scale_to_su(u0), scale_to_su(v0)
    zhat = GroupMatrix.scalar(zeta(3), form)
    zhat_sq = zhat * zhat
    assert b ** 3 == zhat_sq
    assert u ** 3 == zhat_sq
    assert v ** 6 == zhat_sq
    assert (b * u * v) ** 3 == GroupMatrix.identity(form)
    assert check_unitary(zhat)


def test_identity_and_scalar_numerics_are_their_entries_embedded():
    form = HermitianForm.standard()
    mats = [GroupMatrix.identity(form)] + [
        GroupMatrix.scalar(value, form)
        for value in (zeta(3), zeta(3, 2), zeta(36, 7), -zeta(18, 5),
                      (2 * zeta(6) - 1) / 3, CycloElt.zero())]
    for g in mats:
        embedded = _numeric_from_exact(g.exact)
        assert np.array_equal(g.numeric, embedded)
        assert g.numeric.tobytes() == embedded.tobytes()


def test_numeric_view_is_embedded_once_on_read(monkeypatch):
    import latcover.su21 as su21
    form, b0, u0, v0 = picard_generators()
    calls = []
    embed = su21._numeric_from_exact

    def counting(a, *args):
        calls.append(a)
        return embed(a, *args)

    monkeypatch.setattr(su21, "_numeric_from_exact", counting)
    gens = [scale_to_su(g) for g in (b0, u0, v0)]
    pres = picard_presentation()
    products = WordProducts(gens, form)
    powers = [central_power(rel, products) for rel in pres.relators]
    assert powers == [2, 2, 2, 0, 0, 0, 0]
    lattice = Lattice(pres, form, {"b": b0, "u": u0, "v": v0})
    assert lattice.central_powers == powers
    assert calls == []
    first = lattice.numerics()
    assert len(calls) == 3
    assert calls == [g.exact for g in gens]
    second = lattice.numerics()
    assert len(calls) == 3
    assert all(x is y for x, y in zip(first, second))
    # a custom form: loading and verifying embeds nothing; the first
    # numerics() call embeds the form and each generator once, to conjugate
    # them to the standard form, and keeps the result
    calls.clear()
    custom = dm_lattice("dm-11-7-2-2-2-12")
    assert calls == []
    first = custom.numerics()
    assert calls == [custom.matrices[g].exact
                     for g in custom.presentation.gens] + [custom.form.matrix]
    second = custom.numerics()
    assert len(calls) == 4
    assert all(x is y for x, y in zip(first, second))


def test_powers_match_repeated_products():
    form, b0, u0, v0 = picard_generators()
    g = scale_to_su(u0) * v0
    product = GroupMatrix.identity(form)
    for k in range(8):
        assert g ** k == product
        assert g ** -k == product.inv()
        product = product * g


# determinants that are not roots of unity: a rational matrix of det 2, and
# entries at conductors 3 and 12 beside rationals (conductor 1)
NON_UNITARY_MATRICES = {
    "rational-det-2": [[1, 2, Fraction(1, 2)], [0, 3, 1],
                       [2, 4, Fraction(5, 3)]],
    "conductors-1-3-12": [[zeta(3), 1, 0],
                          [Fraction(1, 3), zeta(12, 5), 1 + zeta(12)],
                          [2, 0, zeta(3, 2) - zeta(12, 7)]],
}


def _leibniz_det(a):
    total = CycloElt.zero()
    for perm in itertools.permutations(range(3)):
        inversions = sum(perm[i] > perm[j] for i, j in ((0, 1), (0, 2), (1, 2)))
        term = a[0][perm[0]] * a[1][perm[1]] * a[2][perm[2]]
        total = total - term if inversions % 2 else total + term
    return total


@pytest.mark.parametrize("rows", NON_UNITARY_MATRICES.values(),
                         ids=NON_UNITARY_MATRICES)
def test_cofactor_det_and_inverse_of_non_unitary_matrices(rows):
    form = HermitianForm.standard()
    g = GroupMatrix(form, _mat(rows))
    det = g.det()
    assert det == _leibniz_det(g.exact)
    assert det.root_of_unity_exponent() is None
    assert g * g.inv() == GroupMatrix.identity(form)
    assert g.inv() * g == GroupMatrix.identity(form)


def test_scale_rejects_non_root_of_unity_det():
    form = HermitianForm.standard()
    g = GroupMatrix(form, _mat([[2, 0, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(ValueError, match="root of unity"):
        scale_to_su(g)


def test_principal_branch_window():
    # det = zeta_6^5 = arg -60deg; principal cube root has arg -20deg, i.e.
    # zeta_18^-1, inside (-60deg, 60deg]
    form, b0, _, _ = picard_generators()
    delta_inv = zeta(18)  # multiplier applied = inverse of the principal root
    assert scale_to_su(b0) == b0.scale(delta_inv)
    # det = -1 boundary case: cube roots are at -60, 60, 180 degrees; the
    # window (-pi/3, pi/3] picks +60 degrees
    g = GroupMatrix(HermitianForm.standard(),
                    _mat([[-1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    scaled = scale_to_su(g)
    assert scaled.det() == CycloElt.one()
    assert scaled.exact[0][0] == -zeta(6, -1)


# ---------------------------------------------------------------- Iwasawa


def test_iwasawa_identity():
    coords = iwasawa(np.eye(3))
    assert math.isclose(coords.lam, 1.0)
    assert abs(coords.zvec) < 1e-12
    assert abs(coords.t) < 1e-12
    assert abs(coords.xi - 1.0) < 1e-12
    assert np.allclose(coords.k_su, np.eye(2))
    assert np.allclose(coords.matrix(), np.eye(3))


def test_iwasawa_pure_triangular():
    pure = IwasawaCoords(2.0, 0.0, 0.0, np.eye(2), 1.0)
    coords = iwasawa(pure.matrix())
    assert math.isclose(coords.lam, 2.0)
    assert abs(coords.zvec) < 1e-12
    assert abs(coords.t) < 1e-12
    assert abs(coords.xi - 1.0) < 1e-12


def test_iwasawa_general_triangular():
    pure = IwasawaCoords(0.75, 0.3 - 1.1j, -2.25, np.eye(2), 1.0)
    mat = pure.b_matrix()
    assert unitarity_residual(mat) < 1e-12
    coords = iwasawa(mat)
    assert math.isclose(coords.lam, 0.75, rel_tol=1e-12)
    assert abs(coords.zvec - (0.3 - 1.1j)) < 1e-12
    assert math.isclose(coords.t, -2.25, rel_tol=1e-12)
    assert np.max(np.abs(coords.matrix() - mat)) < 1e-10


def test_iwasawa_scaled_generator():
    _, b0, _, _ = picard_generators()
    b = scale_to_su(b0)
    coords = iwasawa(b.numeric)
    assert np.max(np.abs(coords.matrix() - b.numeric)) < 1e-10
    assert coords.lam > 0
    assert abs(abs(coords.xi) - 1.0) < 1e-12


def test_iwasawa_rejects_bad_input():
    with pytest.raises(ValueError, match="unitary"):
        iwasawa(np.diag([2.0, 1.0, 1.0]))
    zeta6 = np.exp(1j * np.pi / 3)
    with pytest.raises(ValueError, match="special"):
        iwasawa(np.diag([zeta6, 1.0, zeta6]))


def _random_word_matrices(count, max_len=8, seed=7):
    _, b0, u0, v0 = picard_generators()
    gens = [scale_to_su(g).numeric for g in (b0, u0, v0)]
    gens += [np.linalg.inv(g) for g in gens]
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        length = rng.randint(1, max_len)
        mat = np.eye(3, dtype=complex)
        for _ in range(length):
            mat = mat @ gens[rng.randrange(6)]
        words.append(mat)
    return words


RANDOM_MATRICES = 1000


@pytest.mark.property_suite(cases=RANDOM_MATRICES)
def test_iwasawa_round_trip_on_random_words():
    for mat in _random_word_matrices(RANDOM_MATRICES):
        coords = iwasawa(mat)
        assert np.max(np.abs(coords.matrix() - mat)) < 1e-9


# ---------------------------------------------------------------- projection


def test_projection_basics():
    form = HermitianForm.standard()
    assert abs(homog_project(np.eye(3)) - 1.0) < 1e-15
    zhat = GroupMatrix.scalar(zeta(3), form)
    assert abs(homog_project(zhat.numeric) - complex(-0.5, math.sqrt(3) / 2)) < 1e-12
    pure = IwasawaCoords(2.0, 0.0, 0.0, np.eye(2), 1.0)
    assert abs(homog_project(pure.matrix()) - 0.5) < 1e-12


def test_projection_matches_iwasawa():
    for mat in _random_word_matrices(300, seed=11):
        coords = iwasawa(mat)
        direct = homog_project(mat)
        assert abs(direct - coords.xi / coords.lam) < 1e-9
        assert abs(direct) > 1e-6


def test_projection_guard():
    bad = np.array([[1, 0, 0], [0, 1, 0], [1, 0, 1]], dtype=complex)
    assert abs((bad @ Z0)[2]) < 1e-12
    with pytest.raises(ValueError, match="projection modulus"):
        homog_project(bad)


# ---------------------------------------------------------------- fixture files


def test_matrix_file_round_trip():
    form, b0, u0, v0 = picard_generators()
    text = serialize_matrix_file(6, form, {"b": b0, "u": u0, "v": v0})
    parsed_form, mats = parse_matrix_file(text)
    assert parsed_form.is_standard
    assert list(mats) == ["b", "u", "v"]
    assert mats["b"] == b0
    assert mats["u"] == u0
    assert mats["v"] == v0


def test_matrix_file_custom_form():
    custom = HermitianForm(_mat([[2, 0, 0], [0, 1, 0], [0, 0, -1]]))
    g = GroupMatrix.identity(custom)
    text = serialize_matrix_file(4, custom, {"g": g})
    parsed_form, mats = parse_matrix_file(text)
    assert parsed_form == custom
    assert mats["g"] == g


def test_matrix_file_errors():
    with pytest.raises(ValueError, match="conductor"):
        parse_matrix_file("form standard\n")
    with pytest.raises(ValueError, match="outside"):
        parse_matrix_file("conductor 0\nform standard\n")
    with pytest.raises(ValueError, match="form"):
        parse_matrix_file("conductor 6\nmatrix b\n")
    with pytest.raises(ValueError, match="unknown form"):
        parse_matrix_file("conductor 6\nform fancy\n")
    with pytest.raises(ValueError, match="end of matrix file"):
        parse_matrix_file("conductor 6\nform standard\nmatrix b\n1\n1\n")
    good = "conductor 6\nform standard\nmatrix b\n" + "\n".join(["1"] * 9)
    parse_matrix_file(good)
    with pytest.raises(ValueError, match="duplicate"):
        parse_matrix_file(good + "\nmatrix b\n" + "\n".join(["1"] * 9))


def test_conjugator_of_standard_form_is_identity():
    conj = standard_form_conjugator(HermitianForm.standard())
    assert np.allclose(conj, np.eye(3))


def test_conjugator_realizes_the_form():
    h_std = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
    rng = random.Random(7)
    for _ in range(25):
        # random hermitian perturbation of a signature (2,1) diagonal
        diag = _mat([[2, 0, 0], [0, 1, 0], [0, 0, -1]])
        off = zeta(4) * CycloElt.rational(rng.randint(-1, 1))
        entries = [list(row) for row in diag]
        entries[0][1] = off
        entries[1][0] = off.conjugate()
        try:
            form = HermitianForm(tuple(tuple(r) for r in entries))
        except ValueError:
            continue
        conj = standard_form_conjugator(form)
        assert np.max(np.abs(conj.conj().T @ h_std @ conj - form.numeric)) < 1e-9


def test_conjugator_carries_unitaries_to_standard_form():
    form = HermitianForm(_mat([[2, 0, 0], [0, 1, 0], [0, 0, -1]]))
    zero, one = CycloElt.zero(), CycloElt.one()
    diag = GroupMatrix(form, ((zeta(4), zero, zero),
                              (zero, one, zero),
                              (zero, zero, zeta(6))))
    assert check_unitary(diag)
    conj = standard_form_conjugator(form)
    for g in (diag, GroupMatrix.scalar(zeta(3), form)):
        moved = conj @ g.numeric @ np.linalg.inv(conj)
        assert unitarity_residual(moved) < 1e-9
