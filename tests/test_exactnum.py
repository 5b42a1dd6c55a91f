"""Tests for exact cyclotomic arithmetic and its complex embedding."""

import time
from fractions import Fraction
from math import gcd, lcm

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from latcover.exactnum import (
    CycloElt,
    cyclotomic_polynomial,
    dot,
    embed_complex,
    parse_cyclo,
    to_literal,
    zeta,
)

from latcover.su21 import _exact_matmul

from helpers_latcover import (euler_phi, ref_add, ref_conjugate, ref_inv,
                              ref_mul, ref_promote, ref_reduce)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert len(cyclotomic_polynomial(72)) == euler_phi(72) + 1


def test_add_identity():
    assert zeta(6) + CycloElt.zero(6) == zeta(6)


def test_add_minimal_polynomial_relation():
    assert zeta(3) + zeta(3, 2) == -1


def test_add_inverse():
    sqrt_m3 = 2 * zeta(6) - 1
    assert (sqrt_m3 + (1 - 2 * zeta(6))).is_zero


def test_mul_root_of_unity_pair():
    assert zeta(6) * zeta(6, 5) == 1
    # zeta takes its exponent mod the conductor, and zeta_1^k is 1, as
    # scale_to_su and root_of_unity_exponent read it
    for m, a in [(1, 0), (1, 1), (1, -4), (2, -1), (6, 1), (6, -7), (12, 5),
                 (18, -1), (36, -35)]:
        assert zeta(1, a) == 1 and zeta(1, a).n == 1
        assert zeta(m, -a) == zeta(m, m - a) and zeta(m, -a).n == m
        assert zeta(m, a) * zeta(m, -a) == 1


def test_mul_sqrt_minus_three_squares():
    sqrt_m3 = 2 * zeta(6) - 1
    assert sqrt_m3 * sqrt_m3 == -3


def test_mul_zeta12_cubed_squared():
    assert zeta(12, 3) * zeta(12, 3) == -1


def test_inv_one():
    assert CycloElt.one().inv() == 1


def test_inv_root_of_unity():
    assert zeta(3).inv() == zeta(3, 2)


def test_inv_sqrt_minus_three():
    sqrt_m3 = 2 * zeta(6) - 1
    expected = (1 - 2 * zeta(6)) / 3
    assert sqrt_m3.inv() == expected
    assert sqrt_m3 * sqrt_m3.inv() == 1


def test_inv_zero_signals():
    with pytest.raises(ZeroDivisionError):
        CycloElt.zero(6).inv()


def _embed_error(elt, bits, reference):
    """|embed_complex(elt, bits) - reference|, measured at 512 bits."""
    with mpmath.workprec(512):
        return abs(embed_complex(elt, bits=bits) - reference)


def test_embed_one():
    assert _embed_error(CycloElt.one(), 128, mpmath.mpc(1)) <= 2.0 ** -100


def test_embed_zeta4_is_i():
    assert _embed_error(zeta(4), 128, mpmath.mpc(0, 1)) <= 2.0 ** -100


def test_embed_sqrt_minus_three():
    with mpmath.workprec(512):
        exact = mpmath.sqrt(3) * mpmath.mpc(0, 1)
    assert _embed_error(2 * zeta(6) - 1, 128, exact) <= 2.0 ** -100


def test_embed_requires_53_bits():
    with pytest.raises(ValueError):
        embed_complex(zeta(6), bits=10)


def test_embed_error_shrinks_with_bits():
    elt = (2 * zeta(6) - 1) / 7 + Fraction(1, 3)
    with mpmath.workprec(512):
        exact = mpmath.mpc(mpmath.mpf(1) / 3, mpmath.sqrt(3) / 7)
    errors = [_embed_error(elt, b, exact) for b in (64, 128, 256)]
    assert errors[1] <= errors[0] / 2 ** 32
    assert errors[2] <= errors[1] / 2 ** 32


def test_conductor_promotion():
    z6 = zeta(6)
    z12sq = zeta(12, 2)
    assert z6 == z12sq
    assert z6.promote(12).coeffs == z12sq.coeffs


def test_conjugate():
    s = 2 * zeta(6) - 1  # sqrt(-3), purely imaginary
    assert s.conjugate() == -s
    assert (zeta(12) + zeta(12, 11)).conjugate() == zeta(12) + zeta(12, 11)


def test_root_of_unity_exponent():
    assert zeta(6, 5).root_of_unity_exponent() == (6, 5)
    assert zeta(3).root_of_unity_exponent() == (6, 2)
    assert CycloElt.one(6).root_of_unity_exponent() == (6, 0)
    assert (2 * zeta(6) - 1).root_of_unity_exponent() is None
    assert CycloElt.rational(Fraction(1, 2)).root_of_unity_exponent() is None


def test_parse_basic():
    assert parse_cyclo("1/2*z12^2 - 1", 12) == zeta(12, 2) / 2 - 1
    assert parse_cyclo("2*z6 - 1", 6) == 2 * zeta(6) - 1
    assert parse_cyclo("-z6", 6) == -zeta(6)
    assert parse_cyclo("0", 6).is_zero
    assert parse_cyclo("z12^11 + z12", 12) == zeta(12, 11) + zeta(12)
    assert parse_cyclo("1/3 - 2/3*z6", 6) == (1 - 2 * zeta(6)) / 3
    assert parse_cyclo("z6 ^2", 6) == zeta(6, 2)
    assert parse_cyclo("- 1", 6) == -1
    assert parse_cyclo("+z6", 6) == zeta(6)
    assert parse_cyclo("z6^-1", 6) == zeta(6, 5)
    assert parse_cyclo("1/2 * z6", 6) == zeta(6) / 2


def test_parse_conductor_mismatch():
    with pytest.raises(ValueError):
        parse_cyclo("z6 + 1", 12)


def test_parse_garbage():
    # a term regex that backtracks quadratically spends ~20 s on these blanks
    blanks = " " * 20000
    start = time.perf_counter()
    for bad in ("", "1 +", "* z6", "z6 z6", "q", "1.5", "2z6", "2 z6",
                "z6^ 2", "1 - - 2", "2*3", "z6^2*3", "1 /2", "   ",
                "1 +" + blanks + "q", "1" + blanks + "q"):
        with pytest.raises(ValueError):
            parse_cyclo(bad, 6)
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("text", ["1/0", "z6 - 3/00*z6", "-2/0*z6^2"])
def test_parse_zero_denominator_is_a_value_error(text):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_cyclo(text, 6)


def test_literal_round_trip():
    elts = [
        CycloElt.zero(6),
        2 * zeta(6) - 1,
        zeta(12, 3) / 2 - Fraction(7, 3),
        -zeta(18, 5) + zeta(18) * Fraction(2, 9),
    ]
    for e in elts:
        assert parse_cyclo(to_literal(e), e.n) == e


_SMALL_RAT = st.fractions(
    min_value=-4, max_value=4, max_denominator=6)
_CONDUCTORS = st.sampled_from([1, 2, 3, 4, 6, 8, 12])


@st.composite
def cyclo_elements(draw):
    n = draw(_CONDUCTORS)
    coeffs = draw(st.lists(_SMALL_RAT, min_size=1, max_size=euler_phi(n)))
    return CycloElt(n, coeffs)


@pytest.mark.property_suite
@settings(max_examples=1000, deadline=None)
@given(cyclo_elements(), cyclo_elements(), cyclo_elements())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if not a.is_zero:
        assert a * a.inv() == 1


@pytest.mark.property_suite
@settings(max_examples=1000, deadline=None)
@given(cyclo_elements(), cyclo_elements())
def test_embed_is_ring_homomorphism(a, b):
    ea, eb = embed_complex(a, bits=64), embed_complex(b, bits=64)
    with mpmath.workprec(128):
        bound = mpmath.mpf(2) ** -40 * (1 + abs(ea) * abs(eb))
        assert abs(embed_complex(a * b, bits=64) - ea * eb) <= bound
        bound = mpmath.mpf(2) ** -40 * (1 + abs(ea) + abs(eb))
        assert abs(embed_complex(a + b, bits=64) - (ea + eb)) <= bound


@settings(max_examples=300, deadline=None)
@given(cyclo_elements(), cyclo_elements())
def test_conductor_unification_commutes(a, b):
    m = a.n * b.n // __import__("math").gcd(a.n, b.n)
    target = m * 2
    direct = (a * b + a).promote(target)
    promoted = a.promote(target) * b.promote(target) + a.promote(target)
    assert direct.coeffs == promoted.coeffs


@settings(max_examples=300, deadline=None)
@given(cyclo_elements())
def test_canonical_zero(a):
    diff = a - a
    assert all(c == 0 for c in diff.coeffs)
    assert len(diff.coeffs) == euler_phi(diff.n)


def assert_canonical(e):
    """phi(n) integer numerators over a positive denominator, lowest terms,
    zero over 1."""
    assert len(e.num) == euler_phi(e.n)
    assert all(type(c) is int for c in e.num) and type(e.den) is int
    assert e.den >= 1 and gcd(e.den, *e.num) == 1
    assert any(e.num) or e.den == 1


_KERNEL_CONDUCTORS = st.sampled_from([1, 3, 4, 6, 12, 18, 36])


@st.composite
def reference_pairs(draw):
    """(n, raw coefficients): up to 2*phi(n) of them, so that construction
    reduces modulo Phi_n, with denominators up to 7."""
    n = draw(_KERNEL_CONDUCTORS)
    rat = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    return n, draw(st.lists(rat, max_size=2 * euler_phi(n)))


@settings(max_examples=400, deadline=None)
@given(reference_pairs(), reference_pairs())
def test_integer_kernel_matches_fraction_reference(pa, pb):
    (n, raw_a), (m, raw_b) = pa, pb
    a, b = CycloElt(n, raw_a), CycloElt(m, raw_b)
    ra, rb = ref_reduce(n, raw_a), ref_reduce(m, raw_b)
    assert a.coeffs == ra and b.coeffs == rb
    k = lcm(n, m)
    ua, ub = ref_promote(n, ra, k), ref_promote(m, rb, k)
    assert a.promote(k).coeffs == ua
    results = {
        "+": (a + b, ref_add(ua, ub)),
        "-": (a - b, ref_add(ua, tuple(-c for c in ub))),
        "*": (a * b, ref_mul(k, ua, ub)),
        "conjugate": (a.conjugate(), ref_conjugate(n, ra)),
        "promote": (b.promote(2 * k), ref_promote(m, rb, 2 * k)),
    }
    if any(ra):
        results["inv"] = (a.inv(), ref_inv(n, ra))
    for op, (got, want) in results.items():
        assert got.coeffs == want, op
        assert_canonical(got)
    assert_canonical(a)
    assert (a == b) == (ua == ub)
    assert (a == a * Fraction(1, 2)) == a.is_zero
    assert a == CycloElt(k, ua) and a.promote(k) == a
    assert (a - a).den == 1 and (a - a) == 0


@st.composite
def dot_entries(draw):
    """Zero one time in four, else up to phi(n) coefficients with
    denominators up to 7, at a conductor among 1, 3, 12, 18, 36."""
    n = draw(st.sampled_from([1, 3, 12, 18, 36]))
    if draw(st.integers(0, 3)) == 0:
        return CycloElt.zero(n)
    rat = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    return CycloElt(n, draw(st.lists(rat, min_size=1, max_size=euler_phi(n))))


def _naive_dot(xs, ys):
    total = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        total = total + x * y
    return total


def _same(got, want):
    assert (got.n, got.num, got.den) == (want.n, want.num, want.den)
    assert_canonical(got)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(dot_entries(), dot_entries()), min_size=1,
                max_size=4))
def test_dot_matches_naive_sum_of_products(pairs):
    xs, ys = zip(*pairs)
    _same(dot(xs, ys), _naive_dot(xs, ys))


@settings(max_examples=100, deadline=None)
@given(st.lists(dot_entries(), min_size=18, max_size=18))
def test_fused_matmul_matches_naive_products(entries):
    a = tuple(tuple(entries[3 * i:3 * i + 3]) for i in range(3))
    b = tuple(tuple(entries[9 + 3 * i:12 + 3 * i]) for i in range(3))
    product = _exact_matmul(a, b)
    for i in range(3):
        for j in range(3):
            _same(product[i][j],
                  _naive_dot(a[i], [b[k][j] for k in range(3)]))
