"""Exact arithmetic in cyclotomic fields Q(zeta_N) with rational coefficients.

Elements are dense coefficient vectors modulo the N-th cyclotomic polynomial
Phi_N: phi(N) integer numerators over one common positive denominator, in
lowest terms.  Phi_N is monic with integer coefficients, so reduction and
products run on integers only; `coeffs` gives the `fractions.Fraction` view.
`embed_complex` maps an element to one mpmath complex point, summed with 16
guard bits over the requested precision; it is the only way exact values
reach the numerical layers.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Optional, Tuple

import mpmath


def _poly_div_exact_int(num: list, den: list) -> list:
    """Exact division of integer polynomials (ascending coefficients)."""
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    quot = [0] * (len(num) - dd)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + dd]
        if c % lead != 0:
            raise ArithmeticError("non-exact polynomial division")
        q = c // lead
        quot[k] = q
        if q:
            for j, dj in enumerate(den):
                num[k + j] -= q * dj
    if any(num[: dd]):
        raise ArithmeticError("non-exact polynomial division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> Tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending degree."""
    if n < 1:
        raise ValueError(f"no cyclotomic polynomial for {n}")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact_int(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi_tail(n: int) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
    """deg Phi_n and the nonzero terms (j, c_j) of Phi_n below its leading 1."""
    phi = cyclotomic_polynomial(n)
    return len(phi) - 1, tuple((j, c) for j, c in enumerate(phi[:-1]) if c)


def _reduced(n: int, num: list, den: int) -> Tuple[Tuple[int, ...], int]:
    """num/den reduced modulo the monic Phi_n, padded to phi(n) integer
    numerators, in lowest terms; consumes num."""
    deg, tail = _phi_tail(n)
    for k in range(len(num) - 1, deg - 1, -1):
        c = num.pop()
        if c:
            for j, p in tail:
                num[k - deg + j] -= c * p
    num.extend([0] * (deg - len(num)))
    g = gcd(den, *num)
    if g == 1:
        return tuple(num), den
    return tuple(c // g for c in num), den // g


class CycloElt:
    """An element of Q(zeta_n): integer numerators `num` of the powers
    zeta_n^0 .. zeta_n^(phi(n)-1) over one positive denominator `den`, with
    gcd(den, *num) == 1, so each element has one representation per
    conductor (zero is all-zero over 1)."""

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, coeffs: Iterable):
        fracs = [Fraction(c) for c in coeffs]
        den = lcm(*(f.denominator for f in fracs))
        self.n = n
        self.num, self.den = _reduced(
            n, [f.numerator * (den // f.denominator) for f in fracs], den)

    @staticmethod
    def _of(n: int, num: list, den: int) -> "CycloElt":
        elt = CycloElt.__new__(CycloElt)
        elt.n = n
        elt.num, elt.den = _reduced(n, num, den)
        return elt

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The phi(n) rational coefficients num[k] / den."""
        return tuple(Fraction(c, self.den) for c in self.num)

    @staticmethod
    def rational(value, n: int = 1) -> "CycloElt":
        return CycloElt(n, [Fraction(value)])

    @staticmethod
    def zero(n: int = 1) -> "CycloElt":
        return CycloElt(n, [])

    @staticmethod
    def one(n: int = 1) -> "CycloElt":
        return CycloElt(n, [Fraction(1)])

    def promote(self, m: int) -> "CycloElt":
        """Coerce into Q(zeta_m) for a multiple m of the conductor."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ValueError(f"cannot promote conductor {self.n} to {m}")
        step = m // self.n
        out = [0] * ((len(self.num) - 1) * step + 1)
        for k, c in enumerate(self.num):
            out[k * step] = c
        return CycloElt._of(m, out, self.den)

    def _unified(self, other) -> Tuple["CycloElt", "CycloElt"]:
        other = _coerce(other, self.n)
        if other.n == self.n:
            return self, other
        m = lcm(self.n, other.n)
        return self.promote(m), other.promote(m)

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other) -> "CycloElt":
        a, b = self._unified(other)
        den = lcm(a.den, b.den)
        sa, sb = den // a.den, den // b.den
        return CycloElt._of(a.n, [x * sa + y * sb for x, y in zip(a.num, b.num)],
                            den)

    __radd__ = __add__

    def __neg__(self) -> "CycloElt":
        return CycloElt._of(self.n, [-c for c in self.num], self.den)

    def __sub__(self, other) -> "CycloElt":
        return self + (-_coerce(other, self.n))

    def __rsub__(self, other) -> "CycloElt":
        return _coerce(other, self.n) + (-self)

    def __mul__(self, other) -> "CycloElt":
        a, b = self._unified(other)
        out = [0] * (len(a.num) + len(b.num) - 1)
        for i, x in enumerate(a.num):
            if x:
                for j, y in enumerate(b.num):
                    if y:
                        out[i + j] += x * y
        return CycloElt._of(a.n, out, a.den * b.den)

    __rmul__ = __mul__

    def inv(self) -> "CycloElt":
        """Multiplicative inverse: the product of the other Galois conjugates
        of self, divided by the rational norm (self times that product)."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        rest = CycloElt.one(self.n)
        for k in range(2, self.n):
            if gcd(k, self.n) == 1:
                rest = rest * self._galois(k)
        norm = self * rest
        p, q = norm.num[0], norm.den
        if p < 0:
            p, q = -p, -q
        return CycloElt._of(self.n, [c * q for c in rest.num], rest.den * p)

    def __truediv__(self, other) -> "CycloElt":
        return self * _coerce(other, self.n).inv()

    def __rtruediv__(self, other) -> "CycloElt":
        return _coerce(other, self.n) * self.inv()

    def __pow__(self, k: int) -> "CycloElt":
        if k < 0:
            return self.inv() ** (-k)
        result = CycloElt.one(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycloElt.rational(other)
        if not isinstance(other, CycloElt):
            return NotImplemented
        a, b = self._unified(other)
        return a.den == b.den and a.num == b.num

    __hash__ = None  # equality crosses conductors; no cheap canonical hash

    def _galois(self, k: int) -> "CycloElt":
        """Image under the automorphism zeta_n -> zeta_n^k, gcd(k, n) = 1."""
        out = [0] * self.n
        for j, c in enumerate(self.num):
            out[j * k % self.n] = c
        return CycloElt._of(self.n, out, self.den)

    def conjugate(self) -> "CycloElt":
        """Complex conjugation, zeta_n^k -> zeta_n^(n-k)."""
        return self._galois(-1)

    def root_of_unity_exponent(self) -> Optional[Tuple[int, int]]:
        """Return (M, a) with self = zeta_M^a and M = lcm(2, n), else None."""
        m = self.n if self.n % 2 == 0 else 2 * self.n
        lifted = self.promote(m)
        return next(((m, a) for a in range(m) if lifted == zeta_power(m, a)),
                    None)

    def __repr__(self) -> str:
        return f"CycloElt({self.n}, {to_literal(self)!r})"


def _coerce(value, n: int) -> CycloElt:
    if isinstance(value, CycloElt):
        return value
    if isinstance(value, (int, Fraction)):
        return CycloElt.rational(value, 1)
    raise TypeError(f"cannot interpret {value!r} as a cyclotomic element")


def zeta(n: int, k: int = 1) -> CycloElt:
    """Primitive n-th root of unity zeta_n^k."""
    return CycloElt._of(n, [0] * (k % n) + [1], 1)


def zeta_power(m: int, a: int) -> CycloElt:
    """zeta_m^a at conductor m (m >= 1)."""
    return zeta(m, a % m) if m > 1 else CycloElt.one()


def embed_complex(a: CycloElt, bits: int = 128) -> mpmath.mpc:
    """Image of a under zeta_n -> exp(2*pi*i/n), summed at bits + 16 bits."""
    if bits < 53:
        raise ValueError(f"need at least 53 bits, got {bits}")
    with mpmath.workprec(bits + 16):
        value = mpmath.mpc(0)
        for k, c in enumerate(a.coeffs):
            if c:
                term = mpmath.mpf(c.numerator) / c.denominator
                value += term * mpmath.expjpi(mpmath.mpf(2 * k) / a.n)
        return value


_TOKEN = re.compile(r"\s*(?:(?P<rat>\d+(?:/\d+)?)|(?P<z>z\d+)"
                    r"|(?P<pow>\^-?\d+)|(?P<op>[+\-*]))")


def _tokenize(text: str) -> list:
    pos, tokens = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"bad cyclotomic literal near {text[pos:pos+12]!r}")
        pos = m.end()
        if m.group("rat") is not None:
            try:
                tokens.append(("rat", Fraction(m.group("rat"))))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {text!r}") from None
        elif m.group("z") is not None:
            tokens.append(("z", int(m.group("z")[1:])))
        elif m.group("pow") is not None:
            tokens.append(("pow", int(m.group("pow")[1:])))
        else:
            tokens.append(("op", m.group("op")))
    return tokens


def parse_cyclo(text: str, conductor: int) -> CycloElt:
    """Parse a cyclotomic literal like '1/2*z12^2 - 1' at a fixed conductor.

    Terms are rational constants, optionally times zN or zN^k (a bare zN^k is
    also accepted); the zN token must match the declared conductor.
    """
    tokens = _tokenize(text)
    i = 0

    def peek():
        return tokens[i] if i < len(tokens) else (None, None)

    def take_zpart() -> int:
        nonlocal i
        kind, val = tokens[i]
        if val != conductor:
            raise ValueError(
                f"literal uses z{val} but the declared conductor is {conductor}")
        i += 1
        if peek()[0] == "pow":
            exp = tokens[i][1]
            i += 1
            return exp
        return 1

    def take_term() -> Tuple[Fraction, Optional[int]]:
        nonlocal i
        kind, val = peek()
        if kind == "rat":
            i += 1
            if peek() == ("op", "*"):
                i += 1
                if peek()[0] != "z":
                    raise ValueError(f"expected z-term after '*' in {text!r}")
                return val, take_zpart()
            return val, None
        if kind == "z":
            return Fraction(1), take_zpart()
        raise ValueError(f"expected a term in {text!r}")

    terms = []
    sign = 1
    kind, val = peek()
    if kind == "op" and val in "+-":
        sign = -1 if val == "-" else 1
        i += 1
    coeff, exp = take_term()
    terms.append((sign * coeff, exp))
    while i < len(tokens):
        kind, val = peek()
        if kind != "op" or val not in "+-":
            raise ValueError(f"expected '+' or '-' in {text!r}")
        i += 1
        coeff, exp = take_term()
        terms.append((-coeff if val == "-" else coeff, exp))

    result = CycloElt.zero(conductor)
    for coeff, exp in terms:
        if exp is None:
            result = result + CycloElt.rational(coeff).promote(conductor)
        else:
            result = result + coeff * zeta(conductor, exp % conductor)
    return result


def to_literal(a: CycloElt) -> str:
    """Canonical literal string for a, parseable by parse_cyclo."""
    parts = []
    for k, c in enumerate(a.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        coeff = str(mag) if mag.denominator != 1 else str(mag.numerator)
        if k == 0:
            body = coeff
        elif k == 1:
            body = f"z{a.n}" if mag == 1 else f"{coeff}*z{a.n}"
        else:
            body = f"z{a.n}^{k}" if mag == 1 else f"{coeff}*z{a.n}^{k}"
        parts.append(("- " if c < 0 else "+ ") + body)
    if not parts:
        return "0"
    first = parts[0]
    text = ("-" + first[2:]) if first.startswith("- ") else first[2:]
    for p in parts[1:]:
        text += " " + p
    return text
