"""Polynomial arithmetic over GF(2).

A polynomial b_n x^n + ... + b_1 x + b_0 is stored bit-packed as the
integer b_n 2^n + ... + b_1 2 + b_0, so addition is xor and coefficient
access is bit access.  BitPoly is a thin immutable wrapper around that
integer; all heavy lifting happens on plain ints.
"""

from __future__ import annotations


def _deg(bits: int) -> int:
    return bits.bit_length() - 1


def _mul(a: int, b: int) -> int:
    # carry-less shift-and-add over the set bits of the smaller operand
    if a.bit_count() < b.bit_count():
        a, b = b, a
    c = 0
    while b:
        low = b & -b
        c ^= a << (low.bit_length() - 1)
        b ^= low
    return c


def _mod(a: int, m: int) -> int:
    if m == 0:
        raise ZeroDivisionError("division by zero polynomial")
    dm = _deg(m)
    da = _deg(a)
    while da >= dm:
        a ^= m << (da - dm)
        da = _deg(a)
    return a


def _divmod(a: int, m: int) -> tuple[int, int]:
    if m == 0:
        raise ZeroDivisionError("division by zero polynomial")
    dm = _deg(m)
    q = 0
    da = _deg(a)
    while da >= dm:
        q ^= 1 << (da - dm)
        a ^= m << (da - dm)
        da = _deg(a)
    return q, a


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _mod(a, b)
    return a


def _powmod(a: int, n: int, m: int) -> int:
    c = 1
    a = _mod(a, m)
    while n:
        if n & 1:
            c = _mod(_mul(c, a), m)
        a = _mod(_mul(a, a), m)
        n >>= 1
    return c


class BitPoly:
    """Immutable polynomial over GF(2), coefficients bit-packed in an int."""

    __slots__ = ("bits",)

    def __init__(self, bits: int):
        if bits < 0:
            raise ValueError("coefficient bits must be nonnegative")
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("BitPoly is immutable")

    @classmethod
    def from_exponents(cls, exponents) -> "BitPoly":
        """Build a polynomial from an iterable of exponents (xor semantics)."""
        bits = 0
        for e in exponents:
            bits ^= 1 << e
        return cls(bits)

    @classmethod
    def from_string(cls, text: str) -> "BitPoly":
        """Parse the textual form, e.g. "x^6+x^2+1"; "0" is the zero polynomial."""
        s = "".join(text.split())
        if s == "0":
            return cls(0)
        bits = 0
        for term in s.split("+"):
            if term == "1":
                e = 0
            elif term == "x":
                e = 1
            elif term.startswith("x^"):
                e = int(term[2:])
                if e < 0:
                    raise ValueError(f"bad exponent in term {term!r}")
            else:
                raise ValueError(f"bad term {term!r} in polynomial string")
            bits ^= 1 << e
        return cls(bits)

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    @property
    def degree(self) -> int:
        """Degree of a nonzero polynomial; the zero polynomial has none."""
        if self.bits == 0:
            raise ValueError("zero polynomial has no degree; check is_zero first")
        return _deg(self.bits)

    def coefficient(self, i: int) -> int:
        return (self.bits >> i) & 1

    def __add__(self, other: "BitPoly") -> "BitPoly":
        return BitPoly(self.bits ^ other.bits)

    __sub__ = __add__

    def __mul__(self, other: "BitPoly") -> "BitPoly":
        return BitPoly(_mul(self.bits, other.bits))

    def __mod__(self, other: "BitPoly") -> "BitPoly":
        return BitPoly(_mod(self.bits, other.bits))

    def __floordiv__(self, other: "BitPoly") -> "BitPoly":
        return BitPoly(_divmod(self.bits, other.bits)[0])

    def __divmod__(self, other: "BitPoly") -> tuple["BitPoly", "BitPoly"]:
        q, r = _divmod(self.bits, other.bits)
        return BitPoly(q), BitPoly(r)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitPoly):
            return NotImplemented
        return self.bits == other.bits

    def __hash__(self) -> int:
        return hash((BitPoly, self.bits))

    def __bool__(self) -> bool:
        return self.bits != 0

    def __str__(self) -> str:
        if self.bits == 0:
            return "0"
        terms = []
        for i in range(_deg(self.bits), -1, -1):
            if (self.bits >> i) & 1:
                terms.append("1" if i == 0 else "x" if i == 1 else f"x^{i}")
        return "+".join(terms)

    def __repr__(self) -> str:
        return f"BitPoly({self})"


ZERO = BitPoly(0)
ONE = BitPoly(1)
X = BitPoly(2)


def bp_gcd(a: BitPoly, b: BitPoly) -> BitPoly:
    """Greatest common divisor via Euclid (monic is automatic over GF(2))."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    return BitPoly(_gcd(a.bits, b.bits))


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def bp_is_irreducible(a: BitPoly) -> bool:
    """Squaring-based irreducibility test over GF(2).

    a of degree d is irreducible iff x^(2^d) = x (mod a) and, for every
    prime r dividing d, gcd(x^(2^(d/r)) - x, a) = 1.
    """
    if a.is_zero or a.degree < 1:
        raise ValueError("irreducibility is defined for degree >= 1")
    d = a.degree
    m = a.bits
    # iterated squaring of x: after i steps holds x^(2^i) mod a
    powers = {}
    b = _mod(2, m)
    for i in range(1, d + 1):
        b = _mod(_mul(b, b), m)
        powers[i] = b
    if powers[d] != _mod(2, m):
        return False
    for r in _prime_factors(d):
        if _gcd(powers[d // r] ^ _mod(2, m), m) != 1:
            return False
    return True


def bp_find_irreducible(m: int) -> BitPoly:
    """Lexicographically least irreducible of degree m.

    Scans the low m coefficient bits in increasing integer order with the
    x^m coefficient fixed to 1, so the result is deterministic.
    """
    if m < 1:
        raise ValueError("degree must be >= 1")
    top = 1 << m
    for low in range(top):
        cand = BitPoly(top | low)
        if bp_is_irreducible(cand):
            return cand
    raise AssertionError("no irreducible of degree %d found" % m)  # unreachable


def _ones_upto(d: int) -> int:
    # 1 + x + ... + x^d as bits
    return (1 << (d + 1)) - 1


def proof_gcd_case1(k: int) -> BitPoly:
    """gcd(1 + x + ... + x^(k-2), x^k + 1), with the shifted-form cross-check.

    The shifted form gcd(x^(2k+2) + ... + x^(3k), x^k + 1) must give the
    same answer since x^(2k+2) is coprime to x^k + 1.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    normalized = BitPoly(_ones_upto(k - 2))
    xk1 = BitPoly((1 << k) | 1)
    g = bp_gcd(normalized, xk1)
    shifted = BitPoly(_ones_upto(k - 2) << (2 * k + 2))
    g2 = bp_gcd(shifted, xk1)
    if g != g2:
        raise AssertionError(
            f"shifted-form gcd disagrees at k={k}: {g} vs {g2}"
        )
    return g


def proof_gcd_case2(k: int) -> BitPoly:
    """gcd(1 + x + ... + x^(2k-1), x^3k + 1); asserts the x^k + 1 value.

    The shifted form gcd(x^(k+1) + ... + x^(3k), x^3k + 1) is checked to
    agree, as x^(k+1) shares no factor with x^3k + 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    normalized = BitPoly(_ones_upto(2 * k - 1))
    x3k1 = BitPoly((1 << (3 * k)) | 1)
    g = bp_gcd(normalized, x3k1)
    shifted = BitPoly(_ones_upto(2 * k - 1) << (k + 1))
    g2 = bp_gcd(shifted, x3k1)
    if g != g2:
        raise AssertionError(
            f"shifted-form gcd disagrees at k={k}: {g} vs {g2}"
        )
    expected = BitPoly((1 << k) | 1)
    if g != expected:
        raise AssertionError(f"gcd at k={k} is {g}, expected x^{k}+1")
    return g
