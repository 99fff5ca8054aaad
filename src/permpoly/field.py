"""Finite fields GF(q^e) with q = 2^s, built as GF(2)[t]/(p(t)).

A single flat modulus of degree m = s*e represents the whole tower: the
base field GF(q), intermediate fields GF(q^k), and GF(q^e) all live as
subsets of one context, recovered through Frobenius fixed points rather
than nested moduli.  Elements are bit patterns of length m over the
power basis.
"""

from __future__ import annotations

import functools

from . import gf2poly
from .gf2poly import BitPoly, bp_find_irreducible, bp_is_irreducible

# the largest absolute degree m: the packed uint64 engine of scan multiplies
# two m-bit patterns into 2m - 1 <= 63 bits before it reduces them
DEGREE_CAP = 32


class UsageError(ValueError):
    """A caller's parameter lies outside what a pipeline accepts: q, the
    field degree or modulus, k, n, or the L map.  The command line reports
    it as a usage error (exit 2); any other exception there is a fault of
    the program (exit 1)."""


class FieldContext:
    """Immutable description of GF(q^e), q = 2^s, with its modulus."""

    __slots__ = ("s", "e", "m", "q", "order", "modulus", "_mod_bits", "_cache")

    def __init__(self, s: int, e: int, modulus: BitPoly):
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "m", s * e)
        object.__setattr__(self, "q", 1 << s)
        object.__setattr__(self, "order", 1 << (s * e))
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "_mod_bits", modulus.bits)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("FieldContext is immutable")

    def element(self, bits: int) -> "FieldElement":
        if not 0 <= bits < self.order:
            raise ValueError(f"bit pattern {bits:#x} out of range for {self}")
        return FieldElement(bits, self)

    def zero(self) -> "FieldElement":
        return FieldElement(0, self)

    def one(self) -> "FieldElement":
        return FieldElement(1, self)

    def random_element(self, rng) -> "FieldElement":
        return FieldElement(rng.randrange(self.order), self)

    def __repr__(self) -> str:
        return f"GF({self.q}^{self.e}) mod {self.modulus}"


class FieldElement:
    """Element of a FieldContext as a power-basis bit pattern."""

    __slots__ = ("bits", "ctx")

    def __init__(self, bits: int, ctx: FieldContext):
        _set_bits(self, bits)
        _set_ctx(self, ctx)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def _check(self, other: "FieldElement"):
        if self.ctx is not other.ctx:
            raise ValueError("operands come from different field contexts")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.bits ^ other.bits, self.ctx)

    __sub__ = __add__

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(
            gf2poly._mod(gf2poly._mul(self.bits, other.bits), self.ctx._mod_bits),
            self.ctx,
        )

    def square(self) -> "FieldElement":
        """x^2 as the XOR of one _square_tables lookup per byte of x.

        Squaring is GF(2)-linear in characteristic 2, (u + v)^2 = u^2 +
        v^2, so x^2 is the XOR of the squares of x's bytes in place.
        """
        bits, acc = self.bits, 0
        for table in _square_tables(self.ctx):
            acc ^= table[bits & 0xFF]
            bits >>= 8
        return FieldElement(acc, self.ctx)

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            return self.inv() ** (-n)
        return FieldElement(
            gf2poly._powmod(self.bits, n, self.ctx._mod_bits), self.ctx
        )

    def inv(self) -> "FieldElement":
        if self.bits == 0:
            raise ZeroDivisionError("zero has no inverse")
        # x^(order-2); Lagrange makes this the inverse for x != 0
        return self ** (self.ctx.order - 2)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.ctx is other.ctx and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.ctx, self.bits))

    def __bool__(self) -> bool:
        return self.bits != 0

    def __repr__(self) -> str:
        return f"0x{self.bits:x}"


# the slots' own setters: __init__ writes through them, past the
# __setattr__ that keeps a built FieldElement immutable
_set_bits = FieldElement.bits.__set__
_set_ctx = FieldElement.ctx.__set__


def per_context(build):
    """Memoize build(ctx, *args) in ctx under the key (build, *args).

    The built value is stored directly, so every caller on one context
    gets the same object: the package runs in one thread
    (tests/test_field.py::test_no_module_imports_threads).  A build that
    raises stores nothing.  The arguments after ctx are positional and
    hashable, so a hit costs one key tuple and one dict lookup.
    """
    head = (build,)

    @functools.wraps(build)
    def cached(ctx: FieldContext, *args):
        key = head + args  # (build, *args) without building a list first
        try:
            return ctx._cache[key]
        except KeyError:
            value = ctx._cache[key] = build(ctx, *args)
            return value

    return cached


@per_context
def _square_tables(ctx: FieldContext) -> tuple[tuple[int, ...], ...]:
    """Table j maps a byte v to (v * t^(8j))^2 mod p, for each of the
    ceil(m/8) bytes of an element; the last table covers only its m - 8j
    bits.  Built from the m column images t^(2i) mod p, each table by
    doubling: its entries below 2^b with bit b added are those XOR
    column b."""
    tables = []
    for low in range(0, ctx.m, 8):
        table = [0]
        for i in range(low, min(low + 8, ctx.m)):
            col = gf2poly._mod(1 << 2 * i, ctx._mod_bits)
            table += [v ^ col for v in table]
        tables.append(tuple(table))
    return tuple(tables)


def make_field(s: int, e: int, modulus: BitPoly | None = None) -> FieldContext:
    """Construct GF((2^s)^e) with the least irreducible modulus of degree s*e.

    An explicit modulus may be supplied; it must be irreducible of degree
    exactly s*e.  Degrees above DEGREE_CAP are refused: the packed engine
    cannot multiply there.  Memory is bounded where it is spent, by
    scan.check_field_bytes before each whole-field array.  A FieldContext
    built directly has no cap, for scalar arithmetic at any degree.
    """
    if s < 1 or e < 1:
        raise UsageError("need s >= 1 and e >= 1")
    m = s * e
    if m > DEGREE_CAP:
        raise UsageError(f"degree {m} = {s}*{e} exceeds the cap of {DEGREE_CAP}, past which "
                         f"the packed engine cannot multiply")
    if modulus is None:
        modulus = bp_find_irreducible(m)
    else:
        if modulus.is_zero or modulus.degree != m:
            raise UsageError(f"modulus must have degree {m}, got {modulus}")
        if not bp_is_irreducible(modulus):
            raise UsageError(f"modulus {modulus} is reducible")
    return FieldContext(s, e, modulus)


def frobenius_q(x: FieldElement, i: int) -> FieldElement:
    """x^(q^i), as s*i successive squarings; i is taken mod e."""
    if i < 0:
        raise ValueError("Frobenius power must be nonnegative")
    i %= x.ctx.e
    y = x
    for _ in range(x.ctx.s * i):
        y = y.square()
    return y


def eval_S(k: int, x: FieldElement) -> FieldElement:
    """S_k(x) = x + x^q + ... + x^(q^(k-1)); the empty sum for k = 0."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    acc = x.ctx.zero()
    y = x
    for _ in range(k):
        acc = acc + y
        y = frobenius_q(y, 1)
    return acc


def trace_to_subfield(x: FieldElement, k: int) -> FieldElement:
    """Trace from GF(q^e) onto GF(q^k): sum of x^(q^(k*i)); requires k | e."""
    ctx = x.ctx
    if k < 1 or ctx.e % k != 0:
        raise ValueError(f"k={k} does not divide e={ctx.e}")
    acc = ctx.zero()
    y = x
    for _ in range(ctx.e // k):
        acc = acc + y
        y = frobenius_q(y, k)
    return acc


@per_context
def _trace_mask(ctx: FieldContext) -> int:
    """Bit j set iff the absolute trace of the basis element t^j is 1."""
    mask = 0
    for j in range(ctx.m):
        acc = 0
        y = 1 << j
        for _ in range(ctx.m):
            acc ^= y
            y = gf2poly._mod(gf2poly._mul(y, y), ctx._mod_bits)
        if acc not in (0, 1):
            raise AssertionError("absolute trace left GF(2)")
        mask |= acc << j
    return mask


def trace_absolute(x: FieldElement) -> int:
    """Absolute trace down to GF(2), returned as a bit."""
    return (x.bits & _trace_mask(x.ctx)).bit_count() & 1


def in_subfield(x: FieldElement, k: int) -> bool:
    """True iff x lies in GF(q^k), i.e. x^(q^k) = x; requires k | e."""
    if k < 1 or x.ctx.e % k != 0:
        raise ValueError(f"k={k} does not divide e={x.ctx.e}")
    return frobenius_q(x, k) == x


def enumerate_elements(ctx: FieldContext, start: int = 0, stop: int | None = None):
    """Yield elements in increasing bit-pattern order over [start, stop)."""
    if stop is None:
        stop = ctx.order
    if not 0 <= start <= stop <= ctx.order:
        raise ValueError("bad enumeration range")
    for bits in range(start, stop):
        yield FieldElement(bits, ctx)
