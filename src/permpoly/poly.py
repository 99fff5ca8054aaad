"""Polynomial objects over GF(q^e) and their whole-field evaluation.

Two representations, each matched to its access pattern:

* DensePolyF2  -- reduced polynomial with GF(2) coefficients, bit-packed
                  in one int of q^e bits (the shape of g_{n,q}).
* PolyExpr     -- expression tree (Var/Const/LinPoly/Add/Mul/Pow/FrobQ/S)
                  kept unexpanded so whole-field scans evaluate S-power
                  combinations in O(k) per point instead of expanding
                  them into thousands of monomials.  LinPoly, the
                  2-linearized map sum c_i x^(2^i), is one of its leaves.

Whether two maps agree is decided in one place, funcs_equal_pointwise,
on the points whose Hamming weight is at most their degree bound.
All values are immutable after construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import gf2poly, scan
from .field import (FieldContext, FieldElement, UsageError, eval_S,
                    frobenius_q, make_field, per_context)


def reduce_exponent(m: int, order: int) -> int:
    """Fold exponent m so x^m is unchanged as a function on GF(order).

    0 stays 0; m >= 1 maps to 1 + (m-1) mod (order-1).  Plain reduction
    mod order-1 would send multiples of order-1 to 0 and corrupt the
    value at x = 0.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    if m < 0:
        raise ValueError("exponent must be nonnegative")
    if m == 0:
        return 0
    return 1 + (m - 1) % (order - 1)


# ---------------------------------------------------------------------------
# dense reduced polynomials with GF(2) coefficients


class DensePolyF2:
    """Reduced polynomial mod x^(q^e) - x with GF(2) coefficients.

    Coefficients are bit-packed in one int of q^e bits, index = exponent.
    """

    __slots__ = ("bits", "ctx")

    def __init__(self, ctx: FieldContext, bits: int):
        if bits < 0 or bits >> ctx.order:
            raise ValueError("coefficient bits exceed the reduced length q^e")
        _set_bits(self, bits)
        _set_ctx(self, ctx)

    def __setattr__(self, name, value):
        raise AttributeError("DensePolyF2 is immutable")

    @classmethod
    def zero(cls, ctx: FieldContext) -> "DensePolyF2":
        return cls(ctx, 0)

    @classmethod
    def one(cls, ctx: FieldContext) -> "DensePolyF2":
        return cls(ctx, 1)

    @classmethod
    def from_exponents(cls, ctx: FieldContext, exponents) -> "DensePolyF2":
        bits = 0
        for e in exponents:
            bits ^= 1 << reduce_exponent(e, ctx.order)
        return cls(ctx, bits)

    def support(self) -> list[int]:
        out = []
        bits = self.bits
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out

    def __add__(self, other: "DensePolyF2") -> "DensePolyF2":
        if self.ctx is not other.ctx:
            raise ValueError("operands from different field contexts")
        return DensePolyF2(self.ctx, self.bits ^ other.bits)

    def __mul__(self, other: "DensePolyF2") -> "DensePolyF2":
        ctx = self.ctx
        if ctx is not other.ctx:
            raise ValueError("operands from different field contexts")
        # exponent order+t folds to t+1; one pass suffices below 2*order-1.
        # Clearing the high part by XOR needs no order-bit mask.
        order = ctx.order
        bits = gf2poly._mul(self.bits, other.bits)
        high = bits >> order
        return DensePolyF2(ctx, bits ^ (high << order) ^ (high << 1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DensePolyF2):
            return NotImplemented
        return self.ctx is other.ctx and self.bits == other.bits

    def __hash__(self):
        return hash((self.ctx, self.bits))

    def eval_at(self, x: FieldElement) -> FieldElement:
        """Horner's rule over the q^e coefficient bits."""
        if x.ctx is not self.ctx:
            raise ValueError("point from a different field context")
        if self.bits == 0:
            return self.ctx.zero()
        acc = self.ctx.zero()
        one = self.ctx.one()
        for i in range(self.bits.bit_length() - 1, -1, -1):
            acc = acc * x
            if (self.bits >> i) & 1:
                acc = acc + one
        return acc

    def eval_on_field(self) -> np.ndarray:
        """Values at every field element, indexed by bit pattern."""
        return scan.field_values(self, self.ctx)

    def eval_packed(self, xs, ctx: FieldContext):
        if ctx is not self.ctx:
            raise ValueError("context mismatch")
        return scan.packed_power_sum(ctx, xs, self.support())

    def to_json_obj(self) -> dict:
        return {
            "order": self.ctx.order,
            "terms": [[e, "0x1"] for e in self.support()],
        }

    def __repr__(self):
        n = self.bits.bit_count()
        return f"DensePolyF2({n} terms over {self.ctx!r})"


# the slots' own setters: __init__ writes through them, past the
# __setattr__ that keeps a built DensePolyF2 immutable
_set_bits = DensePolyF2.bits.__set__
_set_ctx = DensePolyF2.ctx.__set__


@per_context
def s_dense(ctx: FieldContext, k: int) -> DensePolyF2:
    """The trace sum S_k as a reduced dense polynomial, cached per context
    (DensePolyF2 is immutable, so every caller may share it)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return DensePolyF2.from_exponents(ctx, (ctx.q ** i for i in range(k)))


# ---------------------------------------------------------------------------
# expression trees


class PolyExpr:
    """Base class for expression-tree nodes."""

    __slots__ = ()

    def eval_packed(self, xs, ctx: FieldContext):
        return _expr_eval_packed(self, xs, ctx)

    def eval_at(self, x: FieldElement) -> FieldElement:
        return expr_eval(self, x)


class LinPoly(PolyExpr):
    """Leaf for the additive map sum(c_i x^(2^i)), coefficients indexed by i < m."""

    __slots__ = ("coeffs", "ctx")

    def __init__(self, ctx: FieldContext, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != ctx.m:
            raise ValueError(f"need exactly m={ctx.m} coefficients")
        for c in coeffs:
            if c.ctx is not ctx:
                raise ValueError("coefficient from a different field context")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "ctx", ctx)

    def __setattr__(self, name, value):
        raise AttributeError("LinPoly is immutable")

    @classmethod
    def from_int_coeffs(cls, ctx: FieldContext, bit_patterns) -> "LinPoly":
        return cls(ctx, [ctx.element(b) for b in bit_patterns])

    def eval_at(self, x: FieldElement) -> FieldElement:
        if x.ctx is not self.ctx:
            raise ValueError("point from a different field context")
        acc = self.ctx.zero()
        y = x
        for c in self.coeffs:
            if c.bits:
                acc = acc + c * y
            y = y.square()
        return acc

    def __eq__(self, other):
        if not isinstance(other, LinPoly):
            return NotImplemented
        return self.ctx is other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx, tuple(c.bits for c in self.coeffs)))

    def __repr__(self):
        terms = [f"{c!r}*x^(2^{i})" for i, c in enumerate(self.coeffs) if c.bits]
        return "LinPoly(" + (" + ".join(terms) if terms else "0") + ")"


@dataclass(frozen=True)
class Var(PolyExpr):
    __slots__ = ()


@dataclass(frozen=True)
class Const(PolyExpr):
    value: FieldElement


@dataclass(frozen=True)
class Add(PolyExpr):
    children: tuple


@dataclass(frozen=True)
class Mul(PolyExpr):
    children: tuple


@dataclass(frozen=True)
class Pow(PolyExpr):
    child: PolyExpr
    n: int


@dataclass(frozen=True)
class FrobQ(PolyExpr):
    child: PolyExpr
    i: int


@dataclass(frozen=True)
class S(PolyExpr):
    k: int
    child: PolyExpr


def expr_eval(g: PolyExpr, x: FieldElement) -> FieldElement:
    """Recursive evaluation of an expression tree at one point."""
    ctx = x.ctx
    if isinstance(g, Var):
        return x
    if isinstance(g, Const):
        if g.value.ctx is not ctx:
            raise ValueError("constant from a different field context")
        return g.value
    if isinstance(g, LinPoly):
        return g.eval_at(x)
    if isinstance(g, Add):
        acc = ctx.zero()
        for c in g.children:
            acc = acc + expr_eval(c, x)
        return acc
    if isinstance(g, Mul):
        acc = ctx.one()
        for c in g.children:
            acc = acc * expr_eval(c, x)
        return acc
    if isinstance(g, Pow):
        return expr_eval(g.child, x) ** g.n
    if isinstance(g, FrobQ):
        return frobenius_q(expr_eval(g.child, x), g.i)
    if isinstance(g, S):
        return eval_S(g.k, expr_eval(g.child, x))
    raise TypeError(f"unknown expression node {g!r}")


def degree_bound(f, m: int) -> int:
    """Upper bound on the algebraic degree of f as a map of GF(2)^m.

    The algebraic degree of x -> x^d is the binary weight of d, and no
    map of m bits has degree above m.  Var and LinPoly are additive
    (degree 1), Const has degree 0, a sum has at most the largest degree
    of its terms and a product at most the sum of its factors' degrees.
    Pow n is a product of wt(n) images of its child under x -> x^(2^i),
    and x^(2^i), FrobQ and S are additive, so they keep the degree; a
    negative n is an inverse and gets only the trivial bound m.
    """
    if isinstance(f, DensePolyF2):
        return min(max((d.bit_count() for d in f.support()), default=0), m)
    if isinstance(f, (Var, LinPoly)):
        return 1
    if isinstance(f, Const):
        return 0
    if isinstance(f, Add):
        return max((degree_bound(c, m) for c in f.children), default=0)
    if isinstance(f, Mul):
        return min(sum(degree_bound(c, m) for c in f.children), m)
    if isinstance(f, Pow):
        if f.n < 0:
            return m
        return min(f.n.bit_count() * degree_bound(f.child, m), m)
    if isinstance(f, (FrobQ, S)):
        return degree_bound(f.child, m)
    raise TypeError(f"no degree bound for {f!r}")


@per_context
def _affine_map(ctx: FieldContext, node: PolyExpr) -> tuple[np.ndarray, np.uint64]:
    """Cached (cols, f(0)) with f(x) = apply_matrix(cols, x) + f(0) for a
    subtree f whose degree_bound is at most 1.

    Sound because such an f has every output bit of algebraic degree at
    most 1, an affine Boolean function b(x) = b(0) + sum of x_j (b(t^j) +
    b(0)) over the input bits x_j.  So column j is f(t^j) + f(0).  Frozen
    nodes hash and compare by structure, so equal trees share one map.
    """
    f0 = expr_eval(node, ctx.zero())
    cols = scan.linear_matrix(ctx, lambda v: expr_eval(node, v) + f0)
    return cols, np.uint64(f0.bits)


def _expr_eval_packed(node: PolyExpr, xs, ctx: FieldContext):
    # affine subtrees, constants included, collapse to one cached bit-matrix
    # application; Var is the identity
    if isinstance(node, Var):
        return xs
    if degree_bound(node, ctx.m) <= 1:
        cols, f0 = _affine_map(ctx, node)
        return scan.apply_matrix(cols, xs) ^ f0
    # a sum or product of degree above 1 has at least one term
    if isinstance(node, Add):
        res = _expr_eval_packed(node.children[0], xs, ctx)
        for c in node.children[1:]:
            res = res ^ _expr_eval_packed(c, xs, ctx)
        return res
    if isinstance(node, Mul):
        res = _expr_eval_packed(node.children[0], xs, ctx)
        for c in node.children[1:]:
            res = scan.packed_mul(ctx, res, _expr_eval_packed(c, xs, ctx))
        return res
    if isinstance(node, Pow):
        return scan.packed_pow(ctx, _expr_eval_packed(node.child, xs, ctx), node.n)
    if isinstance(node, FrobQ):
        # x -> x^(q^i) is additive, so its matrix applies to any values
        return scan.apply_matrix(scan.frobenius_matrix(ctx, node.i),
                                 _expr_eval_packed(node.child, xs, ctx))
    if isinstance(node, S):
        return scan.apply_matrix(scan.s_matrix(ctx, node.k),
                                 _expr_eval_packed(node.child, xs, ctx))
    raise TypeError(f"unknown expression node {node!r}")


def build_t1_g(k: int, ctx: FieldContext) -> PolyExpr:
    """The map S_(k+1)^2 + S_(2k)^(q^k + 1) over GF(4^(3k))."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if ctx.s != 2 or ctx.e != 3 * k:
        raise ValueError(
            f"context must be GF(4^{3 * k}) (s=2, e={3 * k}), got {ctx!r}"
        )
    return t2_map(Pow(S(k + 1, Var()), 2), k)


def t2_map(L: PolyExpr, k: int) -> PolyExpr:
    """The generalized theorem's map L + S_(2k)^(q^k + 1)."""
    s2k = S(2 * k, Var())
    return Add((L, Mul((FrobQ(s2k, k), s2k))))


def funcs_equal_pointwise(f, g, ctx: FieldContext) -> bool:
    """f(x) = g(x) for every x in the field.

    f + g has degree at most the larger degree bound of the two, so
    scan.values_equal decides it on the points of Hamming weight up to
    that bound.  For reduced representations this decides congruence
    mod x^(q^e) - x exactly.
    """
    degree = max(degree_bound(f, ctx.m), degree_bound(g, ctx.m))
    return scan.values_equal(f, g, ctx, degree)


def identity_e1_check(k: int, ctx: FieldContext | None = None) -> bool:
    """Exact check of the squared-trace-sum congruence for g.

    Verifies g(x) + g(x)^(q^2k) = (S_2k(x)^(q^(k+1)))^2 together with the
    two intermediate congruences the derivation chains through.  Each is
    decided by funcs_equal_pointwise: the two intermediate ones are
    additive (degree 1) and the main one has degree 2, so at most the
    1 + m + m(m-1)/2 points of Hamming weight <= 2 are evaluated.
    """
    if k < 2 or k % 2:
        raise UsageError("the identity chain follows the theorem hypothesis: even k >= 2")
    if ctx is None:
        ctx = make_field(2, 3 * k)
    x = Var()
    g = build_t1_g(k, ctx)
    s2k = S(2 * k, x)
    sk1 = S(k + 1, x)

    main_lhs = Add((g, FrobQ(g, 2 * k)))
    main_rhs = Pow(FrobQ(s2k, k + 1), 2)

    mid1_lhs = Add((FrobQ(s2k, k), FrobQ(s2k, 2 * k)))
    mid1_rhs = s2k

    mid2_lhs = Add((Pow(sk1, 2), Pow(FrobQ(sk1, 2 * k), 2)))
    mid2_rhs = Add((Pow(x, 2), Pow(FrobQ(x, k), 2),
                    Pow(s2k, 2), Pow(FrobQ(s2k, k), 2)))

    return (funcs_equal_pointwise(mid1_lhs, mid1_rhs, ctx)
            and funcs_equal_pointwise(mid2_lhs, mid2_rhs, ctx)
            and funcs_equal_pointwise(main_lhs, main_rhs, ctx))


def lin_from_expr(g: PolyExpr, ctx: FieldContext, rng=None) -> LinPoly:
    """Collapse an additive expression into its 2-linearized coefficients.

    Only Add, FrobQ, S, Pow by a power of 2, and Var may appear.  The
    result is cross-checked against direct expression evaluation on 50
    random points before it is returned.
    """
    m = ctx.m

    def twist(vec: list[FieldElement], t: int) -> list[FieldElement]:
        # (sum c_i x^(2^i))^(2^t) = sum c_i^(2^t) x^(2^(i+t mod m))
        out = [ctx.zero()] * m
        for i, c in enumerate(vec):
            if c.bits:
                out[(i + t) % m] = out[(i + t) % m] + c ** (1 << t)
        return out

    def vec_add(a, b):
        return [x + y for x, y in zip(a, b)]

    def build(node: PolyExpr) -> list[FieldElement]:
        if isinstance(node, Var):
            return [ctx.one()] + [ctx.zero()] * (m - 1)
        if isinstance(node, Add):
            acc = [ctx.zero()] * m
            for c in node.children:
                acc = vec_add(acc, build(c))
            return acc
        if isinstance(node, Pow):
            if node.n < 1 or node.n & (node.n - 1):
                raise UsageError(f"Pow exponent {node.n} is not a power of 2")
            return twist(build(node.child), node.n.bit_length() - 1)
        if isinstance(node, FrobQ):
            return twist(build(node.child), ctx.s * (node.i % ctx.e))
        if isinstance(node, S):
            child = build(node.child)
            acc = [ctx.zero()] * m
            for i in range(node.k):
                acc = vec_add(acc, twist(child, ctx.s * (i % ctx.e)))
            return acc
        raise UsageError(f"non-additive node {type(node).__name__} in 2-linearized expression")

    lin = LinPoly(ctx, build(g))
    rng = rng or random.Random(0)
    for _ in range(50):
        x = ctx.random_element(rng)
        if lin.eval_at(x) != expr_eval(g, x):
            raise AssertionError("2-linearized collapse disagrees with the expression")
    return lin
