"""Polynomial objects over GF(q^e) and their whole-field evaluation.

Three representations, each matched to its access pattern:

* DensePolyF2  -- reduced polynomial with GF(2) coefficients, bit-packed
                  in one int of q^e bits (the shape of g_{n,q}).
* LinPoly      -- 2-linearized coefficient vector of length m, one entry
                  per exponent 2^i.
* PolyExpr     -- expression tree (Var/Const/Add/Mul/Pow/FrobQ/S) kept
                  unexpanded so whole-field scans evaluate S-power
                  combinations in O(k) per point instead of expanding
                  them into thousands of monomials.

All values are immutable after construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import scan
from .field import (FieldContext, FieldElement, UsageError, eval_S,
                    frobenius_q, make_field)


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


def _fold_once(bits: int, order: int) -> int:
    # exponent order+t folds to t+1; one pass suffices below 2*order-1
    return (bits & ((1 << order) - 1)) ^ ((bits >> order) << 1)


class DensePolyF2:
    """Reduced polynomial mod x^(q^e) - x with GF(2) coefficients.

    Coefficients are bit-packed in one int of q^e bits, index = exponent.
    """

    __slots__ = ("bits", "ctx")

    def __init__(self, ctx: FieldContext, bits: int):
        if bits < 0 or bits >> ctx.order:
            raise ValueError("coefficient bits exceed the reduced length q^e")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "ctx", ctx)

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
        if self.ctx is not other.ctx:
            raise ValueError("operands from different field contexts")
        a, b = self.bits, other.bits
        if a.bit_count() < b.bit_count():
            a, b = b, a
        acc = 0
        while b:
            low = b & -b
            acc ^= a << (low.bit_length() - 1)
            b ^= low
        return DensePolyF2(self.ctx, _fold_once(acc, self.ctx.order))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DensePolyF2):
            return NotImplemented
        return self.ctx is other.ctx and self.bits == other.bits

    def __hash__(self):
        return hash((self.ctx._token, self.bits))

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
        ctx = self.ctx
        if ctx.order <= scan.POWER_TABLE_MAX_ORDER:
            rows = scan.power_table(ctx, self.support())
            return np.bitwise_xor.reduce(rows, axis=0).astype(np.uint32)
        return scan.field_values(self, ctx)

    def eval_packed(self, xs, ctx: FieldContext):
        if ctx is not self.ctx:
            raise ValueError("context mismatch")
        acc = np.zeros(np.shape(xs), dtype=np.uint64)
        for d in self.support():
            acc ^= scan.packed_pow(ctx, xs, d)
        return acc

    def to_json_obj(self) -> dict:
        return {
            "order": self.ctx.order,
            "terms": [[e, "0x1"] for e in self.support()],
        }

    def __repr__(self):
        n = self.bits.bit_count()
        return f"DensePolyF2({n} terms over {self.ctx!r})"


def s_dense(ctx: FieldContext, k: int) -> DensePolyF2:
    """The trace sum S_k as a reduced dense polynomial."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return DensePolyF2.from_exponents(ctx, (ctx.q ** i for i in range(k)))


# ---------------------------------------------------------------------------
# 2-linearized polynomials


class LinPoly:
    """Additive map sum(c_i x^(2^i)), coefficients indexed by i < m."""

    __slots__ = ("coeffs", "ctx", "_matrix")

    def __init__(self, ctx: FieldContext, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != ctx.m:
            raise ValueError(f"need exactly m={ctx.m} coefficients")
        for c in coeffs:
            if c.ctx is not ctx:
                raise ValueError("coefficient from a different field context")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "_matrix", None)

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

    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            object.__setattr__(self, "_matrix",
                               scan.linear_matrix(self.ctx, self.eval_at))
        return self._matrix

    def eval_packed(self, xs, ctx: FieldContext):
        if ctx is not self.ctx:
            raise ValueError("context mismatch")
        return scan.apply_matrix(self.matrix(), xs)

    def __eq__(self, other):
        if not isinstance(other, LinPoly):
            return NotImplemented
        return self.ctx is other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx._token, tuple(c.bits for c in self.coeffs)))

    def __repr__(self):
        terms = [f"{c!r}*x^(2^{i})" for i, c in enumerate(self.coeffs) if c.bits]
        return "LinPoly(" + (" + ".join(terms) if terms else "0") + ")"


# ---------------------------------------------------------------------------
# expression trees


class PolyExpr:
    """Base class for expression-tree nodes."""

    __slots__ = ()

    def eval_packed(self, xs, ctx: FieldContext):
        return _expr_eval_packed(self, xs, ctx)

    def eval_at(self, x: FieldElement) -> FieldElement:
        return expr_eval(self, x)


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


def _is_additive(node: PolyExpr) -> bool:
    """True for subtrees denoting GF(2)-additive maps (no Mul, no Const)."""
    if isinstance(node, Var):
        return True
    if isinstance(node, Add):
        return all(_is_additive(c) for c in node.children)
    if isinstance(node, Pow):
        return node.n >= 1 and node.n & (node.n - 1) == 0 and _is_additive(node.child)
    if isinstance(node, FrobQ):
        return _is_additive(node.child)
    if isinstance(node, S):
        return _is_additive(node.child)
    return False


def _additive_matrix(node: PolyExpr, ctx: FieldContext) -> np.ndarray:
    # frozen nodes hash and compare by structure, so equal trees share a matrix
    key = ("expr_mat", node)
    cols = ctx._cache.get(key)
    if cols is None:
        cols = scan.linear_matrix(ctx, lambda v: expr_eval(node, v))
        ctx._cache[key] = cols
    return cols


def _expr_eval_packed(node: PolyExpr, xs, ctx: FieldContext):
    # additive subtrees collapse to one cached bit-matrix application
    if _is_additive(node):
        if isinstance(node, Var):
            return xs
        return scan.apply_matrix(_additive_matrix(node, ctx), xs)
    if isinstance(node, Const):
        if node.value.ctx is not ctx:
            raise ValueError("constant from a different field context")
        return np.uint64(node.value.bits)
    if isinstance(node, Add):
        res = None
        for c in node.children:
            v = _expr_eval_packed(c, xs, ctx)
            res = v if res is None else res ^ v
        return res if res is not None else np.uint64(0)
    if isinstance(node, Mul):
        res = None
        for c in node.children:
            v = _expr_eval_packed(c, xs, ctx)
            res = v if res is None else scan.packed_mul(ctx, res, v)
        return res if res is not None else np.uint64(1)
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
    x = Var()
    s2k = S(2 * k, x)
    return Add((Pow(S(k + 1, x), 2), Mul((FrobQ(s2k, k), s2k))))


def funcs_equal_pointwise(f, g, ctx: FieldContext) -> bool:
    """f(x) = g(x) for every x in the field.

    When both sides are additive expressions, their bit matrices are
    compared.  This is exact: an additive map is fixed by its images of
    the basis t^0..t^(m-1), which are the matrix columns, and packed
    evaluation of an additive node is apply_matrix of that same matrix.
    Otherwise the whole field is scanned.  For reduced representations
    either way decides congruence mod x^(q^e) - x exactly.
    """
    if _is_additive(f) and _is_additive(g):
        return np.array_equal(_additive_matrix(f, ctx), _additive_matrix(g, ctx))
    return scan.values_equal(f, g, ctx)


def identity_e1_check(k: int, ctx: FieldContext | None = None) -> bool:
    """Whole-field check of the squared-trace-sum congruence for g.

    Verifies g(x) + g(x)^(q^2k) = (S_2k(x)^(q^(k+1)))^2 together with the
    two intermediate congruences the derivation chains through.  Those two
    are additive, so funcs_equal_pointwise decides them from bit matrices;
    the main congruence contains a product and is scanned.
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
