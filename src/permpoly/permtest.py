"""Permutation tests: exhaustive bijection, character sums, shift criterion.

The exhaustive test is the workhorse (linear in the field size); the
additive-character test is quadratic and kept as an independent oracle
for small fields.  Both produce a PPReport.  shift_witness and
kernel_check_case2 instantiate the two case splits used to prove that
the S-power maps permute their fields.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import poly, scan
from .field import (FieldContext, FieldElement, eval_S, frobenius_q,
                    per_context, trace_absolute, trace_to_subfield)

EXHAUSTIVE_MAX_ORDER = 1 << 30
CHARSUM_MAX_ORDER = 1 << 12


@dataclass(frozen=True)
class PPReport:
    """Outcome of one permutation test over one field.

    counterexample holds a collision pair (x1, x2) for the exhaustive
    method or a 1-tuple (a,) with a nonzero character sum for charsum;
    witness is the single element serialized into JSON (the value hit
    twice, respectively the character a).
    """

    is_pp: bool
    method: str
    field: str
    witness: FieldElement | None = None
    counterexample: tuple | None = None
    elapsed_ms: int = 0
    note: str | None = None

    def __post_init__(self):
        if self.method not in ("exhaustive", "charsum"):
            raise ValueError(f"unknown method {self.method!r}")
        if not self.is_pp and (self.witness is None or self.counterexample is None):
            raise ValueError("a failing report must carry its counterexample")

    def to_json_obj(self) -> dict:
        obj = {
            "is_pp": self.is_pp,
            "method": self.method,
            "witness": None if self.witness is None else f"0x{self.witness.bits:x}",
            "field": self.field,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.note is not None:
            obj["note"] = self.note
        return obj


def is_pp_exhaustive(f, ctx: FieldContext, timing: bool = False) -> PPReport:
    """Decide bijectivity by marking every image value once (pigeonhole).

    Only a map that fails pays for its witness: the least value hit
    twice, and the two least elements that map to it, are then read off
    the value array.  A DensePolyF2 of this context is evaluated by its
    own eval_on_field, other maps by scan.field_values.
    """
    if ctx.order > EXHAUSTIVE_MAX_ORDER:
        raise ValueError(f"field order {ctx.order} exceeds the exhaustive-scan ceiling")
    t0 = time.perf_counter()
    values = (f.eval_on_field() if isinstance(f, poly.DensePolyF2) and f.ctx is ctx
              else scan.field_values(f, ctx))
    ok = scan.bijection_from_values(values, ctx.order)
    elapsed = int((time.perf_counter() - t0) * 1000) if timing else 0
    if ok:
        return PPReport(True, "exhaustive", repr(ctx), elapsed_ms=elapsed)
    dup = scan.collision_witness(values, ctx.order)
    hits = np.flatnonzero(values == np.uint32(dup))[:2]
    pair = (ctx.element(int(hits[0])), ctx.element(int(hits[1])))
    return PPReport(False, "exhaustive", repr(ctx), witness=ctx.element(int(dup)),
                    counterexample=pair, elapsed_ms=elapsed)


@per_context
def _trace_rows(ctx: FieldContext) -> tuple[int, ...]:
    """Cached masks of the basis elements: bit j of row i is Tr(t^i * t^j)."""
    basis = [ctx.element(1 << j) for j in range(ctx.m)]
    return tuple(
        sum(trace_absolute(u * v) << j for j, v in enumerate(basis)) for u in basis)


def _trace_functional_mask(ctx: FieldContext, a: FieldElement) -> int:
    """Bit mask M with Tr(a*v) = parity(v & M) for every v (trace is F_2-linear).

    Tr(a*v) is bilinear in (a, v), so M is the XOR of the rows of the
    basis elements t^i over the set bits i of a.
    """
    mask = 0
    for i, row in enumerate(_trace_rows(ctx)):
        if a.bits >> i & 1:
            mask ^= row
    return mask


def charsum_single(f, a: FieldElement, ctx: FieldContext, values=None) -> int:
    """The signed sum over x of (-1)^Tr(a*f(x)); zero for balanced maps."""
    if a.ctx is not ctx:
        raise ValueError("character element from a different field context")
    if values is None:
        values = scan.field_values(f, ctx)
    # m <= 32, so the mask fits the uint32 values
    mask = np.uint32(_trace_functional_mask(ctx, a))
    ones = int((np.bitwise_count(values & mask) & np.uint8(1)).sum())
    return len(values) - 2 * ones


def charsum_pp_test(f, ctx: FieldContext, workers: int = 1,
                    timing: bool = False) -> PPReport:
    """PP test via vanishing of all nontrivial additive character sums.

    f permutes the field iff the sum over x of (-1)^Tr(a*f(x)) is zero
    for every a != 0 (Lidl & Niederreiter, Thm 7.7); the witness of a
    failure is the least a with a nonzero sum.  Tr(a*v) = parity(v &
    M(a)), and M is GF(2)-linear in a (_trace_functional_mask), so the
    masks of every a come from one apply_matrix over the columns
    _trace_rows.  A block of characters is then decided per numpy pass,
    at most DEFAULT_CHUNK // order masks against all order values, so a
    pass holds a few MB even at CHARSUM_MAX_ORDER; charsum_single is the
    same sum for one a.

    Quadratic in the field order, so refused above CHARSUM_MAX_ORDER.
    workers is accepted for a uniform pipeline signature and unused:
    only gnq.search_desirable runs threads.
    """
    if ctx.order > CHARSUM_MAX_ORDER:
        raise ValueError(
            f"character-sum test costs order^2; order {ctx.order} exceeds "
            f"{CHARSUM_MAX_ORDER}"
        )
    t0 = time.perf_counter()
    values = scan.field_values(f, ctx)
    # m <= 12 here, so every mask fits the uint32 values
    masks = scan.apply_matrix(np.array(_trace_rows(ctx), dtype=np.uint64),
                              np.arange(1, ctx.order, dtype=np.uint64)).astype(np.uint32)
    block = max(1, scan.DEFAULT_CHUNK // ctx.order)
    report = PPReport(True, "charsum", repr(ctx))
    for start in range(0, masks.size, block):
        parity = np.bitwise_count(values & masks[start:start + block, None]) & np.uint8(1)
        # a balanced character has order/2 ones; the sum is order - 2 * ones
        unbalanced = np.flatnonzero(np.count_nonzero(parity, axis=1) != ctx.order // 2)
        if unbalanced.size:
            a = ctx.element(start + 1 + int(unbalanced[0]))
            report = PPReport(False, "charsum", repr(ctx), witness=a, counterexample=(a,))
            break
    if timing:
        report = replace(report, elapsed_ms=int((time.perf_counter() - t0) * 1000))
    return report


def shift_witness(g, a: FieldElement, k: int, ctx: FieldContext) -> FieldElement | None:
    """First y in GF(q^k)* making Tr(a*(g(x+y)+g(x))) constantly 1.

    Such a y pairs the terms of the character sum of a*g into cancelling
    halves, so the sum vanishes.  Requires the Case-1 hypothesis that a
    has nonzero trace into GF(q^k).  Returns None when no y qualifies.
    """
    if a.ctx is not ctx:
        raise ValueError("a comes from a different field context")
    if k < 1 or ctx.e % k:
        raise ValueError(f"k={k} must divide e={ctx.e}")
    if not trace_to_subfield(a, k):
        raise ValueError("Case-1 hypothesis violated: Tr_(q^e/q^k)(a) = 0")
    gv = scan.field_values(g, ctx).astype(np.uint64)
    mask = np.uint64(_trace_functional_mask(ctx, a))
    for ybits in scan.subfield_elements(ctx, k):
        if not ybits:
            continue
        constant_one = True
        for start, stop in scan.iter_chunks(ctx.order):
            xs = np.arange(start, stop, dtype=np.uint64)
            diff = gv[xs ^ ybits] ^ gv[start:stop]
            tb = np.bitwise_count(diff & mask) & np.uint8(1)
            if not tb.all():
                constant_one = False
                break
        if constant_one:
            return ctx.element(int(ybits))
    return None


def kernel_check_case2(k: int, ctx: FieldContext) -> bool:
    """The map z -> sum of z^(q^i) for i = k+1..3k vanishes exactly on GF(q^k).

    That sum equals S_2k(z)^(q^(k+1)), an additive map, so its kernel is
    listed from a basis of its matrix (scan.linear_kernel) and compared
    with the elements of GF(q^k).
    """
    if k < 1 or ctx.e != 3 * k:
        raise ValueError(f"context must be GF(q^(3k)) for k={k}, got {ctx!r}")
    cols = scan.linear_matrix(ctx, lambda z: frobenius_q(eval_S(2 * k, z), k + 1))
    return np.array_equal(scan.linear_kernel(cols), scan.subfield_elements(ctx, k))
