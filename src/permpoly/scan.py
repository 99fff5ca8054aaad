"""Vectorized whole-field computation over GF(2^m), m <= 30.

Elements travel as uint64 numpy arrays of bit patterns.  Products before
reduction need at most 2m-1 <= 59 bits, so everything fits one word.
Additive (2-linearized) maps are applied through m-column bit matrices;
general products use per-bit carry-less shift-and-add.

Scans are chunked so peak memory stays bounded by a few chunk-sized
arrays; chunk order is fixed, which keeps multi-worker runs byte-identical
to single-worker runs.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .field import FieldContext, FieldElement

DEFAULT_CHUNK = 1 << 20

# order up to this bound gets a full (order x order) power-value table
POWER_TABLE_MAX_ORDER = 1 << 12

_SPREAD_MASKS = (
    (16, np.uint64(0x0000FFFF0000FFFF)),
    (8, np.uint64(0x00FF00FF00FF00FF)),
    (4, np.uint64(0x0F0F0F0F0F0F0F0F)),
    (2, np.uint64(0x3333333333333333)),
    (1, np.uint64(0x5555555555555555)),
)


def _reduction_steps(ctx: FieldContext):
    """Per-bit reduction constants: clearing bit m+j xors in modulus << j."""
    steps = ctx._cache.get("reduction_steps")
    if steps is None:
        m = ctx.m
        steps = tuple(
            (i, np.uint64(ctx._mod_bits << (i - m)))
            for i in range(2 * m - 2, m - 1, -1)
        )
        ctx._cache["reduction_steps"] = steps
    return steps


def _reduce(ctx, x):
    for i, step in _reduction_steps(ctx):
        x = x ^ (((x >> i) & 1) * step)
    return x


def packed_mul(ctx: FieldContext, a, b):
    """Elementwise field product of uint64 arrays (or scalars) a and b."""
    res = None
    aa = a
    for j in range(ctx.m):
        term = ((b >> j) & 1) * aa
        res = term if res is None else res ^ term
        aa = aa << 1
    return _reduce(ctx, res)


def packed_square(ctx: FieldContext, a):
    """Elementwise field square via bit spreading (cheaper than packed_mul)."""
    x = a
    for shift, mask in _SPREAD_MASKS:
        x = (x | (x << shift)) & mask
    return _reduce(ctx, x)


def packed_pow(ctx: FieldContext, a, n: int):
    """Elementwise a^n by square-and-multiply, n >= 0 applied literally."""
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    if n == 0:
        return (a & np.uint64(0)) ^ np.uint64(1)
    res = None
    base = a
    while n:
        if n & 1:
            res = base if res is None else packed_mul(ctx, res, base)
        n >>= 1
        if n:
            base = packed_square(ctx, base)
    return res


def linear_matrix(ctx: FieldContext, fn) -> np.ndarray:
    """Columns of the GF(2)-matrix of an additive map, from basis images."""
    cols = np.empty(ctx.m, dtype=np.uint64)
    for j in range(ctx.m):
        cols[j] = fn(FieldElement(1 << j, ctx)).bits
    return cols


def apply_matrix(cols: np.ndarray, x):
    """Apply a bit-matrix (column form) to packed elements x."""
    res = None
    for j in range(len(cols)):
        term = ((x >> j) & 1) * cols[j]
        res = term if res is None else res ^ term
    return res if res is not None else np.uint64(0)


def frobenius_matrix(ctx: FieldContext, i: int) -> np.ndarray:
    """Cached matrix of x -> x^(q^i)."""
    from .field import frobenius_q

    i %= ctx.e
    key = ("frobq_mat", i)
    cols = ctx._cache.get(key)
    if cols is None:
        cols = linear_matrix(ctx, lambda x: frobenius_q(x, i))
        ctx._cache[key] = cols
    return cols


def s_matrix(ctx: FieldContext, k: int) -> np.ndarray:
    """Cached matrix of the trace sum S_k."""
    from .field import eval_S

    key = ("s_mat", k)
    cols = ctx._cache.get(key)
    if cols is None:
        cols = linear_matrix(ctx, lambda x: eval_S(k, x))
        ctx._cache[key] = cols
    return cols


def trace_bits(ctx: FieldContext, values):
    """Absolute trace of packed elements, as a 0/1 uint64 array."""
    from .field import _trace_mask

    v = values & np.uint64(_trace_mask(ctx))
    for shift in (32, 16, 8, 4, 2, 1):
        v = v ^ (v >> shift)
    return v & np.uint64(1)


def iter_chunks(total: int, chunk_size: int | None = None):
    """Fixed partition of range(total) into [start, stop) chunks."""
    chunk_size = chunk_size or DEFAULT_CHUNK
    for start in range(0, total, chunk_size):
        yield start, min(start + chunk_size, total)


def _evaluator(f):
    if hasattr(f, "eval_packed"):
        return f.eval_packed
    if callable(f):
        return f
    raise TypeError(f"{f!r} is not evaluable on packed element arrays")


def field_values(f, ctx: FieldContext, workers: int = 1,
                 chunk_size: int | None = None) -> np.ndarray:
    """Evaluate f on every field element, in bit-pattern order.

    Returns a uint32 array of length ctx.order; entry i is f(element i).
    Chunks are assigned to workers in fixed order, so the result does not
    depend on the worker count.
    """
    evalf = _evaluator(f)
    out = np.empty(ctx.order, dtype=np.uint32)
    chunks = list(iter_chunks(ctx.order, chunk_size))

    def work(span):
        start, stop = span
        xs = np.arange(start, stop, dtype=np.uint64)
        out[start:stop] = evalf(xs, ctx)

    # first chunk runs inline to warm the matrix caches before threading
    work(chunks[0])
    rest = chunks[1:]
    if workers > 1 and len(rest) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, rest))
    else:
        for span in rest:
            work(span)
    return out


def values_equal(f, g, ctx: FieldContext, chunk_size: int | None = None) -> bool:
    """Pointwise equality of two evaluables over the whole field."""
    evalf = _evaluator(f)
    evalg = _evaluator(g)
    for start, stop in iter_chunks(ctx.order, chunk_size):
        xs = np.arange(start, stop, dtype=np.uint64)
        fv = np.broadcast_to(np.asarray(evalf(xs, ctx)), xs.shape)
        gv = np.broadcast_to(np.asarray(evalg(xs, ctx)), xs.shape)
        if not np.array_equal(fv, gv):
            return False
    return True


def bijection_from_values(values: np.ndarray, order: int,
                          chunk_size: int | None = None):
    """Check that a value array hits every pattern in [0, order) exactly once.

    Marks values in an image bitset chunk by chunk, accounting popcounts so
    a double hit is caught as soon as it is merged.  Returns (True, None)
    or (False, duplicated_value).
    """
    seen = np.zeros(order, dtype=bool)
    marked = 0
    for start, stop in iter_chunks(len(values), chunk_size):
        chunk = values[start:stop]
        uniq = np.unique(chunk)
        if uniq.size != chunk.size:
            sc = np.sort(chunk)
            dup = sc[:-1][sc[1:] == sc[:-1]][0]
            return False, int(dup)
        hits = seen[uniq]
        if hits.any():
            return False, int(uniq[np.argmax(hits)])
        seen[uniq] = True
        marked += uniq.size
    if marked != order:
        # cannot happen when len(values) == order; kept as accounting guard
        return False, None
    return True, None


def power_table(ctx: FieldContext) -> np.ndarray:
    """Table P with P[d][x] = x^d for the whole field; order <= 4096 only.

    Row d is built from row d-1 by one vectorized product, so the table
    doubles as a self-check of packed_mul against iterated multiplication.
    """
    P = ctx._cache.get("power_table")
    if P is None:
        order = ctx.order
        if order > POWER_TABLE_MAX_ORDER:
            raise ValueError(f"power table capped at order {POWER_TABLE_MAX_ORDER}")
        xs = np.arange(order, dtype=np.uint64)
        P = np.empty((order, order), dtype=np.uint16)
        P[0] = 1
        row = xs
        for d in range(1, order):
            P[d] = row
            if d + 1 < order:
                row = packed_mul(ctx, row, xs)
        ctx._cache["power_table"] = P
    return P


def subfield_mask(ctx: FieldContext, k: int) -> np.ndarray:
    """Boolean mask over bit patterns: True iff the element lies in GF(q^k)."""
    if k < 1 or ctx.e % k != 0:
        raise ValueError(f"k={k} does not divide e={ctx.e}")
    key = ("subfield_mask", k)
    mask = ctx._cache.get(key)
    if mask is None:
        cols = frobenius_matrix(ctx, k)
        parts = []
        for start, stop in iter_chunks(ctx.order):
            xs = np.arange(start, stop, dtype=np.uint64)
            parts.append(apply_matrix(cols, xs) == xs)
        mask = np.concatenate(parts)
        ctx._cache[key] = mask
    return mask


def subfield_elements(ctx: FieldContext, k: int) -> np.ndarray:
    """Bit patterns of the q^k elements of GF(q^k), ascending, as uint64."""
    bits = np.flatnonzero(subfield_mask(ctx, k)).astype(np.uint64)
    if bits.size != ctx.q ** k:
        raise AssertionError(
            f"subfield GF(q^{k}) has {bits.size} elements, expected {ctx.q ** k}"
        )
    return bits
