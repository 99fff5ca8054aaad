"""Vectorized whole-field computation over GF(2^m), m <= 30.

Elements travel as uint64 numpy arrays of bit patterns.  Products before
reduction need at most 2m-1 <= 59 bits, so everything fits one word.
Additive (2-linearized) maps are applied through m-column bit matrices;
products use per-bit carry-less shift-and-add, powers discrete-log tables.

Scans are chunked so peak memory stays bounded by a few chunk-sized
arrays; chunk order is fixed, which keeps multi-worker runs byte-identical
to single-worker runs.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .field import FieldContext, FieldElement

DEFAULT_CHUNK = 1 << 20

# order up to this bound gets a per-context (order x order) power-value table,
# filled one row per exponent read
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


def log_tables(ctx: FieldContext):
    """Cached (log, antilog) of the least generator g of the nonzero elements.

    antilog[i] = g^i for i < order-1, built by doubling with packed_mul;
    log[x] = i for x != 0.  Both are uint32, 8 bytes per element.  A
    candidate is kept only if its powers hit every nonzero element, so a
    non-generator is never cached: under a non-primitive modulus such as
    GF(2^8)'s x^8+x^4+x^3+x+1, t = 2 has order 51 and g is 3.
    """
    tables = ctx._cache.get("log_tables")
    if tables is None:
        order = ctx.order
        for g in range(2, order) if order > 2 else (1,):
            antilog = np.ones(order - 1, dtype=np.uint64)
            step, k = np.uint64(g), 1
            while k < order - 1:
                n = min(k, order - 1 - k)
                antilog[k:k + n] = packed_mul(ctx, antilog[:n], step)
                step, k = packed_mul(ctx, step, step), k + n
            log = np.zeros(order, dtype=np.uint32)
            log[antilog] = np.arange(order - 1, dtype=np.uint32)
            # a missed x keeps log[x] = 0, and antilog[0] = 1 != x
            if np.array_equal(antilog[log[1:]], np.arange(1, order)):
                break
        else:
            raise AssertionError(f"no generator of the nonzero elements of {ctx!r}")
        tables = ctx._cache["log_tables"] = (log, antilog.astype(np.uint32))
    return tables


def packed_pow(ctx: FieldContext, a, n):
    """Elementwise a^n = antilog[log[a] * n mod (order-1)], n >= 0 applied
    literally: 0^n is 0 for n >= 1, and x^0 = 1 everywhere.

    n is an int or an integer array that broadcasts against a; exponents
    of shape (k, 1) against a of shape (N,) give k rows of N powers.
    """
    if isinstance(n, int):
        negative = n < 0
    else:
        n = np.asarray(n, dtype=np.int64)
        negative = bool((n < 0).any())
    if negative:
        raise ValueError("exponent must be nonnegative")
    log, antilog = log_tables(ctx)
    cyc = ctx.order - 1
    res = antilog[log[a].astype(np.uint64) * np.uint64(n % cyc) % np.uint64(cyc)]
    # log[0] = 0 reads 1 at a = 0; 0^n is 1 only for n = 0
    return np.where(a == 0, np.uint64(n == 0), res.astype(np.uint64))


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


def iter_chunks(total: int):
    """Fixed partition of range(total) into [start, stop) chunks."""
    for start in range(0, total, DEFAULT_CHUNK):
        yield start, min(start + DEFAULT_CHUNK, total)


def _evaluator(f):
    if hasattr(f, "eval_packed"):
        return f.eval_packed
    if callable(f):
        return f
    raise TypeError(f"{f!r} is not evaluable on packed element arrays")


def field_values(f, ctx: FieldContext, workers: int = 1) -> np.ndarray:
    """Evaluate f on every field element, in bit-pattern order.

    Returns a uint32 array of length ctx.order; entry i is f(element i).
    Chunks are assigned to workers in fixed order, so the result does not
    depend on the worker count.
    """
    evalf = _evaluator(f)
    out = np.empty(ctx.order, dtype=np.uint32)
    chunks = list(iter_chunks(ctx.order))

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


def values_equal(f, g, ctx: FieldContext) -> bool:
    """Pointwise equality of two evaluables over the whole field."""
    evalf = _evaluator(f)
    evalg = _evaluator(g)
    for start, stop in iter_chunks(ctx.order):
        xs = np.arange(start, stop, dtype=np.uint64)
        fv = np.broadcast_to(np.asarray(evalf(xs, ctx)), xs.shape)
        gv = np.broadcast_to(np.asarray(evalg(xs, ctx)), xs.shape)
        if not np.array_equal(fv, gv):
            return False
    return True


def bijection_from_values(values: np.ndarray, order: int) -> bool:
    """Whether an array of order values hits every pattern in [0, order).

    One scatter marks the image.  If every pattern is marked, the order
    values cover order patterns, so by pigeonhole each is hit exactly
    once.
    """
    if len(values) != order:
        raise ValueError(f"need exactly {order} values, got {len(values)}")
    seen = np.zeros(order, dtype=bool)
    seen[values] = True
    return bool(seen.all())


def collision_witness(values: np.ndarray, order: int) -> int:
    """The least value in [0, order) that the array hits twice.

    Hits per value are counted in a saturating uint8 counter, one chunk of
    values at a time, so memory stays at the counter plus one chunk.
    """
    counts = np.zeros(order, dtype=np.uint8)
    for start, stop in iter_chunks(len(values)):
        uniq, hits = np.unique(values[start:stop], return_counts=True)
        counts[uniq] = np.minimum(counts[uniq] + hits, 2)
    # argmax returns the first index of the maximum
    dup = int(np.argmax(counts))
    if counts[dup] < 2:
        raise ValueError("no value is hit twice")
    return dup


def power_table(ctx: FieldContext, exponents) -> np.ndarray:
    """Rows P[i][x] = x^exponents[i] over the whole field; order <= 4096 only.

    The per-context table fills a row the first time it is read, all
    missing rows of a call in one packed_pow call (in blocks of at most
    DEFAULT_CHUNK values), so a context pays only for the exponents it
    reads: 8 KB per row at order 4096.  A row is written before its
    exponent joins the filled set, so threads sharing the context never
    read an unfilled row; two threads that fill the same row write the
    same values.
    """
    order = ctx.order
    if order > POWER_TABLE_MAX_ORDER:
        raise ValueError(f"power table capped at order {POWER_TABLE_MAX_ORDER}")
    cached = ctx._cache.get("power_table")
    if cached is None:
        # zeroed pages are only committed when a row is written
        cached = ctx._cache.setdefault(
            "power_table", (np.zeros((order, order), dtype=np.uint16), set()))
    table, filled = cached
    if not filled.issuperset(exponents):
        missing = set(exponents).difference(filled)
        xs = np.arange(order, dtype=np.uint64)
        rows = np.fromiter(missing, dtype=np.int64, count=len(missing))
        step = max(1, DEFAULT_CHUNK // order)
        for start in range(0, rows.size, step):
            block = rows[start:start + step]
            table[block] = packed_pow(ctx, xs, block[:, None])
        filled.update(missing)
    return table[exponents]


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
