"""Vectorized whole-field computation over GF(2^m), m <= 32.

Elements travel as uint64 numpy arrays of bit patterns.  Products before
reduction need at most 2m-1 <= 63 bits, so everything fits one word.
Additive (2-linearized) maps are applied through m-column bit matrices;
products use per-bit carry-less shift-and-add, powers discrete-log tables.

Scans are chunked so peak memory stays bounded by a few chunk-sized
arrays.  field_values alone decides how a map is evaluated on the whole
field: a map of algebraic degree at most 2 from three tables over pairs
of bit blocks checked against direct evaluation at SPOT_CHECK_POINTS
fixed points, anything else directly.  permutes_each decides dense
polynomials with GF(2) coefficients on one point per orbit of x -> x^2,
a block of maps at a time with at most BLOCK_IDS orbit ids in all, and
never scans the whole field; its docstring gives the argument.
power_sum_identity alone decides the oracle's identity, on coset
representatives or on the Hamming ball of its degree, whichever is
smaller; its docstring gives the argument for both point sets.  Both read
their values from one store of rows packed into ints (_power_row_sum),
kept per context within POWER_ROW_BUDGET bytes; the rows that the maps
of one call miss are built together, from one log gather of their points
(_build_rows).
"""

from __future__ import annotations

import collections
import functools
import math
import threading

import numpy as np

# poly imports scan as well; scan reads poly's names only when called
from . import gf2poly, poly
from .field import FieldContext, FieldElement, UsageError, eval_S, frobenius_q, per_context

DEFAULT_CHUNK = 1 << 20

# fixed points at which field_values checks a block-table value array
# against direct evaluation
SPOT_CHECK_POINTS = (1 << 12) - 1

# bytes of packed rows that one context keeps, over all its point sets
POWER_ROW_BUDGET = 64 << 20

# orbit ids that permutes_each decides together, over a block of maps
BLOCK_IDS = 1 << 14

# values that collision_witness counts at a time
WITNESS_SLICE = 1 << 16

# bytes that a log_tables build may hold at its peak: 2^28 elements
LOG_TABLE_BOUND = 4 << 30


@per_context
def _reduction_steps(ctx: FieldContext):
    """Per-bit reduction constants: clearing bit m+j xors in modulus << j."""
    m = ctx.m
    return tuple(
        (i, np.uint64(ctx._mod_bits << (i - m)))
        for i in range(2 * m - 2, m - 1, -1)
    )


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


@per_context
def log_tables(ctx: FieldContext):
    """Cached (log, antilog) of the least generator g of the nonzero elements.

    antilog[i] = g^i for i < order-1, built once by doubling with
    packed_mul, one iter_chunks slice at a time, each widened to uint64
    only for the product; log[x] = i for x != 0.  The build peaks at 12
    bytes per element (antilog, log and the arange scattered into it, all
    uint32); past LOG_TABLE_BOUND, m >= 29 and so every order that uint32
    cannot index, a UsageError refuses the field before order-1 is
    factored or anything is allocated.  t generates iff t^((order-1)/p)
    != 1 for every prime p | order-1: under GF(2^8)'s non-primitive
    x^8+x^4+x^3+x+1, t = 2 has order 51 and g is 3.  One scatter checks
    it: when the order-1 powers hit every nonzero element, by pigeonhole
    each is hit once and 0 is not.
    """
    order = ctx.order
    if 12 * order > LOG_TABLE_BOUND:
        raise UsageError(f"log tables of {ctx!r} would hold {12 * order} bytes at their "
                         f"peak, above the bound of {LOG_TABLE_BOUND}")
    cyc = order - 1
    cofactors = [cyc // p for p in gf2poly._prime_factors(cyc)]
    g = next((t for t in range(2, order) if all(
        gf2poly._powmod(t, c, ctx._mod_bits) != 1 for c in cofactors)), 1)
    antilog = np.ones(cyc, dtype=np.uint32)
    step, k = np.uint64(g), 1
    while k < cyc:
        n = min(k, cyc - k)
        for start, stop in iter_chunks(n):
            antilog[k + start:k + stop] = packed_mul(
                ctx, antilog[start:stop].astype(np.uint64), step)
        step, k = packed_mul(ctx, step, step), k + n
    log = np.zeros(order, dtype=np.uint32)
    log[antilog] = np.arange(cyc, dtype=np.uint32)
    hit = np.zeros(order, dtype=bool)
    hit[antilog] = True
    if not hit[1:].all():
        raise AssertionError(f"{g} does not generate the nonzero elements of {ctx!r}")
    return log, antilog


def packed_pow(ctx: FieldContext, a, n: int):
    """Elementwise a^n for an int n >= 0; see packed_power_sum."""
    return packed_power_sum(ctx, a, (n,))


def packed_power_sum(ctx: FieldContext, a, exponents):
    """Elementwise XOR over the exponents d of a^d, each d an int >= 0,
    applied literally: 0^d is 0 for d >= 1, and x^0 = 1 everywhere.  The
    powers come from _powers, one log gather of a for all of them; no
    exponents give zeros without a log-table build."""
    exponents = [int(d) for d in exponents]
    if any(d < 0 for d in exponents):
        raise ValueError("exponent must be nonnegative")
    a = np.asarray(a, dtype=np.uint64)
    acc = np.zeros(a.shape, dtype=np.uint64)
    if exponents:
        for term in _powers(ctx, a, exponents):
            acc ^= term
    return acc


def _powers(ctx: FieldContext, a: np.ndarray, exponents):
    """a^d for each d of exponents in turn, as uint32 in the shape of a, a
    uint64 array, from one log gather of a: x^d = antilog[log[x] * d mod
    (order-1)] for x != 0.  log[0] = 0 reads 1 at x = 0, which is 0^d
    only for d = 0, so the powers of each d >= 1 are masked by x != 0."""
    log, antilog = log_tables(ctx)
    cyc = ctx.order - 1
    # int64 views index without a cast: points and logs are below 2^32
    lg = log.take(a.view(np.int64)).astype(np.uint64)
    nonzero = a != 0
    for d in exponents:
        idx = lg * (d % cyc)
        idx %= cyc
        term = antilog.take(idx.view(np.int64))
        if d:
            term *= nonzero
        yield term


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
    """Cached matrix of x -> x^(q^i); i is taken mod e, so i and i + e
    share one matrix."""
    return _frobenius_matrix(ctx, i % ctx.e)


@per_context
def _frobenius_matrix(ctx: FieldContext, i: int) -> np.ndarray:
    return linear_matrix(ctx, lambda x: frobenius_q(x, i))


@per_context
def s_matrix(ctx: FieldContext, k: int) -> np.ndarray:
    """Cached matrix of the trace sum S_k."""
    return linear_matrix(ctx, lambda x: eval_S(k, x))


def iter_chunks(total: int):
    """Fixed partition of range(total) into [start, stop) chunks."""
    for start in range(0, total, DEFAULT_CHUNK):
        yield start, min(start + DEFAULT_CHUNK, total)


@functools.cache
def _spot_points(m: int) -> np.ndarray:
    """SPOT_CHECK_POINTS well-spread m-bit patterns, read-only, cached per
    m: the top m bits of i * 2^64/phi for i = 1, 2, ... (Fibonacci hashing).
    They are distinct for m >= 13: by the three-distance theorem the
    fractions {i/phi}, i <= 4095, lie at least ||2584/phi|| > 2^-13 apart
    (2584 the largest Fibonacci number <= 4095).  At m = 12 only 3657 are;
    permutes samples only where the orbit representatives outnumber them,
    which is m >= 16, and reads f's values there from the row store
    (_sample_points)."""
    i = np.arange(1, SPOT_CHECK_POINTS + 1, dtype=np.uint64)
    pts = (i * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(64 - m)
    pts.flags.writeable = False
    return pts


def _block_values(f, ctx: FieldContext, b0: int, b1: int, b2: int) -> np.ndarray:
    """Values of a map of degree <= 2 from its three pair tables; see
    field_values.  One eval_packed call fills the tables and the spot
    check's direct values."""
    n0, n1, n2 = 1 << b0, 1 << b1, 1 << b2
    x0 = np.arange(n0, dtype=np.uint64)
    x2 = np.arange(n2, dtype=np.uint64) << np.uint64(b0 + b1)
    spots = _spot_points(ctx.m)
    pts = np.concatenate((
        np.arange(n0 * n1, dtype=np.uint64),                      # x0 | x1
        (x2[:, None] | x0).ravel(),                                # x0 | x2
        np.arange(n1 * n2, dtype=np.uint64) << np.uint64(b0),    # x1 | x2
        spots,
    ))
    vals = np.broadcast_to(np.asarray(f.eval_packed(pts, ctx)), pts.shape)
    t01, t02, t12, direct = np.split(vals.astype(np.uint32),
                                     np.cumsum((n0 * n1, n0 * n2, n1 * n2)))
    t01, t02, t12 = t01.reshape(n1, n0), t02.reshape(n2, n0), t12.reshape(n2, n1)
    # F(x0), F(x1), F(x2) and F(0) are the pair tables' rows and columns at
    # 0; fold each into one table so the broadcast makes two passes
    p01 = t01 ^ t01[0]
    p12 = t12 ^ t12[0]
    p02 = t02 ^ t02[:, :1] ^ t01[0, 0]
    out = np.empty((n2, n1, n0), dtype=np.uint32)
    np.bitwise_xor(p01, p02[:, None, :], out=out)
    out ^= p12[:, :, None]
    out = out.reshape(-1)
    if not np.array_equal(out[spots], direct):
        raise AssertionError(
            f"block tables of a degree-2 map disagree with direct evaluation over {ctx!r}; "
            f"its degree bound is wrong"
        )
    return out


def field_values(f, ctx: FieldContext) -> np.ndarray:
    """Evaluate f on every field element, in bit-pattern order.

    Returns a uint32 array of length ctx.order; entry i is f(element i).

    A map whose poly.degree_bound is at most 2 is assembled from
    block tables whenever they need fewer points than the field has.
    Split the m bits into blocks of b0 = m // 3, b1 = (m - b0) // 2 and
    b2 = m - b0 - b1 bits, x = x0 | x1 | x2.  Every third-order
    derivative of a map of degree <= 2 vanishes; the one at 0 in the
    directions x0, x1, x2, which are disjoint, gives

        F(x0+x1+x2) = F(x0+x1) + F(x0+x2) + F(x1+x2)
                      + F(x0) + F(x1) + F(x2) + F(0).

    The pair tables T01[x1, x0], T02[x2, x0] and T12[x2, x1] hold every
    term on the right: the single terms and F(0) are their rows and
    columns at 0, so a constant term needs no special case.  The value
    array is the broadcast XOR of the terms, shaped (2^b2, 2^b1, 2^b0) in
    C order, which is bit-pattern order.  The same eval_packed call
    evaluates f directly at SPOT_CHECK_POINTS fixed points, and any
    disagreement raises AssertionError.  A wrong array differs from f on
    at least a 2^-D fraction of the field, D the true degree of f
    (Reed-Muller distance), so 4095 points miss a wrong bound for D <= 8
    with probability at most (1 - 2^-8)^4095 < e^-16.

    Other maps, a DensePolyF2 among them, are evaluated directly, chunk by
    chunk, and nothing is kept.
    """
    m = ctx.m
    b0 = m // 3
    b1 = (m - b0) // 2
    b2 = m - b0 - b1
    block_points = (1 << (b0 + b1)) + (1 << (b0 + b2)) + (1 << (b1 + b2))
    if block_points + SPOT_CHECK_POINTS < ctx.order and poly.degree_bound(f, m) <= 2:
        return _block_values(f, ctx, b0, b1, b2)

    out = np.empty(ctx.order, dtype=np.uint32)
    for start, stop in iter_chunks(ctx.order):
        xs = np.arange(start, stop, dtype=np.uint64)
        out[start:stop] = f.eval_packed(xs, ctx)
    return out


# one context's rows for the point set points(ctx, *args): kept maps d to
# row d, budget is its _kept_row_bytes, dtype is <u2 up to m = 16, else <u4
_Rows = collections.namedtuple("_Rows", "kept points args budget dtype")


@per_context
def _power_rows(ctx: FieldContext, points, *args) -> _Rows:
    """The rows kept for the point set points(ctx, *args), d -> row d, each
    packed by _pack in fields of dtype.  A point set returns (xs,
    shifts): row d holds x^d at each x of xs or, if shifts is a column,
    the sum of (x + a)^d over its a.  The point sets are _orbit_points
    and _sample_points (permutes) and, per radius, _oracle_images and
    _oracle_translates (power_sum_identity).  Rows are inserted whole
    under the lock of _kept_row_bytes, so no thread reads a partial one."""
    return _Rows({}, points, args, _kept_row_bytes(ctx), np.dtype("<u2" if ctx.m <= 16 else "<u4"))


@per_context
def _kept_row_bytes(ctx: FieldContext) -> tuple[list[int], threading.Lock]:
    """([bytes of the rows ctx keeps], the lock of each insert into them)."""
    return [0], threading.Lock()


def _power_row_sum(ctx: FieldContext, rows: _Rows, supports) -> list[int]:
    """[XOR over the exponents d of row d of rows, for each exponent
    iterable of supports]; rows is a _power_rows of ctx, and each sum is
    one int XOR per row, each value in its own field of rows.dtype.  The
    rows that the maps miss are built together, in one _build_rows pass.
    The first of them are kept while the context's rows, over all point
    sets, still fit POWER_ROW_BUDGET bytes; the others serve this call and
    are dropped, so no verdict depends on the budget."""
    kept = rows.kept
    sums = []
    odd = {}  # missing d -> {map: whether it reads row d an odd number of times}
    for exponents in supports:
        acc = 0
        for d in exponents:
            row = kept.get(d)
            if row is None:
                reads, j = odd.setdefault(d, {}), len(sums)
                reads[j] = not reads.get(j)
            else:
                acc ^= row
        sums.append(acc)
    if not odd:
        return sums
    missing = list(odd)
    nbytes = rows.dtype.itemsize * rows.points(ctx, *rows.args)[0].size
    total, lock = rows.budget
    # a plan, read without the lock; each insert below checks it again
    keep = missing[:max(0, (POWER_ROW_BUDGET - total[0]) // nbytes)]
    drop = {d: js for d in missing[len(keep):] if (js := [j for j, o in odd[d].items() if o])}
    built, dropped = _build_rows(ctx, rows, keep, drop)
    with lock:
        for d, row in zip(keep, built):
            if d not in kept and total[0] + nbytes <= POWER_ROW_BUDGET:
                total[0] += nbytes
                kept[d] = row
    for d, row in zip(keep, built):
        for j, o in odd[d].items():
            if o:
                sums[j] ^= row
    for j, row in enumerate(dropped):
        sums[j] ^= row
    return sums


def _build_rows(ctx: FieldContext, rows: _Rows, keep, drop) -> tuple[list[int], list[int]]:
    """([row d of rows for each d of keep], [XOR of the rows of drop that
    map j reads, for j = 0 up to the last map that drop names]), packed as
    _power_row_sum reads them, in one pass per iter_chunks slice of the
    points; drop maps each of its exponents d to the maps that read row d.

    One log gather of the slice's points, shifted points included, serves
    every exponent (_powers).  The rows of keep are written into their
    own arrays and the rows of drop XORed into one more per map, so memory
    stays at the kept rows, one row per map and a few slice-sized
    temporaries, never one row per exponent of drop."""
    xs, shifts = rows.points(ctx, *rows.args)
    exponents = (*keep, *drop)
    readers = [np.array(js, dtype=np.intp) for js in drop.values()]
    maps = 1 + max(max(js) for js in drop.values()) if drop else 0
    out = [np.empty(xs.size, dtype=rows.dtype) for _ in keep]
    acc = np.zeros((maps, xs.size), dtype=rows.dtype)
    for start, stop in iter_chunks(xs.size):
        pts = xs[start:stop] if shifts is None else shifts ^ xs[start:stop]
        for i, term in enumerate(_powers(ctx, pts, exponents)):
            if shifts is not None:
                term = np.bitwise_xor.reduce(term, axis=0)
            if i < len(out):
                out[i][start:stop] = term
            else:
                acc[readers[i - len(out)], start:stop] ^= term
    packed = []
    while out:  # each array is released once packed
        packed.append(_pack(out.pop(0), rows.dtype))
    return packed, [_pack(row, rows.dtype) for row in acc]


def _pack(values: np.ndarray, dtype: np.dtype) -> int:
    """Values that fit dtype, a little-endian unsigned type, as one int
    whose fields of that type hold them in order; _unpack inverts it."""
    return int.from_bytes(values.astype(dtype, copy=False).tobytes(), "little")


def _unpack(packed: list[int], size: int, dtype: np.dtype) -> np.ndarray:
    """The size values that _pack packed into each int of packed, one row
    per int, as a read-only (len(packed), size) array of dtype."""
    nbytes = dtype.itemsize * size
    data = b"".join([p.to_bytes(nbytes, "little") for p in packed])
    return np.frombuffer(data, dtype=dtype).reshape(len(packed), size)


def values_equal(f, g, ctx: FieldContext, degree: int) -> bool:
    """Whether f = g on the whole field, given that f + g has algebraic
    degree at most degree.

    Only the points of Hamming weight <= degree are evaluated; degree
    >= m scans the whole field.  That is exact (Reed-Muller): write one
    output bit of h = f + g as a Boolean function of the m input bits.
    By Moebius inversion its algebraic normal form has the coefficient
    a_u = XOR of h(v) over the v whose bits lie inside u.  Degree <= d
    means a_u = 0 for wt(u) > d, and for wt(u) <= d each such v has
    wt(v) <= d.  So if h vanishes on the points of weight <= d, every
    coefficient vanishes, and h is zero everywhere.
    """
    if degree >= ctx.m:
        chunks = (np.arange(start, stop, dtype=np.uint64)
                  for start, stop in iter_chunks(ctx.order))
    else:
        ball = _hamming_ball(ctx.m, degree)
        chunks = (ball[start:stop] for start, stop in iter_chunks(ball.size))
    for xs in chunks:
        fv = np.broadcast_to(np.asarray(f.eval_packed(xs, ctx)), xs.shape)
        gv = np.broadcast_to(np.asarray(g.eval_packed(xs, ctx)), xs.shape)
        if not np.array_equal(fv, gv):
            return False
    return True


def _ball_size(m: int, radius: int) -> int:
    """Number of m-bit patterns of Hamming weight <= radius."""
    return sum(math.comb(m, i) for i in range(radius + 1))


@functools.cache
def _hamming_ball(m: int, radius: int) -> np.ndarray:
    """The m-bit patterns of Hamming weight <= radius, ascending, as a
    read-only uint64 array, built once per (m, radius).

    Built level by level: a nonzero pattern of weight <= w + 1 with top bit
    j is 2^j OR a pattern below 2^j of weight <= w.  Those are a prefix of
    the ascending ball of radius w, and the blocks for j = 0, 1, ... are
    ascending and lie in [2^j, 2^(j+1)), so each level comes out ascending
    and distinct without a sort.
    """
    ball = np.zeros(1, dtype=np.uint64)
    for _ in range(min(radius, m)):
        ball = np.concatenate([ball[:1]] + [
            ball[:np.searchsorted(ball, 1 << j)] | np.uint64(1 << j) for j in range(m)])
    ball.flags.writeable = False
    return ball


def bijection_from_values(values: np.ndarray, order: int):
    """Whether an array of order values hits every pattern in [0, order);
    for a (B, order) array, the list of B such verdicts, one per row.

    One scatter marks the image of every row, and one count of the marks
    per row reads it.  If every pattern is marked, the order values of a
    row cover order patterns, so by pigeonhole each is hit exactly once.
    """
    if values.shape[-1] != order:
        raise ValueError(f"need exactly {order} values, got {values.shape[-1]}")
    if values.ndim == 1:
        seen = np.zeros(order, dtype=bool)
        seen[values] = True
        return int(np.count_nonzero(seen)) == order
    # row i marks its values at i * order + v of one flat array
    flat = values + np.arange(0, values.size, order, dtype=np.intp)[:, None]
    seen = np.zeros(values.shape, dtype=bool)
    seen.reshape(-1)[flat] = True
    return (np.count_nonzero(seen, axis=1) == order).tolist()


def block_size(ctx: FieldContext) -> int:
    """The number of maps that permutes_each decides together over ctx:
    as many as give at most BLOCK_IDS orbit ids in all, and at least one."""
    return max(1, BLOCK_IDS // _orbit_classes(ctx)[0].size)


def permutes(f, ctx: FieldContext) -> bool:
    """Whether the DensePolyF2 f permutes the field: permutes_each([f], ctx)[0]."""
    return permutes_each([f], ctx)[0]


def permutes_each(fs, ctx: FieldContext) -> list[bool]:
    """[whether f permutes the field, for each DensePolyF2 f of fs],
    decided exactly on one point per orbit of x -> x^2; any other f raises
    TypeError, one of another context ValueError.

    f has GF(2) coefficients, so f(x^2) = f(x)^2: f maps the orbit O(x)
    of x onto O(f(x)), and |O(f(x))| <= |O(x)|.  Each value v gets an
    orbit id from a table indexed by v itself (_orbit_classes): the class
    of log(v) under doubling, and one more id for v = 0.  If the values
    at the R + 1 representatives (R nonzero classes and the point 0) have
    distinct ids, f induces a bijection on the orbits.  The orbit sizes
    then sum to the field order on both sides, and no image orbit is
    larger than its source, so every size matches: f maps each orbit onto
    its image bijectively, and f is injective.  If two ids are equal, two
    distinct orbits share an image orbit, so two distinct points share a
    value.  So the verdict is bijection_from_values on the R + 1 ids, and
    every True and every False is exhaustive.

    The maps are decided a block_size block at a time, so a block holds
    at most BLOCK_IDS ids or one map.  The values are the XOR of the
    power rows of each f's support at the representatives, one
    _power_row_sum call per block, so a verdict reads no log table; the
    block's values are unpacked once, their ids gathered once and marked
    by one bijection_from_values call.  Where the representatives
    outnumber the _spot_points (m >= 16), each f's rows at those, distinct
    points, are read first, from the same store, and a repeated value
    refutes that f as a certificate; only the others reach the orbits.
    """
    fs = list(fs)
    for f in fs:
        if not isinstance(f, poly.DensePolyF2):
            raise TypeError(f"permutes needs a DensePolyF2, got {type(f).__name__}")
        if f.ctx is not ctx:
            raise ValueError("context mismatch")
    points, ids = _orbit_classes(ctx)
    size = block_size(ctx)
    verdicts = []
    for start in range(0, len(fs), size):
        supports = [f.support() for f in fs[start:start + size]]
        alive = list(range(len(supports)))
        if points.size > SPOT_CHECK_POINTS:
            rows = _power_rows(ctx, _sample_points)
            vals = np.sort(_unpack(_power_row_sum(ctx, rows, supports),
                                   rows.points(ctx)[0].size, rows.dtype), axis=1)
            repeats = vals[:, 1:] == vals[:, :-1]
            alive = [i for i, row in enumerate(repeats) if not row.any()]
        block = [False] * len(supports)
        if alive:
            rows = _power_rows(ctx, _orbit_points)
            sums = _power_row_sum(ctx, rows, [supports[i] for i in alive])
            marks = bijection_from_values(ids.take(_unpack(sums, points.size, rows.dtype)),
                                          points.size)
            for i, ok in zip(alive, marks):
                block[i] = ok
        verdicts += block
    return verdicts


def _sample_points(ctx: FieldContext) -> tuple[np.ndarray, None]:
    """The _spot_points of ctx's width (permutes); see _power_rows."""
    return _spot_points(ctx.m), None


def _orbit_points(ctx: FieldContext) -> tuple[np.ndarray, None]:
    """One point per orbit of x -> x^2 (_orbit_classes); see _power_rows."""
    return _orbit_classes(ctx)[0], None


@per_context
def _orbit_classes(ctx: FieldContext) -> tuple[np.ndarray, np.ndarray]:
    """(points, ids) of the orbits of x -> x^2, read-only.

    With g the generator of log_tables, g^i squares to g^(2i mod 2^m - 1),
    so the orbits of the nonzero elements are the classes of exponents
    under doubling mod 2^m - 1, the cyclotomic cosets of 2 (Lidl &
    Niederreiter, ch. 2-3).  Doubling rotates the m-bit exponent, so the
    leader of a class, its least member, is the least of the m rotations
    of any member.  Number the R classes by ascending leader: points is 0
    followed by g^l for each leader l, as uint64, and ids, uint32 and
    indexed by value, holds ids[g^i] = the number of the class of i and
    ids[0] = R.

    ids is built one iter_chunks slice of exponents at a time, with no
    exponent-indexed table: the leaders of a slice get their numbers at
    their own values first, and every member's leader is at most the
    member, so one gather then reads each member's number at its
    leader's value.
    """
    antilog = log_tables(ctx)[1]
    m, cyc = ctx.m, ctx.order - 1
    mask = np.uint32(cyc)  # the m low bits
    ids = np.empty(ctx.order, dtype=np.uint32)
    reps = [np.zeros(1, dtype=np.uint32)]  # the point 0, then each g^leader
    count = 0
    for start, stop in iter_chunks(cyc):
        idx = np.arange(start, stop, dtype=np.uint32)
        lead, rot = idx.copy(), idx
        for _ in range(m - 1):
            rot = ((rot << np.uint32(1)) | (rot >> np.uint32(m - 1))) & mask
            np.minimum(lead, rot, out=lead)
        vals = antilog[start:stop]
        own = vals[lead == idx]
        ids[own] = np.arange(count, count + own.size, dtype=np.uint32)
        count += own.size
        reps.append(own)
        ids[vals] = ids[antilog[lead]]
    ids[0] = count
    points = np.concatenate(reps).astype(np.uint64)
    for a in (points, ids):
        a.flags.writeable = False
    return points, ids


def collision_witness(values: np.ndarray, order: int) -> int:
    """The least value in [0, order) that the array hits twice.

    Hits per value are counted in a uint8 counter that saturates at 2,
    WITNESS_SLICE values at a time, so memory stays at the order-byte
    counter plus one slice's np.unique temporaries, whatever the length
    of values: 1.06 MB traced in all at m = 18.
    """
    counts = np.zeros(order, dtype=np.uint8)
    for start in range(0, len(values), WITNESS_SLICE):
        uniq, hits = np.unique(values[start:start + WITNESS_SLICE], return_counts=True)
        counts[uniq] = np.minimum(counts[uniq] + hits, 2)
    # argmax returns the first index of the maximum
    dup = int(np.argmax(counts))
    if counts[dup] < 2:
        raise ValueError("no value is hit twice")
    return dup


def power_sum_identity(g, ctx: FieldContext, n: int) -> bool:
    """Whether the DensePolyF2 g satisfies g(x^q + x) = sum over a in GF(q)
    of (x + a)^n at every x.

    Either of two point sets decides the identity exactly:
    - the least element of each coset x + GF(q), order/q points.  Both
      sides are constant on a coset: on the left, (x+b)^q + (x+b) =
      x^q + x because b^q = b; on the right, x -> x + b only re-indexes
      the sum over a;
    - the points of Hamming weight <= D = max(deg g, wt2(r)), with
      r = poly.reduce_exponent(n, order), by the Reed-Muller argument of
      values_equal, since both sides have algebraic degree at most D.
      The left side is g composed with the additive map x -> x^q + x, and
      composing with a GF(2)-linear map does not raise the degree of g.
      The right side is a sum of the translates x -> (x + a)^r of x^r,
      and each has degree wt2(r), because a translation is affine.

    x^n = x^r as maps (y^(order-1) = 1 for y != 0, and r = 0 only if n = 0),
    so the right side is row r of _oracle_translates.  The ball is taken
    when it is the smaller set (_oracle_rows): wt2(r) is read first, then
    the weights in g's support (deg g is the largest, poly.degree_bound)
    until one gives a ball no smaller than the cosets.  The left side XORs
    g's rows at the images x^q + x (_oracle_images): two packed ints are
    compared, and g is never evaluated on the whole field.
    """
    support = g.support()
    r = poly.reduce_exponent(n, ctx.order)
    plans = _oracle_rows(ctx)
    radius, images, translates = plans[r.bit_count()]
    for d in support if radius < ctx.m else ():
        if d.bit_count() > radius:
            radius, images, translates = plans[d.bit_count()]
            if radius == ctx.m:
                break
    rhs = translates.kept.get(r)  # a kept row, read without a call
    if rhs is None:
        [rhs] = _power_row_sum(ctx, translates, ((r,),))
    kept, lhs = images.kept, 0
    for d in support:  # kept rows XORed inline; a missing one sends g to the store
        row = kept.get(d)
        if row is None:
            [lhs] = _power_row_sum(ctx, images, (support,))
            break
        lhs ^= row
    return lhs == rhs


@per_context
def _oracle_rows(ctx: FieldContext) -> list[tuple[int, _Rows, _Rows]]:
    """(R, images, translates) for each radius 0..m: R is the radius if its
    Hamming ball has fewer points than the order/q cosets, and else m, which
    names the cosets, so a context keeps them once; images and translates
    are the _power_rows of _oracle_images and _oracle_translates at R."""
    radii = [r if _ball_size(ctx.m, r) < ctx.order // ctx.q else ctx.m for r in range(ctx.m + 1)]
    return [(r, _power_rows(ctx, _oracle_images, r), _power_rows(ctx, _oracle_translates, r))
            for r in radii]


@per_context
def _oracle_translates(ctx: FieldContext, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """(xs, GF(q) as a column), read-only, xs ascending: the points of
    Hamming weight <= radius for a radius below m, and the least element
    of each coset x + GF(q) for radius m (_oracle_rows); see _power_rows.
    The least element of a coset is the pattern with no bit at the leading
    bit of any nonzero a in GF(q); they are listed by depositing the bits
    of a counter around those pivots."""
    if radius < ctx.m:
        xs = _hamming_ball(ctx.m, radius)
    else:
        pivots = sorted({a.bit_length() - 1 for a in subfield_elements(ctx, 1)[1:].tolist()})
        xs = np.arange(ctx.order >> len(pivots), dtype=np.uint64)
        for p in pivots:  # ascending, so the bits below p are already in place
            low = xs & np.uint64((1 << p) - 1)
            xs = ((xs ^ low) << np.uint64(1)) | low
        if xs.size != ctx.order // ctx.q:
            raise AssertionError(f"{xs.size} coset representatives of GF({ctx.q}) in {ctx!r}")
        xs.flags.writeable = False
    return xs, subfield_elements(ctx, 1)[:, None]


@per_context
def _oracle_images(ctx: FieldContext, radius: int) -> tuple[np.ndarray, None]:
    """(xs^q + xs, None), read-only, at the xs of _oracle_translates; see
    _power_rows."""
    xs = _oracle_translates(ctx, radius)[0]
    tq = apply_matrix(frobenius_matrix(ctx, 1), xs) ^ xs
    tq.flags.writeable = False
    return tq, None


def linear_kernel(cols: np.ndarray) -> np.ndarray:
    """Bit patterns x with apply_matrix(cols, x) = 0, ascending, as uint64,
    listed by doubling from a basis, with no scan: eliminating the columns
    in turn, one that reduces to 0 gives the kernel vector of those it
    combined."""
    pivots = {}  # bit length -> (reduced column, columns combined in it)
    bits = np.zeros(1, dtype=np.uint64)
    for j, col in enumerate(cols.tolist()):
        combo = 1 << j
        while col and col.bit_length() in pivots:
            pcol, pcombo = pivots[col.bit_length()]
            col, combo = col ^ pcol, combo ^ pcombo
        if col:
            pivots[col.bit_length()] = col, combo
        else:
            bits = np.concatenate((bits, bits ^ np.uint64(combo)))
    bits.sort()
    return bits


@per_context
def subfield_elements(ctx: FieldContext, k: int) -> np.ndarray:
    """Cached bit patterns of the q^k elements of GF(q^k), ascending, as a
    read-only uint64 array: the linear_kernel of x -> x^(q^k) + x."""
    if k < 1 or ctx.e % k != 0:
        raise ValueError(f"k={k} does not divide e={ctx.e}")
    unit = np.uint64(1) << np.arange(ctx.m, dtype=np.uint64)
    bits = linear_kernel(frobenius_matrix(ctx, k) ^ unit)
    if bits.size != ctx.q ** k:
        raise AssertionError(
            f"subfield GF(q^{k}) has {bits.size} elements, expected {ctx.q ** k}"
        )
    bits.flags.writeable = False
    return bits
