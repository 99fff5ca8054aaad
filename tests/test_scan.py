"""Packed bulk engine cross-validated against scalar field arithmetic."""

import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permpoly import gnq, poly, scan
from permpoly.field import UsageError, eval_S, frobenius_q, make_field
from permpoly.poly import (Add, Const, DensePolyF2, FrobQ, LinPoly, Mul, Pow,
                           S, Var, build_t1_g, degree_bound, expr_eval)


def _random_bits(ctx, rng, n):
    return np.array([rng.randrange(ctx.order) for _ in range(n)], dtype=np.uint64)


# GF(2), GF(2^8) under its non-primitive default modulus, GF(4^6) and GF(4^7)
KERNEL_FIELDS = {"gf2": (1, 1), "gf2_8": (1, 8), "gf4_6": (2, 6), "gf4_7": (2, 7)}


@pytest.mark.parametrize("s, e", KERNEL_FIELDS.values(), ids=KERNEL_FIELDS.keys())
def test_packed_mul_square_pow_match_scalar(s, e):
    ctx = make_field(s, e)
    rng = random.Random(11)
    xs = np.append(np.uint64(0), _random_bits(ctx, rng, 200))
    ys = _random_bits(ctx, rng, 201)
    prod = scan.packed_mul(ctx, xs, ys)
    sq = scan.packed_mul(ctx, xs, xs)
    for i in range(len(xs)):
        a = ctx.element(int(xs[i]))
        b = ctx.element(int(ys[i]))
        assert int(prod[i]) == (a * b).bits
        assert int(sq[i]) == a.square().bits
    order = ctx.order
    for n in (0, 1, order - 2, order - 1, order, order + 1, 65921):
        pn = scan.packed_pow(ctx, xs, n)
        assert pn.dtype == np.uint64
        for i in range(len(xs)):
            assert int(pn[i]) == (ctx.element(int(xs[i])) ** n).bits, (n, int(xs[i]))
    with pytest.raises(ValueError, match="nonnegative"):
        scan.packed_pow(ctx, xs, -1)


@settings(max_examples=60)
@given(st.sampled_from(list(KERNEL_FIELDS.values())),
       st.lists(st.integers(0, 1 << 20), max_size=12), st.randoms(use_true_random=False))
def test_packed_power_sum_is_the_xor_of_the_powers(se, exponents, rng):
    ctx = make_field(*se)
    xs = np.append(np.uint64(0), _random_bits(ctx, rng, 40))
    want = np.zeros(xs.shape, dtype=np.uint64)
    for d in exponents:  # repeats cancel; 0 in the list sets the value at 0
        want ^= scan.packed_pow(ctx, xs, d)
    got = scan.packed_power_sum(ctx, xs, exponents)
    assert got.dtype == np.uint64 and np.array_equal(got, want)
    assert int(scan.packed_power_sum(ctx, xs[1], exponents)) == int(want[1])


def test_packed_power_sum_of_nothing_builds_no_log_tables(monkeypatch):
    def refuse(*args):
        raise AssertionError("log tables built for an empty sum")

    monkeypatch.setattr(scan, "log_tables", refuse)
    ctx = make_field(2, 7)
    xs = np.arange(5, dtype=np.uint64)
    assert np.array_equal(scan.packed_power_sum(ctx, xs, []), np.zeros(5, dtype=np.uint64))
    assert not DensePolyF2.zero(ctx).eval_packed(xs, ctx).any()
    with pytest.raises(ValueError, match="nonnegative"):
        scan.packed_power_sum(ctx, xs, [3, -1])


def test_linear_matrix_requires_additive_map(f64):
    cols = scan.linear_matrix(f64, lambda v: eval_S(2, v))
    assert cols.shape == (f64.m,)
    rng = random.Random(12)
    xs = _random_bits(f64, rng, 64)
    vals = scan.apply_matrix(cols, xs)
    for i in range(len(xs)):
        assert int(vals[i]) == eval_S(2, f64.element(int(xs[i]))).bits


def test_frobenius_and_s_matrices(f4096):
    rng = random.Random(13)
    xs = _random_bits(f4096, rng, 100)
    for i in (1, 2, 5):
        fv = scan.apply_matrix(scan.frobenius_matrix(f4096, i), xs)
        for j in range(0, 100, 17):
            assert int(fv[j]) == frobenius_q(f4096.element(int(xs[j])), i).bits
    for k in (0, 1, 4):
        sv = scan.apply_matrix(scan.s_matrix(f4096, k), xs)
        for j in range(0, 100, 17):
            assert int(sv[j]) == eval_S(k, f4096.element(int(xs[j]))).bits


def test_field_values_matches_pointwise_eval(f64):
    g = build_t1_g(1, f64)
    values = scan.field_values(g, f64)
    assert values.dtype == np.uint32 and len(values) == 64
    for bits in range(64):
        assert int(values[bits]) == expr_eval(g, f64.element(bits)).bits


def test_field_values_chunk_invariance(f4096, monkeypatch):
    expr = Pow(S(4, Var()), 5)
    assert f4096.order <= scan.DEFAULT_CHUNK
    base = scan.field_values(expr, f4096)
    sizes = []
    eval_packed = poly.PolyExpr.eval_packed

    def spy(self, xs, ctx):
        sizes.append(np.size(xs))
        return eval_packed(self, xs, ctx)

    monkeypatch.setattr(poly.PolyExpr, "eval_packed", spy)
    monkeypatch.setattr(scan, "DEFAULT_CHUNK", 257)
    assert np.array_equal(scan.field_values(expr, f4096), base)
    assert sizes == [257] * 15 + [4096 - 15 * 257]


def test_bijection_from_values_detects_duplicates(monkeypatch):
    assert scan.bijection_from_values(np.arange(256, dtype=np.uint32), 256) is True
    perm = np.arange(256, dtype=np.uint32)[::-1].copy()
    assert scan.bijection_from_values(perm, 256) is True
    with pytest.raises(ValueError, match="no value is hit twice"):
        scan.collision_witness(perm, 256)
    bad = perm.copy()
    bad[7] = bad[200]
    assert scan.bijection_from_values(bad, 256) is False
    assert scan.collision_witness(bad, 256) == int(bad[200])
    # the two hits in different chunks and witness slices
    monkeypatch.setattr(scan, "DEFAULT_CHUNK", 64)
    monkeypatch.setattr(scan, "WITNESS_SLICE", 64)
    assert scan.bijection_from_values(bad, 256) is False
    assert scan.collision_witness(bad, 256) == int(bad[200])


def test_collision_witness_counts_past_the_uint8_range():
    # 999 is hit 256 times inside one slice, which a wrapping uint8 count
    # would read as 0
    values = np.arange(1024, dtype=np.uint32)
    values[744:1000] = 999
    assert scan.collision_witness(values, 1024) == 999
    # 2^16 + 2 values span two default slices, and 3 is hit once in each
    values = np.arange((1 << 16) + 2, dtype=np.uint32)
    values[-1] = 3
    assert scan.collision_witness(values, (1 << 16) + 1) == 3


def test_bijection_from_values_needs_order_values():
    with pytest.raises(ValueError, match="exactly 256 values"):
        scan.bijection_from_values(np.arange(255, dtype=np.uint32), 256)
    with pytest.raises(ValueError):
        scan.bijection_from_values(np.zeros(257, dtype=np.uint32), 256)


@st.composite
def _planted_values(draw):
    """A permutation of range(order), order <= 2^10, with up to 5 values
    copied over other positions (a copy onto itself plants nothing)."""
    order = draw(st.integers(1, 1 << 10))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    values = np.random.default_rng(seed).permutation(order).astype(np.uint32)
    index = st.integers(0, order - 1)
    for src, dst in draw(st.lists(st.tuples(index, index), max_size=5)):
        values[dst] = values[src]
    return values


@pytest.mark.parametrize("chunk", [scan.DEFAULT_CHUNK, 64], ids=["one-chunk", "chunk-64"])
@given(values=_planted_values())
@settings(max_examples=150)
def test_bijection_from_values_matches_naive(chunk, values):
    counts = np.bincount(values, minlength=len(values))
    with (mock.patch.object(scan, "DEFAULT_CHUNK", chunk),
          mock.patch.object(scan, "WITNESS_SLICE", min(chunk, scan.WITNESS_SLICE))):
        ok = scan.bijection_from_values(values, len(values))
        assert ok is bool((counts == 1).all())
        if ok:
            with pytest.raises(ValueError):
                scan.collision_witness(values, len(values))
        else:
            dup = int(np.flatnonzero(counts >= 2)[0])
            assert scan.collision_witness(values, len(values)) == dup


@pytest.mark.parametrize("s, e, sample", [(1, 6, None), (2, 6, 60)], ids=["gf2_6", "gf4_6"])
def test_field_values_keeps_no_power_rows_of_a_dense_polynomial(s, e, sample, row_point_sets):
    ctx = make_field(s, e)
    g = gnq.gnq_recurrence(65921, 4, ctx) if s == 2 else DensePolyF2.from_exponents(
        ctx, [0, 1, 5, 21, 62, 63])
    values = scan.field_values(g, ctx)
    assert values.dtype == np.uint32 and values.shape == (ctx.order,)
    xs = range(ctx.order) if sample is None else [0, 1] + random.Random(20).sample(
        range(2, ctx.order), sample)
    for x in xs:
        assert int(values[x]) == g.eval_at(ctx.element(x)).bits, x
    assert row_point_sets(ctx) == set()


def test_field_values_keeps_no_power_rows_at_gf4_7(row_point_sets):
    ctx = make_field(2, 7)
    g = DensePolyF2.from_exponents(ctx, [0, 1, 5, 21, ctx.order - 1])
    xs = np.arange(ctx.order, dtype=np.uint64)
    assert np.array_equal(scan.field_values(g, ctx), g.eval_packed(xs, ctx))
    assert row_point_sets(ctx) == set()


def test_field_values_rejects_a_dense_polynomial_of_another_context():
    a, b = make_field(2, 3), make_field(2, 3)
    for ctx in (b, make_field(2, 7)):
        with pytest.raises(ValueError, match="context mismatch"):
            scan.field_values(DensePolyF2.from_exponents(a, [3]), ctx)


@pytest.mark.parametrize("s, e", KERNEL_FIELDS.values(), ids=KERNEL_FIELDS.keys())
def test_log_tables_permute_nonzero_elements(s, e):
    ctx = make_field(s, e)
    log, antilog = scan.log_tables(ctx)
    assert log.dtype == antilog.dtype == np.uint32
    assert np.array_equal(np.sort(antilog), np.arange(1, ctx.order))
    assert np.array_equal(log[antilog], np.arange(ctx.order - 1))
    assert scan.log_tables(ctx) is scan.log_tables(ctx)


def test_log_tables_skip_non_generator():
    # x^8+x^4+x^3+x+1 is irreducible but not primitive: t has order 51
    ctx = make_field(1, 8)
    assert str(ctx.modulus) == "x^8+x^4+x^3+x+1"
    assert (ctx.element(2) ** 51).bits == 1
    _, antilog = scan.log_tables(ctx)
    assert int(antilog[1]) == 3


def test_log_tables_reject_a_non_generator(monkeypatch):
    # with no prime factors to test, t = 2 passes the order test; its
    # powers then cover 51 of the 255 nonzero elements
    monkeypatch.setattr(scan.gf2poly, "_prime_factors", lambda n: [])
    ctx = make_field(1, 8)
    with pytest.raises(AssertionError, match="does not generate"):
        scan.log_tables(ctx)


@pytest.mark.parametrize("m", [7, 8, 12, 16])
def test_log_tables_built_in_slices_equal_one_chunk(m, monkeypatch):
    whole = scan.log_tables(make_field(1, m))
    monkeypatch.setattr(scan, "DEFAULT_CHUNK", 64)
    sliced = scan.log_tables(make_field(1, m))
    assert all(np.array_equal(a, b) for a, b in zip(whole, sliced))


def _least_generator(ctx):
    """The least t whose powers reach every nonzero element, by brute force."""
    for t in range(2, ctx.order):
        x, y, steps = ctx.element(t), ctx.element(t), 1
        while y.bits != 1:
            y, steps = y * x, steps + 1
        if steps == ctx.order - 1:
            return t
    return 1


@pytest.mark.parametrize("m", range(1, 17))
def test_log_tables_use_the_least_generator_and_build_once(m, monkeypatch):
    ctx = make_field(1, m)  # m = 8: the non-primitive modulus
    calls = []
    packed_mul = scan.packed_mul

    def spy(ctx, a, b):
        calls.append(np.size(a))
        return packed_mul(ctx, a, b)

    monkeypatch.setattr(scan, "packed_mul", spy)
    log, antilog = scan.log_tables(ctx)
    g = _least_generator(ctx)
    assert int(antilog[min(1, ctx.order - 2)]) == g
    # two products per doubling of the antilog prefix: one table, not one per candidate
    assert len(calls) == 2 * (ctx.order - 2).bit_length()
    assert np.array_equal(log[antilog], np.arange(ctx.order - 1))


def test_log_tables_refuse_orders_above_2_32_before_factoring(monkeypatch):
    ctx = make_field(1, 61, max_degree=64)  # 2^61 - 1 is prime

    def refuse(n):
        raise AssertionError("factored")

    monkeypatch.setattr(scan.gf2poly, "_prime_factors", refuse)
    with pytest.raises(UsageError, match=r"GF\(2\^61\).* above the bound of 4294967296"):
        scan.log_tables(ctx)


# (s, e, n_to): GF(4^6), GF(4^7), GF(2^13), and GF(4^8), where the spot
# sample runs first
PERMUTES_RANGES = ((2, 7, 200), (2, 8, 100), (1, 13, 200), (2, 6, 40))


@pytest.mark.parametrize("s, e, n_to", PERMUTES_RANGES)
def test_permutes_agrees_with_the_whole_field_scan(s, e, n_to, monkeypatch):
    ctx = make_field(s, e)
    orbits = scan._orbit_classes(ctx)[0].size
    sizes = []
    bijection = scan.bijection_from_values

    def spy(values, order):
        sizes.append(values.shape)
        return bijection(values, order)

    full = []
    for n in range(1, n_to + 1):
        g = gnq.gnq_recurrence(n, ctx.q, ctx)
        monkeypatch.setattr(scan, "bijection_from_values", spy)
        with mock.patch.object(scan, "field_values", side_effect=AssertionError):
            verdict = scan.permutes(g, ctx)
        monkeypatch.undo()
        full.append(scan.bijection_from_values(g.eval_on_field(), ctx.order))
        assert verdict is full[-1], n
    # each verdict is one bijection over the orbit ids, a block of one map;
    # where the sample runs first, every non-PP here collides on it, so
    # only the PPs get one
    assert set(sizes) == {(1, orbits)}
    assert len(sizes) == (sum(full) if orbits > scan.SPOT_CHECK_POINTS else n_to)


def test_permutes_decides_on_the_orbits_when_the_sample_misses(monkeypatch):
    # gcd(3, 2^14 - 1) = gcd(3, 2^16 - 1) = 3 and gcd(3, 2^13 - 1) = 1
    cube = DensePolyF2.from_exponents(make_field(2, 7), [3])
    with mock.patch.object(scan, "_spot_points", side_effect=AssertionError):
        assert scan.permutes(cube, cube.ctx) is False  # m = 14: no sample
    wide = DensePolyF2.from_exponents(make_field(2, 8), [3])
    monkeypatch.setattr(scan, "_spot_points", lambda m: np.arange(1, 3, dtype=np.uint64))
    with mock.patch.object(scan, "bijection_from_values",
                           wraps=scan.bijection_from_values) as bijection:
        assert scan.permutes(wide, wide.ctx) is False
    assert bijection.call_count == 1
    odd = make_field(1, 13)
    assert scan.permutes(DensePolyF2.from_exponents(odd, [3]), odd) is True


def _necklaces(m):
    """Binary necklaces of length m: (1/m) * sum over d | m of phi(d) 2^(m/d)."""
    phi = [sum(math.gcd(k, d) == 1 for k in range(1, d + 1)) for d in range(m + 1)]
    return sum(phi[d] << (m // d) for d in range(1, m + 1) if m % d == 0) // m


@pytest.mark.parametrize("m", range(1, 17))
def test_orbit_classes_are_the_cyclotomic_cosets_of_2(m):
    ctx = make_field(1, m)
    points, ids = scan._orbit_classes(ctx)
    log, antilog = scan.log_tables(ctx)
    cyc = ctx.order - 1
    r = points.size - 1
    # one point per necklace: the R classes of nonzero values, and 0
    assert points.size == _necklaces(m)
    assert ids.dtype == np.uint32 and ids.size == ctx.order
    # ids are indexed by value: x and x^2 share one, and 0 alone has R
    xs = np.arange(ctx.order, dtype=np.uint64)
    assert np.array_equal(ids, ids[scan.packed_mul(ctx, xs, xs)])
    assert ids[0] == r and np.flatnonzero(ids == r).tolist() == [0]
    # point j + 1 is g^l for the j-th leader l, ascending, and has id j;
    # its class holds the values g^i for i in the coset of l, and no other
    assert points[0] == 0 and ids[points[1:]].tolist() == list(range(r))
    sizes = np.bincount(ids, minlength=r + 1)
    leaders = log[points[1:]].tolist()
    assert leaders == sorted(leaders)
    for j, lead in enumerate(leaders):
        members = {lead * (1 << i) % cyc if cyc > 1 else 0 for i in range(m)}
        assert min(members) == lead, lead
        assert all(int(ids[antilog[i]]) == j for i in members), lead
        assert sizes[j] == len(members), lead
    assert sizes[r] == 1 and sizes.sum() == ctx.order
    assert not any(a.flags.writeable for a in (points, ids))


@pytest.mark.parametrize("m", [7, 12, 14])
def test_orbit_classes_built_in_slices_equal_one_chunk(m, monkeypatch):
    # with 64-entry slices most members' leaders lie in earlier slices
    whole = scan._orbit_classes(make_field(1, m))
    monkeypatch.setattr(scan, "DEFAULT_CHUNK", 64)
    sliced = scan._orbit_classes(make_field(1, m))
    assert all(np.array_equal(a, b) for a, b in zip(whole, sliced))


# fields with m <= 14
ORBIT_FIELDS = ((1, 1), (1, 2), (2, 2), (1, 5), (2, 3), (3, 2), (1, 8), (2, 5),
                (2, 6), (1, 13), (2, 7))


@settings(max_examples=60)
@given(st.sampled_from(ORBIT_FIELDS), st.data())
def test_permutes_matches_the_whole_field_bijection(se, data):
    ctx = make_field(*se)
    # a random support, a sum of x^(2^i), which is additive and permutes
    # iff its kernel is trivial, or a monomial x^d
    kind = data.draw(st.sampled_from(("support", "additive", "monomial")))
    if kind == "support":
        exps = data.draw(st.lists(st.integers(0, ctx.order - 1), max_size=10))
    elif kind == "additive":
        exps = [1 << i for i in data.draw(st.sets(st.integers(0, ctx.m - 1)))]
    else:
        exps = [data.draw(st.integers(0, 4 * ctx.order))]
    g = DensePolyF2.from_exponents(ctx, exps)
    assert scan.permutes(g, ctx) is scan.bijection_from_values(g.eval_on_field(), ctx.order)


@st.composite
def _planted_maps(draw, ctx):
    """A DensePolyF2 over ctx: a sum of x^(2^i), additive, so it permutes
    iff its kernel is trivial, or a random support of up to 6 exponents."""
    if draw(st.booleans()):
        exps = [1 << i for i in draw(st.sets(st.integers(0, ctx.m - 1), min_size=1))]
    else:
        exps = draw(st.lists(st.integers(0, ctx.order - 1), max_size=6))
    return DensePolyF2.from_exponents(ctx, exps)


# GF(2^m) for m = 6, 8, 12 and 16, where the spot sample runs first
VERDICT_BLOCK_FIELDS = {m: make_field(1, m) for m in (6, 8, 12, 16)}


@settings(max_examples=40)
@given(st.sampled_from(sorted(VERDICT_BLOCK_FIELDS)), st.data())
def test_permutes_each_decides_a_mixed_block_map_by_map(m, data):
    ctx = VERDICT_BLOCK_FIELDS[m]
    fs = data.draw(st.lists(_planted_maps(ctx), min_size=1, max_size=8))
    # at m = 16 a block holds 3 maps, so 8 maps span several blocks
    verdicts = scan.permutes_each(fs, ctx)
    assert verdicts == [scan.bijection_from_values(f.eval_on_field(), ctx.order) for f in fs]


@pytest.mark.parametrize("s, e, exps, want", [
    (1, 14, [1 << i for i in range(14)], False),  # the absolute trace, into GF(2)
    (2, 6, [1 << i for i in range(12)], False),
    (2, 7, [3], False),
    (1, 13, [3], True),
    (2, 8, [1 << i for i in range(16)], False),  # m = 16: the sample runs first
])
def test_permutes_planted_maps(s, e, exps, want):
    ctx = make_field(s, e)
    assert scan.permutes(DensePolyF2.from_exponents(ctx, exps), ctx) is want


def test_permutes_runs_the_sample_only_where_it_is_smaller():
    for e, sampled in ((7, False), (8, True)):
        ctx = make_field(2, e)
        assert (scan._orbit_classes(ctx)[0].size > scan.SPOT_CHECK_POINTS) is sampled
        for d, pp in ((7, True), (3, False)):  # gcd(d, 2^m - 1) for m = 14, 16
            g = DensePolyF2.from_exponents(ctx, [d])
            with mock.patch.object(scan, "_spot_points", wraps=scan._spot_points) as spots, \
                    mock.patch.object(scan, "bijection_from_values",
                                      wraps=scan.bijection_from_values) as bijection:
                assert scan.permutes(g, ctx) is pp
            assert spots.called is sampled
            # at m = 16 the sample refutes the cube before the orbit verdict
            assert bijection.called is (pp or not sampled)


def test_permutes_takes_only_a_dense_polynomial():
    ctx = make_field(2, 3)
    for f in (Pow(Var(), 3), Var(), LinPoly(ctx, [ctx.one()] * ctx.m)):
        with pytest.raises(TypeError, match="DensePolyF2"):
            scan.permutes(f, ctx)
    with pytest.raises(ValueError, match="context mismatch"):
        scan.permutes(DensePolyF2.from_exponents(make_field(2, 3), [1]), ctx)


def test_permutes_keeps_orbit_rows_at_every_order(row_point_sets):
    # GF(4^6) and GF(4^7), and GF(4^8) and GF(4^9), where the spot sample
    # runs first and x^7 + 1, x^5 + 1 pass it: gcd(7, 2^16 - 1) =
    # gcd(5, 2^18 - 1) = 1
    for e, support in ((6, {0, 1, 5, 21}), (7, {0, 1, 5, 21}), (8, {0, 7}), (9, {0, 5})):
        ctx = make_field(2, e)
        scan.permutes(DensePolyF2.from_exponents(ctx, support), ctx)
        rows = scan._power_rows(ctx, scan._orbit_points)
        points = scan._orbit_classes(ctx)[0]
        sampled = {scan._sample_points} if e >= 8 else set()
        assert set(rows.kept) == support and row_point_sets(ctx) == {scan._orbit_points} | sampled
        # 16-bit values up to m = 16, 32-bit ones above
        assert rows.dtype.itemsize == (2 if e <= 8 else 4)
        for d, row in rows.kept.items():
            assert type(row) is int and row.bit_length() <= 8 * rows.dtype.itemsize * points.size
            values = scan._unpack([row], points.size, rows.dtype)[0]
            assert values.dtype == rows.dtype
            assert np.array_equal(values, scan.packed_pow(ctx, points, d))


# GF(2^m), m <= 12, as (s, e): q = 2, 4, 8, 16, 64 give the coset images
# order/q points each
ROW_FIELDS = ((1, 1), (2, 1), (1, 5), (2, 3), (3, 2), (1, 8), (4, 2), (2, 5), (2, 6),
              (6, 2), (1, 12))
# the point sets whose rows a context reads again and again, the oracle's
# at the cosets
ROW_POINTS = (scan._orbit_points, scan._oracle_images, scan._oracle_translates)


def _row_args(ctx, points):
    """The arguments after ctx of a point set of ROW_POINTS: radius m,
    which names the cosets, for the oracle's."""
    return () if points is scan._orbit_points else (ctx.m,)


def _shifts(shifts):
    """The shifts of a point set as ints: 0 alone when there are none."""
    return [0] if shifts is None else shifts.ravel().tolist()


def _packed_row(ctx, points, d):
    """Row d of a point set of ROW_POINTS: the XOR over the shifts a of
    packed_pow at x + a."""
    xs, shifts = points(ctx, *_row_args(ctx, points))
    a = np.array(_shifts(shifts), dtype=np.uint64)[:, None]
    return np.bitwise_xor.reduce(scan.packed_pow(ctx, a ^ xs, d), axis=0)


def _scalar_row(ctx, points, d):
    """Row d of a point set of ROW_POINTS by scalar powers: at each x, the
    XOR over the shifts a of (x + a)^d."""
    xs, shifts = points(ctx, *_row_args(ctx, points))
    row = []
    for x in xs.tolist():
        acc = 0
        for a in _shifts(shifts):
            acc ^= (ctx.element(x ^ a) ** d).bits
        row.append(acc)
    return row


@settings(max_examples=80)
@given(st.sampled_from(ROW_FIELDS), st.sampled_from(ROW_POINTS),
       st.lists(st.integers(0, (1 << 12) - 1), unique=True, max_size=12))
@example((1, 1), scan._orbit_points, [])
@example((2, 3), scan._orbit_points, [])
@example((2, 3), scan._oracle_images, [])
@example((1, 1), scan._oracle_images, [0])
@example((2, 3), scan._orbit_points, [0, 5])
@example((2, 6), scan._oracle_images, [7, 0])
@example((2, 3), scan._oracle_translates, [0, 3])
def test_power_row_sum_unpacks_to_the_xor_of_the_powers(se, points, support):
    ctx = make_field(*se)
    args = _row_args(ctx, points)
    pts, shifts = points(ctx, *args)
    expect = np.zeros(pts.size, dtype=np.uint64)
    for d in support:
        expect ^= _packed_row(ctx, points, d)
    rows = scan._power_rows(ctx, points, *args)
    got = scan._unpack(scan._power_row_sum(ctx, rows, [support]), pts.size, rows.dtype)[0]
    assert got.dtype == rows.dtype and np.array_equal(got, expect)
    if points is not scan._oracle_translates:
        # 0 is a point of every unshifted set; 0^d is 1 only for d = 0
        assert shifts is None
        assert (pts == 0).sum() == 1 and got[pts == 0][0] == (0 in support)
    assert set(support) <= set(rows.kept)


def test_power_rows_are_built_once_and_packed(monkeypatch):
    built = []
    build_rows = scan._build_rows

    def spy(ctx, rows, keep, drop):
        built.extend([*keep, *drop])
        return build_rows(ctx, rows, keep, drop)

    monkeypatch.setattr(scan, "_build_rows", spy)
    for points in ROW_POINTS:
        for exponents in ([5], [0, 63], [63, 0, 5, 17], list(range(64))[::-1], []):
            ctx = make_field(2, 3)  # fresh context: rows fill as the calls read them
            rows = scan._power_rows(ctx, points, *_row_args(ctx, points))
            size = points(ctx, *rows.args)[0].size
            built.clear()
            for reads in (exponents, exponents[::2], exponents):
                got = scan._unpack(scan._power_row_sum(ctx, rows, [reads]), size, rows.dtype)[0]
                expect = np.zeros(size, dtype=np.uint64)
                for d in reads:
                    expect ^= np.array(_scalar_row(ctx, points, d), dtype=np.uint64)
                assert np.array_equal(got, expect), (points.__name__, reads)
            assert sorted(built) == sorted(exponents), points.__name__
            assert set(rows.kept) == set(exponents)
            for d, row in rows.kept.items():
                assert type(row) is int and row.bit_length() <= 8 * rows.dtype.itemsize * size
                values = scan._unpack([row], size, rows.dtype)[0]
                assert values.dtype == rows.dtype
                assert values.tolist() == _scalar_row(ctx, points, d)
            assert scan._kept_row_bytes(ctx) == [rows.dtype.itemsize * size * len(exponents)]


# GF(4^3): exponent 0, order - 1 and its repeat 2 order - 1, each x^d
# with 0^d = 0 for d >= 1, and 5 read twice, so its terms cancel
SEVERAL = (0, 63, 5, 127, 9, 5, 9, 9)


@pytest.mark.parametrize("budget_rows", [None, 0, 2])
@pytest.mark.parametrize("chunk", [None, 5])
@pytest.mark.parametrize("points", ROW_POINTS)
def test_one_call_builds_every_missing_row(points, chunk, budget_rows, monkeypatch):
    # with 5-point slices every row spans chunks; a budget of 0 keeps no
    # row and one of 2 rows keeps the first two that the call misses
    if chunk is not None:
        monkeypatch.setattr(scan, "DEFAULT_CHUNK", chunk)
    ctx = make_field(2, 3)
    args = _row_args(ctx, points)
    xs = points(ctx, *args)[0]
    rows = scan._power_rows(ctx, points, *args)
    if budget_rows is not None:
        monkeypatch.setattr(scan, "POWER_ROW_BUDGET", budget_rows * rows.dtype.itemsize * xs.size)
    assert 0 in xs.tolist() and xs.size > 5
    calls = []
    build_rows = scan._build_rows

    def spy(ctx, rows, keep, drop):
        calls.append((list(keep), list(drop)))
        return build_rows(ctx, rows, keep, drop)

    monkeypatch.setattr(scan, "_build_rows", spy)
    expect = np.zeros(xs.size, dtype=np.uint64)
    for d in SEVERAL:
        expect ^= _packed_row(ctx, points, d)
    for _ in range(2):
        got = scan._unpack(scan._power_row_sum(ctx, rows, [SEVERAL]), xs.size, rows.dtype)[0]
        assert np.array_equal(got, expect)
    # one build per call that misses a row: a dropped row is built only
    # where it counts, and 5, read twice, counts nowhere
    kept = [0, 63, 5, 127, 9][:budget_rows]
    dropped = [d for d in (0, 63, 127, 9) if d not in kept]
    assert calls == [(kept, dropped)] + ([([], dropped)] if dropped else [])
    assert set(rows.kept) == set(kept)
    for d in kept:
        want = _packed_row(ctx, points, d)
        assert np.array_equal(scan._unpack([rows.kept[d]], xs.size, rows.dtype)[0], want), d
    assert scan._kept_row_bytes(ctx) == [rows.dtype.itemsize * xs.size * len(kept)]


@pytest.mark.parametrize("points", ROW_POINTS)
def test_row_builds_keep_within_a_few_rows(points, monkeypatch):
    # each read builds the rows it misses in one call; the bytes counted
    # are the bytes kept, within the budget of three rows, after every
    # call.  Two inputs, each on a fresh context (seed, reads, exponents
    # below, exponents per read): every read of the first misses several
    # rows at once, the second reads a few of many rows
    monkeypatch.setattr(scan, "DEFAULT_CHUNK", 100)
    for seed, count, top, (lo, hi) in ((22, 200, 4096, (2, 9)), (14, 400, 300, (1, 12))):
        rng = random.Random(seed)
        reads = [[rng.randrange(top) for _ in range(rng.randrange(lo, hi))]
                 for _ in range(count)]
        ctx = make_field(2, 6)
        args = _row_args(ctx, points)
        xs = points(ctx, *args)[0]
        rows = scan._power_rows(ctx, points, *args)
        nbytes = rows.dtype.itemsize * xs.size
        monkeypatch.setattr(scan, "POWER_ROW_BUDGET", 3 * nbytes)
        want = {d: _packed_row(ctx, points, d) for d in set().union(*reads)}
        for exponents in reads:
            got = scan._unpack(scan._power_row_sum(ctx, rows, [exponents]), xs.size, rows.dtype)[0]
            expect = np.zeros(xs.size, dtype=np.uint64)
            for d in exponents:
                expect ^= want[d]
            assert np.array_equal(got, expect), (seed, exponents)
            assert scan._kept_row_bytes(ctx) == [nbytes * len(rows.kept)]
            assert len(rows.kept) <= 3
        assert len(rows.kept) == 3
        for d, row in rows.kept.items():
            assert np.array_equal(scan._unpack([row], xs.size, rows.dtype)[0], want[d])


@pytest.mark.parametrize("s, e, q", [(1, 16, 2), (2, 8, 4)])
def test_spot_rows_refute_as_direct_evaluation_does(s, e, q, monkeypatch):
    # m = 16: the orbit representatives outnumber the spot points, so
    # permutes reads g's rows at them first and stops on a collision
    ctx = make_field(s, e)
    spots = scan._spot_points(ctx.m)
    rows = scan._power_rows(ctx, scan._sample_points)
    bijection = mock.Mock(wraps=scan.bijection_from_values)
    monkeypatch.setattr(scan, "bijection_from_values", bijection)
    refuted = 0
    for n in range(1, 201):
        g = gnq.gnq_recurrence(n, q, ctx)
        direct = g.eval_packed(spots, ctx)
        got = scan._unpack(scan._power_row_sum(ctx, rows, [g.support()]), spots.size, rows.dtype)[0]
        assert np.array_equal(got, direct), n
        collides = np.unique(direct).size < spots.size
        bijection.reset_mock()
        verdict = scan.permutes(g, ctx)
        assert bijection.called is not collides, n
        assert not (collides and verdict), n
        refuted += collides
    assert 0 < refuted < 200


@pytest.mark.long
def test_permutes_matches_brute_force_at_e8():
    # every n <= 300 at m = 16, against the whole-field scan
    ctx = make_field(2, 8)
    for n in range(1, 301):
        g = gnq.gnq_recurrence(n, 4, ctx)
        assert scan.permutes(g, ctx) is scan.bijection_from_values(
            g.eval_on_field(), ctx.order), n


def kernel_elements(ctx, cols):
    """Bit patterns x with apply_matrix(cols, x) = 0, ascending, as uint64,
    by a scan of the whole field."""
    parts = []
    for start, stop in scan.iter_chunks(ctx.order):
        xs = np.arange(start, stop, dtype=np.uint64)
        parts.append(xs[scan.apply_matrix(cols, xs) == 0])
    return np.concatenate(parts)


@pytest.mark.parametrize("s, e", [(1, 4), (2, 3), (2, 6), (3, 4), (1, 12), (2, 5),
                                  (2, 8), (4, 3)])
def test_subfield_elements_equal_the_kernel_scan(s, e):
    ctx = make_field(s, e)
    unit = np.uint64(1) << np.arange(ctx.m, dtype=np.uint64)
    for k in range(1, e + 1):
        if e % k == 0:
            cols = scan.frobenius_matrix(ctx, k) ^ unit
            kernel = kernel_elements(ctx, cols)
            assert np.array_equal(scan.subfield_elements(ctx, k), kernel), k
            assert np.array_equal(scan.linear_kernel(cols), kernel), k


def test_subfield_elements_scan_nothing_at_gf4_12(monkeypatch):
    def refuse(*args):
        raise AssertionError("whole-field scan")

    monkeypatch.setattr(scan, "apply_matrix", refuse)
    monkeypatch.setattr(scan, "iter_chunks", refuse)
    ctx = make_field(2, 12)
    for k in (1, 2, 3, 4, 6):
        elems = scan.subfield_elements(ctx, k)
        assert elems.size == 4 ** k and not elems.flags.writeable
        assert np.all(elems[1:] > elems[:-1])
        assert all((ctx.element(b) ** 4 ** k).bits == b for b in elems[::7].tolist())


def test_values_equal_handles_constants(f64):
    from permpoly.poly import Add, Const
    one = Const(f64.one())
    assert scan.values_equal(one, one, f64, 0)
    assert not scan.values_equal(one, Var(), f64, 1)
    assert scan.values_equal(Add((Var(), Var())), Const(f64.zero()), f64, 1)


def test_hamming_ball_lists_the_points_of_weight_at_most_r():
    for m in range(1, 25):
        for r in range(m + 1):
            size = sum(math.comb(m, i) for i in range(r + 1))
            if size > 1 << 18:
                break
            # uncached, so the sweep leaves nothing behind in the process
            ball = scan._hamming_ball.__wrapped__(m, r)
            # ascending, hence distinct, and as many as the ball has points
            assert ball.dtype == np.uint64 and ball.size == size, (m, r)
            assert np.all(ball[1:] > ball[:-1]), (m, r)
            assert int(np.bitwise_count(ball).max()) <= r and int(ball.max()) < 1 << m
            if m <= 12:
                xs = np.arange(1 << m, dtype=np.uint64)
                assert np.array_equal(ball, xs[np.bitwise_count(xs) <= r]), (m, r)
    ball = scan._hamming_ball(24, 2)
    assert ball.size == 301 and not ball.flags.writeable
    assert scan._hamming_ball(24, 2) is ball


def test_values_equal_evaluates_the_ball_alone_at_m24(monkeypatch):
    ctx = make_field(2, 12)
    sizes = []
    eval_packed = poly.PolyExpr.eval_packed

    def spy(self, xs, ctx):
        sizes.append(np.size(xs))
        return eval_packed(self, xs, ctx)

    monkeypatch.setattr(poly.PolyExpr, "eval_packed", spy)
    # products, not powers, so no log tables are built at m = 24
    xxq = Mul((Var(), FrobQ(Var(), 1)))
    assert scan.values_equal(xxq, Mul((FrobQ(Var(), 1), Var())), ctx, 2)
    assert sizes == [301, 301]
    assert not scan.values_equal(xxq, Mul((Var(), Var())), ctx, 2)


@pytest.mark.parametrize("s, e", [(1, 4), (2, 3), (3, 2), (2, 7), (4, 3), (1, 13), (3, 5)])
def test_coset_representatives_are_the_patterns_off_the_pivots(s, e):
    ctx = make_field(s, e)
    pivots = 0
    for a in scan.subfield_elements(ctx, 1)[1:].tolist():
        pivots |= 1 << (a.bit_length() - 1)
    xs = np.arange(ctx.order, dtype=np.uint64)
    reps, tq = scan._oracle_translates(ctx, ctx.m)[0], scan._oracle_images(ctx, ctx.m)[0]
    assert not reps.flags.writeable and not tq.flags.writeable
    assert np.array_equal(reps, xs[(xs & np.uint64(pivots)) == 0])
    # x^q + x = y^q + y iff x + y lies in GF(q): one representative per coset
    assert np.unique(tq).size == reps.size == ctx.order // ctx.q


# fields whose m takes the block path once the spot check has one point:
# m = 6..10, with m = 7, 8 and 10 not divisible by 3; below m = 6 the three
# pair tables alone cover the field or more
BLOCK_FIELDS = ((2, 3), (1, 7), (2, 4), (1, 8), (3, 3), (2, 5))


@st.composite
def _quadratic_maps(draw):
    """A field with m in 6..10 and a map over it of degree at most 2: an
    expression tree or a dense polynomial whose exponents have binary
    weight at most 2."""
    s, e = draw(st.sampled_from(BLOCK_FIELDS))
    ctx = make_field(s, e)
    m = ctx.m
    if draw(st.booleans()):
        ones = st.integers(0, m - 1).map(lambda i: 1 << i)
        exps = st.one_of(st.just(0), ones, st.builds(lambda a, b: a + b, ones, ones))
        return ctx, DensePolyF2.from_exponents(ctx, draw(st.sets(exps, max_size=8)))
    const = st.integers(0, ctx.order - 1).map(lambda b: Const(ctx.element(b)))
    leaves = st.one_of(
        st.just(Var()),
        st.lists(st.integers(0, ctx.order - 1), min_size=m, max_size=m).map(
            lambda cs: LinPoly.from_int_coeffs(ctx, cs)),
    )
    additive = st.recursive(leaves, lambda kids: st.one_of(
        st.lists(kids, min_size=1, max_size=3).map(lambda c: Add(tuple(c))),
        st.builds(FrobQ, kids, st.integers(0, 2 * e)),
        st.builds(S, st.integers(0, 2 * e), kids),
        st.builds(Pow, kids, st.integers(0, m - 1).map(lambda i: 1 << i)),
    ), max_leaves=3)
    affine = st.one_of(additive, const, st.builds(lambda a, c: Add((a, c)), additive, const))
    quadratic = st.one_of(
        st.builds(lambda a, b: Mul((a, b)), affine, affine),
        st.builds(lambda a, i, j: Pow(a, (1 << i) + (1 << j)), affine,
                  st.integers(0, m - 1), st.integers(0, m - 1)),
    )
    terms = draw(st.lists(st.one_of(quadratic, affine), min_size=1, max_size=3))
    f = Add(tuple(terms))
    wrap = draw(st.sampled_from(["none", "frob", "s"]))
    if wrap == "frob":
        f = FrobQ(f, draw(st.integers(0, e)))
    elif wrap == "s":
        f = S(draw(st.integers(0, e)), f)
    return ctx, f


@settings(max_examples=120)
@given(_quadratic_maps())
def test_block_path_matches_direct_evaluation(case):
    ctx, f = case
    assert degree_bound(f, ctx.m) <= 2
    xs = np.arange(ctx.order, dtype=np.uint64)
    direct = np.broadcast_to(np.asarray(f.eval_packed(xs, ctx)), xs.shape)
    with mock.patch.object(scan, "SPOT_CHECK_POINTS", 1), \
            mock.patch.object(scan, "_block_values", wraps=scan._block_values) as blocks:
        values = scan.field_values(f, ctx)
    assert blocks.call_count == 1
    assert values.dtype == np.uint32
    assert np.array_equal(values, direct)


def test_block_path_catches_a_wrong_degree_bound(monkeypatch):
    cube = Pow(Var(), 7)
    ctx = make_field(2, 9)
    xs = np.arange(ctx.order, dtype=np.uint64)
    assert np.array_equal(scan.field_values(cube, ctx), cube.eval_packed(xs, ctx))
    monkeypatch.setattr(poly, "degree_bound",
                        lambda f, m: 2 if f == cube else degree_bound(f, m))
    with pytest.raises(AssertionError, match="disagree with direct evaluation"):
        scan.field_values(cube, ctx)


def test_block_path_needs_fewer_points_than_the_field(monkeypatch):
    # m = 12: 3 * 2^8 tables + 4095 spot points > 4096, so GF(4^6) scans directly
    def refuse(*args):
        raise AssertionError("block path taken")

    monkeypatch.setattr(scan, "_block_values", refuse)
    ctx = make_field(2, 6)
    scan.field_values(build_t1_g(2, ctx), ctx)
    # degree 3 at m = 18 scans directly too
    ctx = make_field(2, 9)
    scan.field_values(Pow(Var(), 7), ctx)


def test_spot_points_are_fixed_and_spread():
    pts = scan._spot_points(24)
    assert pts.size == scan.SPOT_CHECK_POINTS and int(pts.max()) < 1 << 24
    assert np.unique(pts).size == pts.size
    # every top-8-bit slice of the field is hit
    assert np.unique(pts >> np.uint64(16)).size == 256
    assert scan._spot_points(24) is pts and not pts.flags.writeable


def test_spot_points_are_distinct_from_m13():
    # permutes needs distinct inputs; at m = 12 only 3657 of 4095 are
    assert np.unique(scan._spot_points(12)).size == 3657
    for m in range(13, 31):
        assert np.unique(scan._spot_points(m)).size == scan.SPOT_CHECK_POINTS, m


@pytest.mark.long
def test_block_path_matches_direct_scan_at_k4(monkeypatch):
    ctx = make_field(2, 12)
    g = build_t1_g(4, ctx)
    sizes = []
    eval_packed = poly.PolyExpr.eval_packed

    def spy(self, xs, ctx):
        sizes.append(np.size(xs))
        return eval_packed(self, xs, ctx)

    monkeypatch.setattr(poly.PolyExpr, "eval_packed", spy)
    blocks = scan.field_values(g, ctx)
    assert sizes == [3 * (1 << 16) + scan.SPOT_CHECK_POINTS]
    # a degree bound of m sends the same map down the direct chunked path;
    # its subtrees keep their true bounds, so affine ones still collapse
    monkeypatch.setattr(poly, "degree_bound",
                        lambda f, m: m if f == g else degree_bound(f, m))
    direct = scan.field_values(g, ctx)
    assert len(sizes) == 1 + ctx.order // scan.DEFAULT_CHUNK
    assert np.array_equal(blocks, direct)
