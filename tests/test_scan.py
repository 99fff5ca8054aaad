"""Packed bulk engine cross-validated against scalar field arithmetic."""

import random
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permpoly import scan
from permpoly.field import eval_S, frobenius_q, in_subfield, make_field
from permpoly.poly import Pow, S, Var, build_t1_g, expr_eval


def _random_bits(ctx, rng, n):
    return np.array([rng.randrange(ctx.order) for _ in range(n)], dtype=np.uint64)


# GF(2), GF(2^8) under its non-primitive default modulus, and GF(4^6) and
# GF(4^7) on either side of the power-table cap
KERNEL_FIELDS = {"gf2": (1, 1), "gf2_8": (1, 8), "gf4_6": (2, 6), "gf4_7": (2, 7)}


@pytest.mark.parametrize("s, e", KERNEL_FIELDS.values(), ids=KERNEL_FIELDS.keys())
def test_packed_mul_square_pow_match_scalar(s, e):
    ctx = make_field(s, e)
    rng = random.Random(11)
    xs = np.append(np.uint64(0), _random_bits(ctx, rng, 200))
    ys = _random_bits(ctx, rng, 201)
    prod = scan.packed_mul(ctx, xs, ys)
    sq = scan.packed_square(ctx, xs)
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


def test_field_values_worker_invariance(f4096, monkeypatch):
    expr = Pow(S(4, Var()), 5)
    base = scan.field_values(expr, f4096)
    monkeypatch.setattr(scan, "DEFAULT_CHUNK", 257)
    for workers in (1, 2, 3, 8):
        assert np.array_equal(scan.field_values(expr, f4096, workers=workers), base)


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
    monkeypatch.setattr(scan, "DEFAULT_CHUNK", 64)  # the two hits in different chunks
    assert scan.bijection_from_values(bad, 256) is False
    assert scan.collision_witness(bad, 256) == int(bad[200])


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
    with mock.patch.object(scan, "DEFAULT_CHUNK", chunk):
        ok = scan.bijection_from_values(values, len(values))
        assert ok is bool((counts == 1).all())
        if ok:
            with pytest.raises(ValueError):
                scan.collision_witness(values, len(values))
        else:
            dup = int(np.flatnonzero(counts >= 2)[0])
            assert scan.collision_witness(values, len(values)) == dup


def test_power_table_rows(monkeypatch):
    monkeypatch.setattr(scan, "DEFAULT_CHUNK", 256)  # missing rows fill 4 at a time
    xs = np.arange(64, dtype=np.uint64)
    for exponents in ([5], [0, 63], [63, 0, 5, 5, 17], [9, 9, 9],
                      list(range(64))[::-1], []):
        ctx = make_field(2, 3)  # fresh context: rows fill as the calls read them
        for reads in (exponents, exponents[::2], exponents):
            rows = scan.power_table(ctx, reads)
            assert rows.shape == (len(reads), 64)
            for row, d in zip(rows, reads):
                assert np.array_equal(row, scan.packed_pow(ctx, xs, d))
                for x in range(64):  # x = 0 included
                    assert int(row[x]) == (ctx.element(x) ** d).bits, (d, x)
        assert len(ctx._cache["power_table"][1]) == len(set(exponents))


def test_power_table_threads_never_read_an_unfilled_row():
    ctx = make_field(2, 6)
    rng = random.Random(14)
    reads = [[rng.randrange(300) for _ in range(rng.randrange(1, 12))]
             for _ in range(400)]
    xs = np.arange(ctx.order, dtype=np.uint64)
    expect = {d: scan.packed_pow(ctx, xs, d) for d in set().union(*reads)}

    def read(exponents):
        rows = scan.power_table(ctx, exponents)
        return all(np.array_equal(row, expect[d]) for row, d in zip(rows, exponents))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(read, r) for r in reads]
            assert all(f.result(timeout=60) for f in futures)
    finally:
        sys.setswitchinterval(old)
    assert ctx._cache["power_table"][1] == set(expect)


def test_power_table_cap():
    with pytest.raises(ValueError, match="capped at order 4096"):
        scan.power_table(make_field(2, 7), [1])


def test_packed_pow_broadcasts_exponent_rows(f64):
    xs = np.arange(64, dtype=np.uint64)
    ns = np.array([0, 1, 62, 63, 64, 65921])
    rows = scan.packed_pow(f64, xs, ns[:, None])
    assert rows.shape == (len(ns), 64) and rows.dtype == np.uint64
    for row, n in zip(rows, ns):
        assert np.array_equal(row, scan.packed_pow(f64, xs, int(n)))
    with pytest.raises(ValueError, match="nonnegative"):
        scan.packed_pow(f64, xs, np.array([[3], [-1]]))
    with pytest.raises(ValueError, match="nonnegative"):
        scan.packed_pow(f64, xs, -1)


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


def test_subfield_mask_matches_in_subfield(f4096):
    for k in (1, 2, 3):
        mask = scan.subfield_mask(f4096, k)
        assert int(mask.sum()) == 4 ** k
        for bits in range(0, 4096, 97):
            assert bool(mask[bits]) == in_subfield(f4096.element(bits), k)
    with pytest.raises(ValueError):
        scan.subfield_mask(f4096, 4)


def test_values_equal_handles_constants(f64):
    from permpoly.poly import Add, Const
    one = Const(f64.one())
    assert scan.values_equal(one, one, f64)
    assert not scan.values_equal(one, Var(), f64)
    assert scan.values_equal(Add((Var(), Var())), Const(f64.zero()), f64)
