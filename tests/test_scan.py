"""Packed bulk engine cross-validated against scalar field arithmetic."""

import random

import numpy as np
import pytest

from permpoly import scan
from permpoly.field import (eval_S, frobenius_q, in_subfield, make_field,
                            trace_absolute)
from permpoly.poly import Pow, S, Var, build_t1_g, expr_eval


def _random_bits(ctx, rng, n):
    return np.array([rng.randrange(ctx.order) for _ in range(n)], dtype=np.uint64)


def test_packed_mul_square_pow_match_scalar(f4096):
    rng = random.Random(11)
    xs = _random_bits(f4096, rng, 200)
    ys = _random_bits(f4096, rng, 200)
    prod = scan.packed_mul(f4096, xs, ys)
    sq = scan.packed_square(f4096, xs)
    p9 = scan.packed_pow(f4096, xs, 9)
    p0 = scan.packed_pow(f4096, xs, 0)
    for i in range(len(xs)):
        a = f4096.element(int(xs[i]))
        b = f4096.element(int(ys[i]))
        assert int(prod[i]) == (a * b).bits
        assert int(sq[i]) == a.square().bits
        assert int(p9[i]) == (a ** 9).bits
    assert np.all(np.asarray(p0) == 1)


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


def test_trace_bits_matches_scalar(f4096):
    xs = np.arange(512, dtype=np.uint64)
    tb = scan.trace_bits(f4096, xs)
    for j in range(512):
        assert int(tb[j]) == trace_absolute(f4096.element(j))


def test_field_values_matches_pointwise_eval(f64):
    g = build_t1_g(1, f64)
    values = scan.field_values(g, f64)
    assert values.dtype == np.uint32 and len(values) == 64
    for bits in range(64):
        assert int(values[bits]) == expr_eval(g, f64.element(bits)).bits


def test_field_values_worker_invariance(f4096):
    expr = Pow(S(4, Var()), 5)
    base = scan.field_values(expr, f4096, chunk_size=257)
    for workers in (2, 3, 8):
        assert np.array_equal(
            scan.field_values(expr, f4096, workers=workers, chunk_size=257), base)
    assert np.array_equal(scan.field_values(expr, f4096), base)


def test_bijection_from_values_detects_duplicates():
    ok, dup = scan.bijection_from_values(np.arange(256, dtype=np.uint32), 256)
    assert ok and dup is None
    perm = np.arange(256, dtype=np.uint32)[::-1].copy()
    assert scan.bijection_from_values(perm, 256) == (True, None)
    bad = perm.copy()
    bad[7] = bad[200]  # same chunk or across chunks depending on size
    ok, dup = scan.bijection_from_values(bad, 256, chunk_size=64)
    assert not ok and dup == int(bad[200])
    ok, dup = scan.bijection_from_values(bad, 256)
    assert not ok and dup == int(bad[200])


def test_power_table_rows(f64):
    table = scan.power_table(f64)
    assert table.shape == (64, 64)
    rng = random.Random(14)
    for _ in range(40):
        d = rng.randrange(64)
        x = rng.randrange(64)
        assert int(table[d][x]) == (f64.element(x) ** d).bits
    with pytest.raises(ValueError):
        scan.power_table(make_field(2, 7))


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
