"""Polynomial representations: reduction law, cross-representation equality,
expression trees, 2-linearized collapse."""

import json
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permpoly import poly, scan
from permpoly.field import enumerate_elements, eval_S, frobenius_q, make_field
from permpoly.poly import (Add, Const, DensePolyF2, FrobQ, LinPoly, Mul, Pow,
                           S, Var, build_t1_g, expr_eval,
                           funcs_equal_pointwise, identity_e1_check,
                           lin_from_expr, reduce_exponent, s_dense)


def test_reduce_exponent_law():
    assert reduce_exponent(0, 64) == 0
    assert reduce_exponent(1, 64) == 1
    assert reduce_exponent(63, 64) == 63
    assert reduce_exponent(64, 64) == 1
    assert reduce_exponent(126, 64) == 63
    assert reduce_exponent(127, 64) == 1  # not 0: x^127 = x on GF(64), even at 0
    with pytest.raises(ValueError):
        reduce_exponent(-1, 64)
    with pytest.raises(ValueError):
        reduce_exponent(3, 1)


def test_reduce_exponent_preserves_function(f64):
    rng = random.Random(21)
    for _ in range(50):
        m = rng.randrange(0, 1 << 14)
        r = reduce_exponent(m, 64)
        x = f64.random_element(rng)
        assert x ** m == x ** r
        assert f64.zero() ** m == f64.zero() ** r


def test_dense_mul_matches_sparse(f64):
    rng = random.Random(23)
    for _ in range(15):
        ea = [rng.randrange(80) for _ in range(3)]
        eb = [rng.randrange(80) for _ in range(3)]
        da = DensePolyF2.from_exponents(f64, ea)
        db = DensePolyF2.from_exponents(f64, eb)
        dp = da * db
        # sparse reference: xor every reduced pairwise exponent sum into a set
        support = set()
        for a in da.support():
            for b in db.support():
                support ^= {reduce_exponent(a + b, f64.order)}
        assert sorted(dp.support()) == sorted(support)
        for _ in range(4):
            x = f64.random_element(rng)
            assert dp.eval_at(x) == da.eval_at(x) * db.eval_at(x)


def test_dense_eval_routes_agree(f4096):
    rng = random.Random(24)
    # eval_on_field reads power-table rows in GF(4^6); above the cap, in GF(4^7),
    # it runs eval_packed, which XORs packed_pow over the support
    for ctx in (f4096, make_field(2, 7)):
        order = ctx.order
        g = (s_dense(ctx, 3) * s_dense(ctx, 4) + DensePolyF2.one(ctx)
             + DensePolyF2.from_exponents(ctx, [order - 1, order // 3]))
        vals = g.eval_on_field()
        assert vals.dtype == np.uint32 and vals.shape == (order,)
        for bits in [0, 1, order - 1] + [rng.randrange(order) for _ in range(12)]:
            assert int(vals[bits]) == g.eval_at(ctx.element(bits)).bits
        xs = np.array([rng.randrange(order) for _ in range(50)], dtype=np.uint64)
        packed = g.eval_packed(xs, ctx)
        for i, b in enumerate(xs):
            assert int(packed[i]) == int(vals[int(b)])
        assert not DensePolyF2.zero(ctx).eval_on_field().any()


@st.composite
def _field_and_exponents(draw):
    s = draw(st.integers(1, 10))
    e = draw(st.integers(1, 10 // s))
    order = 1 << (s * e)
    exps = draw(st.sets(st.integers(0, order - 1), max_size=6))
    return s, e, exps | {0, order - 1}


@settings(max_examples=20)
@given(_field_and_exponents())
def test_dense_eval_on_field_matches_horner(case):
    s, e, exps = case
    ctx = make_field(s, e)
    g = DensePolyF2.from_exponents(ctx, exps)
    vals = g.eval_on_field()
    for bits in range(ctx.order):
        assert int(vals[bits]) == g.eval_at(ctx.element(bits)).bits


def test_dense_json_round_trip(f64):
    g = DensePolyF2.from_exponents(f64, [0, 5, 63])
    obj = g.to_json_obj()
    assert obj == {"order": 64, "terms": [[0, "0x1"], [5, "0x1"], [63, "0x1"]]}
    obj = json.loads(json.dumps(obj))
    assert DensePolyF2.from_exponents(f64, [e for e, _ in obj["terms"]]) == g


def test_s_dense_reduction_identity(f4096):
    # S_8 folds onto S_6 + S_2 over GF(4^6): q^6 -> q^0, q^7 -> q^1
    assert s_dense(f4096, 8) == s_dense(f4096, 6) + s_dense(f4096, 2)
    assert s_dense(f4096, 0).bits == 0


def test_linpoly_is_additive_and_matches_matrix(f64):
    rng = random.Random(25)
    coeffs = [f64.random_element(rng) for _ in range(f64.m)]
    L = LinPoly(f64, coeffs)
    for _ in range(30):
        x, y = f64.random_element(rng), f64.random_element(rng)
        assert L.eval_at(x + y) == L.eval_at(x) + L.eval_at(y)
    xs = np.arange(64, dtype=np.uint64)
    packed = L.eval_packed(xs, f64)
    for bits in range(64):
        assert int(packed[bits]) == L.eval_at(f64.element(bits)).bits
    with pytest.raises(ValueError):
        LinPoly(f64, coeffs[:-1])


def test_expr_eval_node_semantics(f64):
    rng = random.Random(26)
    x = f64.random_element(rng)
    c = f64.element(7)
    expr = Add((Mul((Const(c), Var())), Pow(Var(), 5), FrobQ(S(2, Var()), 1)))
    expected = c * x + x ** 5 + frobenius_q(eval_S(2, x), 1)
    assert expr_eval(expr, x) == expected
    assert expr_eval(Mul(()), x) == f64.one()
    assert expr_eval(Add(()), x) == f64.zero()


def test_expr_packed_matches_scalar_including_nonadditive(f4096):
    rng = random.Random(27)
    c = f4096.element(1234)
    exprs = [
        build_t1_g(2, f4096),
        Add((Mul((Const(c), Pow(Var(), 3))), S(5, Var()))),
        Mul((Var(), Var(), Var())),
        Pow(FrobQ(Var(), 2), 6),
        Const(c),
    ]
    xs = np.array([rng.randrange(4096) for _ in range(64)], dtype=np.uint64)
    for expr in exprs:
        packed = np.broadcast_to(np.asarray(expr.eval_packed(xs, f4096)), xs.shape)
        for i in range(0, 64, 7):
            assert int(packed[i]) == expr_eval(expr, f4096.element(int(xs[i]))).bits


def test_build_t1_g_context_validation(f4096, f64):
    g = build_t1_g(2, f4096)
    x = f4096.element(99)
    s3, s4 = eval_S(3, x), eval_S(4, x)
    assert expr_eval(g, x) == s3 * s3 + frobenius_q(s4, 2) * s4
    with pytest.raises(ValueError):
        build_t1_g(2, f64)  # e must be 3k
    with pytest.raises(ValueError):
        build_t1_g(0, f4096)


def test_funcs_equal_pointwise_distinguishes(f64):
    # x^64 and x agree as functions; x^2 and x do not
    assert funcs_equal_pointwise(Pow(Var(), 64), Var(), f64)
    assert not funcs_equal_pointwise(Pow(Var(), 2), Var(), f64)


def test_identity_e1_holds_at_k2_and_gates_odd(f4096):
    assert identity_e1_check(2, f4096)
    for bad in (1, 3, 0):
        with pytest.raises(ValueError):
            identity_e1_check(bad)


def _e1_pairs(k, ctx):
    """The (lhs, rhs) pairs identity_e1_check compares, in order:
    mid1, mid2 and the main congruence."""
    pairs = []

    def record(f, g, ctx):
        pairs.append((f, g))
        return True

    with mock.patch.object(poly, "funcs_equal_pointwise", record):
        identity_e1_check(k, ctx)
    return pairs


def test_e1_additive_steps_agree_with_whole_field_scan(f4096):
    mid1, mid2, _ = _e1_pairs(2, f4096)
    for lhs, rhs in (mid1, mid2):
        assert scan.values_equal(lhs, rhs, f4096)
        assert funcs_equal_pointwise(lhs, rhs, f4096)


def test_e1_additive_steps_compare_matrices(f4096, monkeypatch):
    mid1, mid2, main = _e1_pairs(2, f4096)

    def refuse(*args):
        raise AssertionError("whole-field scan")

    monkeypatch.setattr(scan, "values_equal", refuse)
    assert funcs_equal_pointwise(*mid1, f4096)
    assert funcs_equal_pointwise(*mid2, f4096)
    with pytest.raises(AssertionError, match="whole-field scan"):
        funcs_equal_pointwise(*main, f4096)  # g contains a product


def _additive_exprs(s, e):
    def extend(children):
        return st.one_of(
            st.lists(children, min_size=1, max_size=3).map(lambda cs: Add(tuple(cs))),
            st.builds(lambda c, j: Pow(c, 1 << j), children, st.integers(0, 2 * s * e)),
            st.builds(FrobQ, children, st.integers(0, 2 * e)),
            st.builds(S, st.integers(0, 2 * e), children),
        )
    return st.recursive(st.just(Var()), extend, max_leaves=5)


@st.composite
def _additive_pairs(draw):
    s, e = draw(st.sampled_from([(2, 3), (1, 8)]))
    exprs = _additive_exprs(s, e)
    f = draw(exprs)
    # half the pairs are equal by construction: x^(2^m) = x, x^(q^e) = x, h + h = 0
    g = draw(st.one_of(
        exprs,
        st.just(Pow(f, 1 << (s * e))),
        st.builds(lambda i: FrobQ(FrobQ(f, i), e - i), st.integers(0, e)),
        st.builds(lambda h: Add((h, f, h)), exprs),
    ))
    return make_field(s, e), f, g


@settings(max_examples=60)
@given(_additive_pairs())
def test_additive_matrix_comparison_matches_scans(case):
    ctx, f, g = case
    scalar = all(expr_eval(f, x) == expr_eval(g, x) for x in enumerate_elements(ctx))
    assert funcs_equal_pointwise(f, g, ctx) == scan.values_equal(f, g, ctx) == scalar


def test_lin_from_expr_agrees_with_tree(f4096):
    rng = random.Random(28)
    exprs = [
        Pow(S(3, Var()), 2),
        Add((Var(), FrobQ(Var(), 2))),
        S(4, FrobQ(Var(), 1)),
        Pow(Add((S(2, Var()), Var())), 4),
    ]
    for expr in exprs:
        L = lin_from_expr(expr, f4096, rng)
        for _ in range(20):
            x = f4096.random_element(rng)
            assert L.eval_at(x) == expr_eval(expr, x)
    with pytest.raises(ValueError):
        lin_from_expr(Pow(Var(), 3), f4096)  # 3 is not a 2-power
    with pytest.raises(ValueError):
        lin_from_expr(Mul((Var(), Var())), f4096)
