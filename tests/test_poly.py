"""Polynomial representations: reduction law, cross-representation equality,
expression trees, 2-linearized collapse."""

import json
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permpoly import gf2poly, poly, scan
from permpoly.field import enumerate_elements, eval_S, frobenius_q, make_field
from permpoly.poly import (Add, Const, DensePolyF2, FrobQ, LinPoly, Mul, Pow,
                           S, Var, build_t1_g, degree_bound, expr_eval,
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


def test_dense_mul_folds_like_the_masked_fold():
    # __mul__ folds the carry-less product once, without an order-bit mask;
    # the reference masks the low order bits and moves the high part to t + 1
    rng = random.Random(22)
    for s, e in ((1, 1), (2, 1), (2, 3), (2, 6)):
        ctx = make_field(s, e)
        full, top = (1 << ctx.order) - 1, 1 << (ctx.order - 1)
        cases = [(0, full), (1, full), (full, full), (top, top), (top, full), (full, 2)]
        cases += [(rng.getrandbits(ctx.order), rng.getrandbits(ctx.order)) for _ in range(200)]
        for a, b in cases:
            bits = gf2poly._mul(a, b)
            masked = (bits & full) ^ ((bits >> ctx.order) << 1)
            assert (DensePolyF2(ctx, a) * DensePolyF2(ctx, b)).bits == masked, (ctx, a, b)


def test_dense_mul_allocates_nothing_field_sized():
    # GF(4^15) has order 2^30; an order-bit mask alone would take 128 MB
    ctx = make_field(2, 15)
    a, b = s_dense(ctx, 3), s_dense(ctx, 4)
    tracemalloc.start()
    try:
        prod = a * b
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    support = set()
    for i in a.support():
        for j in b.support():
            support ^= {reduce_exponent(i + j, ctx.order)}
    assert prod.support() == sorted(support)


def test_dense_eval_routes_agree(f4096):
    rng = random.Random(24)
    # eval_on_field is scan.field_values, which evaluates a dense polynomial
    # by eval_packed, the XOR of packed_pow over the support
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
def test_dense_eval_on_field_matches_scalar_powers(case):
    # FieldElement.__pow__ is square-and-multiply in gf2poly: no log tables
    # and no power table
    s, e, exps = case
    ctx = make_field(s, e)
    g = DensePolyF2.from_exponents(ctx, exps)
    vals = g.eval_on_field()
    support = g.support()
    for bits in range(ctx.order):
        x = ctx.element(bits)
        expect = ctx.zero()
        for d in support:
            expect = expect + x ** d
        assert int(vals[bits]) == expect.bits


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


def test_affine_subtrees_collapse_to_one_matrix(f64, monkeypatch):
    c = f64.element(45)
    lin = LinPoly.from_int_coeffs(f64, range(3, 9))
    exprs = [
        Const(c),
        Pow(Var(), 0),
        Add(()),
        Mul(()),
        Mul((Const(c), S(3, Var()))),
        Add((lin, Const(c), FrobQ(Var(), 1))),
        Pow(Add((Var(), Const(c))), 4),
        S(2, Mul((Pow(Var(), 2), Const(c), Const(c)))),
    ]
    xs = np.arange(64, dtype=np.uint64)
    expect = [[expr_eval(f, x).bits for x in enumerate_elements(f64)] for f in exprs]

    def refuse(*args):
        raise AssertionError("an affine subtree was not collapsed")

    monkeypatch.setattr(scan, "packed_mul", refuse)
    monkeypatch.setattr(scan, "packed_pow", refuse)
    for f, want in zip(exprs, expect):
        assert degree_bound(f, f64.m) <= 1
        assert [int(v) for v in f.eval_packed(xs, f64)] == want, f
    with pytest.raises(ValueError, match="different field context"):
        Mul((Const(make_field(2, 3).one()), Var())).eval_packed(xs, f64)


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
        assert scan.values_equal(lhs, rhs, f4096, f4096.m)
        assert funcs_equal_pointwise(lhs, rhs, f4096)


def _points_per_comparison(pairs, ctx, monkeypatch):
    """(verdict of funcs_equal_pointwise, number of points both sides were
    evaluated on) for each pair."""
    sizes = []
    eval_packed = poly.PolyExpr.eval_packed

    def spy(self, xs, ctx):
        sizes.append(np.size(xs))
        return eval_packed(self, xs, ctx)

    monkeypatch.setattr(poly.PolyExpr, "eval_packed", spy)
    results = []
    for lhs, rhs in pairs:
        verdict = funcs_equal_pointwise(lhs, rhs, ctx)
        # values_equal evaluates lhs, then rhs, on each chunk
        assert sizes[::2] == sizes[1::2]
        results.append((verdict, sum(sizes[::2])))
        sizes.clear()
    return results


def test_e1_steps_evaluate_only_the_weight_ball(f4096, monkeypatch):
    # sum over i <= d of C(12, i): d = 1 for mid1 and mid2, d = 2 for the
    # main congruence, whose g contains a product
    got = _points_per_comparison(_e1_pairs(2, f4096), f4096, monkeypatch)
    assert got == [(True, 13), (True, 13), (True, 79)]


def _planted_main(k, ctx):
    """The main congruence, and its rhs with the outer square dropped."""
    _, _, (lhs, rhs) = _e1_pairs(k, ctx)
    assert isinstance(rhs, Pow) and rhs.n == 2
    return lhs, rhs, rhs.child


def test_e1_rejects_a_dropped_square(f4096):
    lhs, _, planted = _planted_main(2, f4096)
    assert not funcs_equal_pointwise(lhs, planted, f4096)
    assert not scan.values_equal(lhs, planted, f4096, f4096.m)


@pytest.mark.long
def test_e1_main_congruence_ball_matches_whole_field_at_k4(monkeypatch):
    ctx = make_field(2, 12)
    lhs, rhs, planted = _planted_main(4, ctx)
    # 1 + 24 + 276 points of Hamming weight <= 2
    assert _points_per_comparison([(lhs, rhs)], ctx, monkeypatch) == [(True, 301)]
    monkeypatch.undo()
    assert not funcs_equal_pointwise(lhs, planted, ctx)
    assert scan.values_equal(lhs, rhs, ctx, ctx.m)
    assert not scan.values_equal(lhs, planted, ctx, ctx.m)


@st.composite
def _maps_and_pairs(draw):
    """A field, a pair of expression maps over it of any degree (half the
    pairs equal by construction) and a dense polynomial."""
    s, e = draw(st.sampled_from([(2, 3), (1, 8)]))
    ctx = make_field(s, e)
    elements = st.integers(0, ctx.order - 1).map(ctx.element)
    leaves = st.one_of(
        st.just(Var()),
        elements.map(Const),
        st.lists(elements, min_size=ctx.m, max_size=ctx.m).map(
            lambda cs: LinPoly(ctx, cs)),
    )

    def extend(children):
        kids = st.lists(children, min_size=1, max_size=3).map(tuple)
        return st.one_of(
            kids.map(Add),
            kids.map(Mul),
            st.builds(Pow, children, st.integers(0, 2 * ctx.order)),
            st.builds(FrobQ, children, st.integers(0, 2 * e)),
            st.builds(S, st.integers(0, 2 * e), children),
        )

    exprs = st.recursive(leaves, extend, max_leaves=5)
    f = draw(exprs)
    # x^(2^m) = x, x^(q^e) = x, h + h = 0 and 1 * h = h
    g = draw(st.one_of(
        exprs,
        st.just(Pow(f, ctx.order)),
        st.builds(lambda i: FrobQ(FrobQ(f, i), e - i), st.integers(0, e)),
        st.builds(lambda h: Add((h, f, h)), exprs),
        st.just(Mul((Const(ctx.one()), f))),
    ))
    dense = DensePolyF2.from_exponents(
        ctx, draw(st.sets(st.integers(0, ctx.order - 1), max_size=6)))
    return ctx, f, g, dense


def _algebraic_degree(f, ctx):
    """The largest weight of a monomial in the algebraic normal form of
    any output bit, from the Moebius transform of the whole value table.

    The table of a tree comes from expr_eval at every element, not from
    eval_packed, which trusts degree_bound for subtrees of degree <= 1, or
    field_values, which trusts it for maps of degree <= 2.
    """
    if isinstance(f, DensePolyF2):
        anf = f.eval_packed(np.arange(ctx.order, dtype=np.uint64), ctx)
    else:
        anf = np.array([expr_eval(f, x).bits for x in enumerate_elements(ctx)],
                       dtype=np.uint64)
    for i in range(ctx.m):
        halves = anf.reshape(-1, 2, 1 << i)
        halves[:, 1, :] ^= halves[:, 0, :]
    support = np.flatnonzero(anf)
    return int(np.bitwise_count(support).max()) if support.size else 0


@settings(max_examples=80)
@given(_maps_and_pairs())
def test_degree_bound_is_sound_and_equality_is_exact(case):
    ctx, f, g, dense = case
    for h in (f, g, dense):
        assert degree_bound(h, ctx.m) >= _algebraic_degree(h, ctx)
    scalar = all(expr_eval(f, x) == expr_eval(g, x) for x in enumerate_elements(ctx))
    assert funcs_equal_pointwise(f, g, ctx) == scan.values_equal(f, g, ctx, ctx.m) == scalar


def test_degree_bound_of_each_node(f64):
    x = Var()
    assert degree_bound(Const(f64.one()), 6) == 0
    assert degree_bound(Pow(x, 0), 6) == 0
    assert degree_bound(LinPoly(f64, [f64.one()] * 6), 6) == 1
    assert degree_bound(S(3, FrobQ(Pow(x, 5), 1)), 6) == 2
    assert degree_bound(Add((x, Mul((x, x, Pow(x, 7))))), 6) == 5
    assert degree_bound(Pow(Mul((x, x)), 63), 6) == 6
    assert degree_bound(DensePolyF2.from_exponents(f64, [0, 3, 62]), 6) == 5
    assert degree_bound(DensePolyF2.zero(f64), 6) == 0
    # (-1).bit_count() == 1, but an inverse is not additive
    assert degree_bound(Pow(x, -1), 6) == 6
    assert degree_bound(Pow(Add((x, Const(f64.one()))), -2), 6) == 6
    with pytest.raises(TypeError):
        degree_bound(object(), 6)


def test_eval_packed_refuses_a_negative_exponent(f64):
    # never collapsed into an affine map that would disagree with expr_eval
    xs = np.arange(64, dtype=np.uint64)
    inv = Pow(Add((Var(), Const(f64.element(3)))), -1)
    for f in (inv, Add((inv, Const(f64.one()))), S(2, inv)):
        with pytest.raises(ValueError, match="exponent must be nonnegative"):
            f.eval_packed(xs, f64)


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
