"""The g_(n,q) family and the verification pipelines sitting on top of it."""

import json
import os
import pathlib
import random
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permpoly import gnq, scan
from permpoly.field import enumerate_elements, in_subfield, make_field
from permpoly.gf2poly import BitPoly
from permpoly.gnq import (DesirableTriple, check_t2_conditions, gnq_base,
                          gnq_closed_form, gnq_oracle_check, gnq_recurrence,
                          probe_t1_odd, search_desirable, verify_corollary,
                          verify_t1)
from permpoly.poly import (Add, DensePolyF2, LinPoly, PolyExpr, Pow, S, Var,
                           degree_bound, funcs_equal_pointwise, lin_from_expr,
                           reduce_exponent, s_dense)
from permpoly.scan import POWER_TABLE_MAX_ORDER

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_base_cases_from_defining_identity(f16):
    assert [gnq_base(n, 4, f16).bits for n in range(4)] == [0, 0, 0, 1]
    f8 = make_field(1, 3)
    assert [gnq_base(n, 2, f8).bits for n in range(2)] == [0, 1]
    with pytest.raises(ValueError):
        gnq_base(4, 4, f16)  # n = q is not a base case
    with pytest.raises(ValueError):
        gnq_base(-1, 4, f16)
    with pytest.raises(ValueError):
        gnq_base(1, 2, f16)  # context carries q = 4


def test_base_constant_is_one_exactly_at_q_minus_1():
    # sum over a in GF(q) of a^t is 1 for t = q - 1 and 0 for 0 <= t < q - 1,
    # so for n < q the expansion is constant and equals 1 iff n = q - 1
    for s in range(1, 9):
        q = 1 << s
        ctx = make_field(s, 1)
        assert [gnq_base(n, q, ctx).bits for n in range(q)] == [0] * (q - 1) + [1], q


def test_base_field_built_once_per_q(monkeypatch):
    contexts = {s: (make_field(s, 1), make_field(s, 2)) for s in (1, 2, 3)}
    built = []

    def spy(s, e, *args, **kwargs):
        built.append((s, e))
        return make_field(s, e, *args, **kwargs)

    gnq._base_field.cache_clear()
    gnq._power_sum.cache_clear()
    monkeypatch.setattr(gnq, "make_field", spy)
    for s, pair in contexts.items():
        for ctx in pair:
            for n in range(1 << s):
                gnq_base(n, 1 << s, ctx)
    assert built == [(1, 1), (2, 1), (3, 1)]


def test_recurrence_small_values(f16):
    # g_(q,q) = g_1 + S_1 g_0 = 0 and g_(q+1,q) = g_2 + S_1 g_1 = 0
    assert gnq_recurrence(4, 4, f16).bits == 0
    assert gnq_recurrence(5, 4, f16).bits == 0
    # g_7 = g_4 + S_1 g_3 = S_1: the first nonzero member
    assert gnq_recurrence(7, 4, f16) == s_dense(f16, 1)
    with pytest.raises(ValueError):
        gnq_recurrence(-1, 4, f16)


def test_recurrence_memo_is_deterministic(f64):
    r1 = gnq_recurrence(1000, 4, f64)
    r2 = gnq_recurrence(1000, 4, f64)
    assert r1 is r2  # memo hit
    fresh = make_field(2, 3)
    assert gnq_recurrence(1000, 4, fresh).bits == r1.bits


def test_recurrence_memo_bound_trips():
    fresh = make_field(2, 3)
    with pytest.raises(RuntimeError, match="memo"):
        gnq_recurrence(65921, 4, fresh, memo_bound=4)


def test_recurrence_needs_no_call_stack_at_n_4_400():
    # one step per memo entry: 3595 of them, far past the recursion limit
    ctx = make_field(2, 2)
    n = 4 ** 400 - 1
    assert gnq_oracle_check(n, 4, ctx, g=gnq_recurrence(n, 4, ctx))
    assert len(gnq._memo(ctx, 4)) == 3595


def test_closed_form_validation(f4096):
    with pytest.raises(ValueError):
        gnq_closed_form([(1, 2)], 4, f4096)  # needs q/2 = 2 pairs
    with pytest.raises(ValueError):
        gnq_closed_form([(1, 2), (-1, 0)], 4, f4096)
    with pytest.raises(ValueError):
        gnq_closed_form([(1, 2), (3, 4)], 2, f4096)
    n, g = gnq_closed_form([(0, 0), (0, 0)], 4, f4096)
    assert n == 5 and g.bits == 0


def test_closed_form_matches_recurrence_on_random_pairs(f4096):
    rng = random.Random(41)
    for _ in range(20):
        pairs = [(rng.randrange(7), rng.randrange(7)) for _ in range(2)]
        n, g_cf = gnq_closed_form(pairs, 4, f4096)
        g_rec = gnq_recurrence(n, 4, f4096)
        assert g_rec == g_cf, (pairs, n)


def test_oracle_accepts_recurrence_and_rejects_corruption(f16, f64):
    for n in (0, 1, 3, 7, 23, 65, 257, 1000):
        assert gnq_oracle_check(n, 4, f16)
        assert gnq_oracle_check(n, 4, f64)
    f8 = make_field(1, 3)
    for n in (0, 1, 2, 5, 100):
        assert gnq_oracle_check(n, 2, f8)
    # a wrong polynomial must fail the identity
    wrong = gnq_recurrence(7, 4, f16) + DensePolyF2.one(f16)
    assert not gnq_oracle_check(7, 4, f16, g=wrong)
    # GF(4^7) lies above the power-table cap, so g is evaluated through packed_pow
    f47 = make_field(2, 7)
    assert f47.order > POWER_TABLE_MAX_ORDER
    for n in (7, 23, 257, 1000):
        assert gnq_oracle_check(n, 4, f47)
        wrong = gnq_recurrence(n, 4, f47) + DensePolyF2.one(f47)
        assert not gnq_oracle_check(n, 4, f47, g=wrong)


def test_oracle_in_strictly_larger_field(f4096):
    # reductions valid only mod x^(4^3) - x would be exposed over GF(4^6)
    for n in (7, 23, 65, 257, 65921):
        assert gnq_oracle_check(n, 4, f4096)


class _Values:
    """A g stand-in: only ctx and its values, which is all the oracle reads."""

    def __init__(self, ctx, values):
        self.ctx, self.values = ctx, values

    def eval_on_field(self):
        return self.values

    def eval_packed(self, xs, ctx):
        return self.values[xs]


# GF(2^4), GF(4^2), GF(4^3), GF(8^2)
_COSET_FIELDS = ((1, 4), (2, 2), (2, 3), (3, 2))


def _reference_sides(n, ctx):
    """x^q + x and the sum over a in GF(q) of (x + a)^n at every x, by
    scalar powers over the whole field."""
    q = ctx.q
    xs = [ctx.element(i) for i in range(ctx.order)]
    tq = np.array([(x ** q + x).bits for x in xs], dtype=np.uint64)
    xn = np.array([(x ** n).bits for x in xs], dtype=np.uint64)
    a_bits = [x.bits for x in xs if x ** q == x]
    assert len(a_bits) == q
    idx = np.arange(ctx.order, dtype=np.uint64)
    rhs = np.zeros(ctx.order, dtype=np.uint64)
    for a in a_bits:
        rhs ^= xn[idx ^ np.uint64(a)]
    return tq, rhs


def _oracle_reference(n, g, ctx):
    """The defining identity at every x, the right side by scalar powers."""
    tq, rhs = _reference_sides(n, ctx)
    return bool(np.array_equal(g.eval_on_field()[tq], rhs))


def _coset_sums(ctx, reps, n):
    """The sum over a in GF(q) of (y + a)^n at each y of reps, from n itself."""
    a_bits = scan.subfield_elements(ctx, 1)[:, None]
    return np.bitwise_xor.reduce(scan.packed_pow(ctx, a_bits ^ reps, n), axis=0)


@pytest.mark.parametrize("chunk", [None, 4])
@pytest.mark.parametrize("s,e", _COSET_FIELDS)
def test_oracle_checks_every_coset(s, e, chunk, monkeypatch):
    ctx = make_field(s, e)
    q = ctx.q
    n = 2 * q + 3
    reps, tq = scan._oracle_points(ctx, ctx.m)
    sums = scan._kept_power_sums(ctx, reduce_exponent(n, ctx.order))
    assert reps.shape == tq.shape == sums.shape == (ctx.order // q,)
    # x^q + x = y^q + y iff x + y lies in GF(q), so order/q distinct images
    # mean one representative in every coset
    assert np.unique(tq).size == ctx.order // q
    ref_tq, ref_rhs = _reference_sides(n, ctx)
    want = dict(zip(ref_tq.tolist(), ref_rhs.tolist()))
    assert sums.tolist() == [want[t] for t in tq.tolist()]
    gv = gnq_recurrence(n, q, ctx).eval_on_field()
    if chunk is not None:
        # with the cap below the order, the oracle takes its chunked loop,
        # and wt2(n) = 3 gives a ball no smaller than the cosets
        monkeypatch.setattr(scan, "POWER_TABLE_MAX_ORDER", 0)
        monkeypatch.setattr(scan, "DEFAULT_CHUNK", chunk)
    assert gnq_oracle_check(n, q, ctx, g=_Values(ctx, gv))
    for y in tq:
        wrong = gv.copy()
        wrong[y] ^= 1
        assert not gnq_oracle_check(n, q, ctx, g=_Values(ctx, wrong)), y


def test_oracle_chunked_path_rejects_each_flip(monkeypatch):
    # GF(4^7) lies above the power-table cap, so the right side is computed
    # chunk by chunk on every call, never kept.  wt2(63) = 6, and the ball
    # of radius 6 in 14 bits is larger than the 4096 cosets, so the oracle
    # takes the cosets without asking the stand-in for its degree
    ctx = make_field(2, 7)
    assert ctx.order > POWER_TABLE_MAX_ORDER
    n = 63
    gv = gnq_recurrence(n, ctx.q, ctx).eval_on_field()
    reps, tq = scan._oracle_points(ctx, 6)
    assert reps.size == ctx.order // ctx.q
    monkeypatch.setattr(scan, "DEFAULT_CHUNK", 1000)
    assert gnq_oracle_check(n, ctx.q, ctx, g=_Values(ctx, gv))
    ends = {i for start, stop in scan.iter_chunks(tq.size) for i in (start, stop - 1)}
    assert len(ends) == 10
    for i in sorted(ends | set(range(0, tq.size, 331))):
        wrong = gv.copy()
        wrong[tq[i]] ^= 1 << (i % ctx.m)
        assert not gnq_oracle_check(n, ctx.q, ctx, g=_Values(ctx, wrong)), i


@pytest.mark.long
@pytest.mark.parametrize("e", [7, 8])
def test_ball_oracle_agrees_with_cosets(e):
    # the cosets are the independent reference, computed here: the first
    # x of each value of x^q + x, and the sums from n itself.  Every
    # n <= 300, for g and for two one-coefficient flips of g, is also
    # decided here on the ball of its degree whether or not the oracle
    # would choose that ball
    ctx = make_field(2, e)
    assert ctx.order > POWER_TABLE_MAX_ORDER
    xs = np.arange(ctx.order, dtype=np.uint64)
    frob = scan.frobenius_matrix(ctx, 1)
    _, first = np.unique(scan.apply_matrix(frob, xs) ^ xs, return_index=True)
    reps = xs[first]
    tq = scan.apply_matrix(frob, reps) ^ reps
    assert reps.size == ctx.order // ctx.q
    rng = random.Random(e)
    chosen = 0
    for n in range(301):
        sums = _coset_sums(ctx, reps, n)
        g = gnq_recurrence(n, 4, ctx)
        flips = [DensePolyF2(ctx, g.bits ^ 1 << rng.randrange(ctx.order)) for _ in range(2)]
        for h in [g] + flips:
            by_cosets = bool(np.array_equal(h.eval_on_field()[tq], sums))
            assert by_cosets == (h is g), n
            radius = max(reduce_exponent(n, ctx.order).bit_count(), degree_bound(h, ctx.m))
            ball = scan._hamming_ball(ctx.m, radius)
            ball_tq = scan.apply_matrix(frob, ball) ^ ball
            by_ball = bool(np.array_equal(h.eval_packed(ball_tq, ctx), _coset_sums(ctx, ball, n)))
            assert by_ball == by_cosets, n
            assert gnq_oracle_check(n, 4, ctx, g=h) == by_cosets, n
            if h is g:
                chosen += ball.size < ctx.order // ctx.q
    # the oracle took the ball for most g: 263 of them at e = 7, 292 at e = 8
    assert chosen > 250


def test_ball_path_evaluates_nothing_on_the_whole_field(monkeypatch):
    # above the cap neither point set needs g on the whole field: n = 29
    # takes the ball, n = 63 the cosets
    ctx = make_field(2, 7)
    gs = {n: gnq_recurrence(n, 4, ctx) for n in (29, 63)}

    def refuse(*args):
        raise AssertionError("whole-field evaluation above the power-table cap")

    monkeypatch.setattr(scan, "field_values", refuse)
    for n, g in gs.items():
        assert gnq_oracle_check(n, 4, ctx)
        assert not gnq_oracle_check(n, 4, ctx, g=g + DensePolyF2.one(ctx))


def test_coset_path_is_kept_when_the_ball_is_larger(monkeypatch):
    # wt2(63) = 6: 6476 points of weight <= 6 in 14 bits, 4096 cosets
    ctx = make_field(2, 7)
    assert reduce_exponent(63, ctx.order).bit_count() == 6
    assert scan._ball_size(ctx.m, 6) == 6476 > ctx.order // ctx.q
    taken = []
    oracle_points = scan._oracle_points

    def spy(ctx, radius):
        xs, tq = oracle_points(ctx, radius)
        taken.append(xs)
        return xs, tq

    monkeypatch.setattr(scan, "_oracle_points", spy)
    g = gnq_recurrence(63, 4, ctx)
    assert gnq_oracle_check(63, 4, ctx, g=g)
    assert not gnq_oracle_check(63, 4, ctx, g=g + DensePolyF2.one(ctx))
    assert len(taken) == 2 and taken[0] is taken[1]
    assert np.array_equal(taken[0], scan._oracle_points(ctx, ctx.m)[0])
    assert taken[0].size == ctx.order // ctx.q


def test_coset_points_are_kept_once_per_context():
    # n = 63 and n = 1023 reach the cosets from the radii 6 and 10
    ctx = make_field(2, 7)
    radii = [reduce_exponent(n, ctx.order).bit_count() for n in (63, 1023)]
    assert radii == [6, 10]
    assert all(scan._ball_size(ctx.m, r) >= ctx.order // ctx.q for r in radii)
    points = scan._kept_oracle_points.__wrapped__
    for n in (63, 1023):
        assert gnq_oracle_check(n, 4, ctx)
    kept = [key for key in ctx._cache if key[0] is points]
    assert kept == [(points, ctx.m)]
    assert scan._oracle_points(ctx, 6) is scan._oracle_points(ctx, 10)


# q <= 32: the base cases of a new q cost about q^2 scalar powers in all
@settings(max_examples=40)
@given(st.sampled_from([(s, e) for s in range(1, 6) for e in range(1, 11) if s * e <= 10]),
       st.integers(0, 10 ** 5), st.randoms(use_true_random=False))
def test_oracle_matches_whole_field_reference(se, n, rng):
    ctx = make_field(*se)
    g = gnq_recurrence(n, ctx.q, ctx)
    assert _oracle_reference(n, g, ctx)
    assert gnq_oracle_check(n, ctx.q, ctx, g=g)
    flipped = DensePolyF2(ctx, g.bits ^ rng.getrandbits(ctx.order))
    assert gnq_oracle_check(n, ctx.q, ctx, g=flipped) == _oracle_reference(n, flipped, ctx)


# GF(2), GF(4) over GF(2) and over GF(4), GF(8), GF(2^4), GF(4^2), GF(4^3)
@pytest.mark.parametrize("s,e", [(1, 1), (1, 2), (2, 1), (1, 3), (1, 4), (2, 2), (2, 3)])
def test_oracle_memo_matches_unmemoized_right_side(s, e, monkeypatch):
    ctx = make_field(s, e)
    q, order = ctx.q, ctx.order
    rng = random.Random(order + q)
    reps, tq = scan._oracle_points(ctx, ctx.m)
    for n in range(3 * order + 1):
        memo = scan._kept_power_sums(ctx, reduce_exponent(n, order))
        rhs = _coset_sums(ctx, reps, n)
        assert np.array_equal(memo, rhs), n
        g = gnq_recurrence(n, q, ctx)
        flipped = DensePolyF2(ctx, g.bits ^ rng.getrandbits(order))
        for h in (g, flipped):
            want = _oracle_reference(n, h, ctx)
            assert np.array_equal(h.eval_on_field()[tq], rhs) == want, n
            assert gnq_oracle_check(n, q, ctx, g=h) == want, n
            # with the cap below the order, the chunked loop computes the
            # right side from n itself
            with monkeypatch.context() as mp:
                mp.setattr(scan, "POWER_TABLE_MAX_ORDER", 0)
                assert gnq_oracle_check(n, q, ctx, g=h) == want, n


def test_oracle_memo_hit_rejects_a_corrupted_g(monkeypatch):
    ctx = make_field(2, 3)
    n = 23
    assert gnq_oracle_check(n, 4, ctx)
    # n + (order - 1) reduces to the same row, so this call is a memo hit
    n2 = n + ctx.order - 1
    assert reduce_exponent(n2, ctx.order) == reduce_exponent(n, ctx.order)
    gv = gnq_recurrence(n2, 4, ctx).eval_on_field()

    def refuse(*args):
        raise AssertionError("packed_pow called on a memo hit")

    monkeypatch.setattr(scan, "packed_pow", refuse)
    assert gnq_oracle_check(n2, 4, ctx, g=_Values(ctx, gv))
    tq = scan._oracle_points(ctx, ctx.m)[1]
    wrong = gv.copy()
    wrong[tq[5]] ^= 1
    assert not gnq_oracle_check(n2, 4, ctx, g=_Values(ctx, wrong))


def test_oracle_and_recurrence_set_up_once_per_context(monkeypatch):
    ctx = make_field(2, 3)
    built = []
    from_exponents = DensePolyF2.from_exponents.__func__

    def spy(cls, ctx, exponents):
        exponents = tuple(exponents)
        built.append(exponents)
        return from_exponents(cls, ctx, exponents)

    monkeypatch.setattr(DensePolyF2, "from_exponents", classmethod(spy))
    assert gnq_oracle_check(23, 4, ctx)

    def refuse(cols, x):
        raise AssertionError("apply_matrix called after the oracle's set-up")

    monkeypatch.setattr(scan, "apply_matrix", refuse)
    rhs_shapes = []
    packed_pow = scan.packed_pow

    def pow_spy(ctx, a, n):
        rhs_shapes.append(np.shape(a))
        return packed_pow(ctx, a, n)

    monkeypatch.setattr(scan, "packed_pow", pow_spy)
    for n in range(2000):
        assert gnq_oracle_check(n, 4, ctx), n
    # n < 2000 < 4^6 needs S_1 .. S_5, each built once
    assert sorted(map(len, built)) == [1, 2, 3, 4, 5]
    # one right side per reduced exponent, over the q translates of every
    # representative at once: at most order of them
    assert 0 < rhs_shapes.count((ctx.q, ctx.order // ctx.q)) <= ctx.order
    # below the cap, n and n + (order - 1) share one cached row
    sums = scan._kept_power_sums.__wrapped__
    kept = {key[1] for key in ctx._cache if key[0] is sums}
    assert kept == {reduce_exponent(n, ctx.order) for n in range(2000)}

    # above the cap nothing is kept per exponent: the coset points are
    # kept once, and the ball points once per radius
    monkeypatch.undo()
    f47 = make_field(2, 7)
    assert f47.order > POWER_TABLE_MAX_ORDER
    ns = (23, 24, 29, 23 + f47.order - 1, 63, 64, 1000, 1023)
    radii = {f47.m}
    for n in ns:
        g = gnq_recurrence(n, 4, f47)
        assert gnq_oracle_check(n, 4, f47, g=g), n
        degree = max(reduce_exponent(n, f47.order).bit_count(), degree_bound(g, f47.m))
        if scan._ball_size(f47.m, degree) < f47.order // f47.q:
            radii.add(degree)
    assert len(radii) >= 3
    points = scan._kept_oracle_points.__wrapped__
    oracle_keys = {key for key in f47._cache if key[0] in (points, sums)}
    assert oracle_keys == {(points, r) for r in radii}


def test_oracle_rejects_a_foreign_g():
    ctx = make_field(2, 3)
    other = make_field(2, 3, modulus=BitPoly.from_string("x^6+x^4+x^3+x+1"))
    assert ctx.modulus != other.modulus
    with pytest.raises(ValueError, match="context"):
        gnq_oracle_check(23, 4, ctx, g=gnq_recurrence(23, 4, other))
    with pytest.raises(ValueError, match="context"):
        gnq_oracle_check(23, 4, ctx, g=gnq_recurrence(23, 4, make_field(2, 3)))


def test_verify_t1_k2_report(f4096):
    rep = verify_t1(2)
    assert rep.all_ok and rep.pp.is_pp and rep.e1_ok
    assert rep.gcd_case1 == "1" and rep.gcd_case2 == "x^2+1"
    obj = rep.to_json_obj()
    assert set(obj) == {"k", "pp", "e1", "gcd_case1", "gcd_case2", "all_ok"}
    assert obj["pp"]["method"] == "exhaustive"


def test_verify_t1_gates_odd_k():
    for k in (1, 3, 0):
        with pytest.raises(ValueError, match="even k"):
            verify_t1(k)


def test_probe_t1_odd_k1_and_gating():
    rep = probe_t1_odd(1)
    assert rep.note == "outside theorem hypothesis"
    assert not rep.is_pp  # k = 1: the map collapses (S_2 vanishes on GF(4))
    x1, x2 = rep.counterexample
    assert x1 != x2
    with pytest.raises(ValueError):
        probe_t1_odd(2)


def test_probe_at_k3_evaluates_the_map_on_block_tables(monkeypatch):
    sizes = []
    eval_packed = PolyExpr.eval_packed

    def spy(self, xs, ctx):
        sizes.append(np.size(xs))
        return eval_packed(self, xs, ctx)

    monkeypatch.setattr(PolyExpr, "eval_packed", spy)
    rep = probe_t1_odd(3)
    assert not rep.is_pp
    # m = 18: three 2^12-point pair tables and 4095 spot points
    assert sizes == [16383]


def test_block_path_imports_no_numpy_random():
    code = ("import sys\n"
            "from permpoly.gnq import probe_t1_odd, search_desirable\n"
            "probe_t1_odd(3)\n"
            "search_desirable(4, 7, 1, 64)\n"
            "print('numpy.random' in sys.modules)\n")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "False"


def test_theorem_pipelines_build_no_log_tables(monkeypatch):
    # the S-power map is additive maps and one product: no x^d kernel runs,
    # so the 2^24-element k = 4 scan never pays for 128 MB of log tables
    def refuse(ctx):
        raise AssertionError(f"log tables built for {ctx!r}")

    monkeypatch.setattr(scan, "log_tables", refuse)
    assert verify_t1(2).all_ok
    assert probe_t1_odd(1).note == "outside theorem hypothesis"


def test_corollary_all_steps_and_golden_polynomial():
    rep = verify_corollary()
    assert rep.all_ok and rep.pp.is_pp
    assert [name for name, _ in rep.steps] == [
        "integer-decomposition",
        "recurrence-matches-closed-form",
        "s-identity-reductions",
        "matches-theorem-map",
        "exhaustive-pp",
    ]
    golden = json.loads((GOLDEN / "corollary_g65921.json").read_text())
    assert rep.g_json == golden


def test_t2_accepts_the_theorem_instance(f4096):
    L = lin_from_expr(Pow(S(3, Var()), 2), f4096)
    conds = check_t2_conditions(L, 4, 2, f4096)
    assert conds.cond_i and conds.cond_ii and conds.pp_verified
    assert conds.to_json_obj() == {"cond_i": True, "cond_ii": True,
                                   "pp_verified": True}
    # consistency: the T2 specialization and verify_t1 see the same map
    assert conds.pp_verified == verify_t1(2).pp.is_pp
    f = conds.pp_report
    assert f is not None and f.method == "exhaustive"


def test_t2_rejects_wrong_candidates(f4096):
    zero = LinPoly(f4096, [f4096.zero()] * f4096.m)
    conds = check_t2_conditions(zero, 4, 2, f4096)
    assert not conds.cond_i and not conds.pp_verified and conds.pp_report is None
    ident = LinPoly(f4096, [f4096.one()] + [f4096.zero()] * (f4096.m - 1))
    conds = check_t2_conditions(ident, 4, 2, f4096)
    assert conds.cond_i and not conds.cond_ii and not conds.pp_verified


@pytest.mark.parametrize("k", [1, 2])
def test_t2_cond_i_matches_scalar_reference(k):
    ctx = make_field(2, 3 * k)
    rng = random.Random(60 + k)
    sub = [z for z in enumerate_elements(ctx) if in_subfield(z, k)]
    # coefficients from GF(q^k) map GF(q^k) into itself; one coefficient
    # from outside it sends images out of GF(q^k)
    cases = []
    for _ in range(12):
        coeffs = [rng.choice(sub) for _ in range(ctx.m)]
        cases.append(LinPoly(ctx, coeffs))
        coeffs[rng.randrange(ctx.m)] = ctx.random_element(rng)
        cases.append(LinPoly(ctx, coeffs))
    seen = set()
    for L in cases:
        images = [L.eval_at(z) for z in sub]
        stays = all(in_subfield(w, k) for w in images)
        expect = stays and len(set(images)) == len(sub)
        assert check_t2_conditions(L, 4, k, ctx).cond_i == expect, L
        seen.add((stays, expect))
    assert seen == {(False, False), (True, False), (True, True)}


def _cond_ii_whole_field(L, k, ctx):
    """Condition (ii) of check_t2_conditions, scanned over every element."""
    xs = np.arange(ctx.order, dtype=np.uint64)
    lv = L.eval_packed(xs, ctx)
    lhs = lv ^ scan.apply_matrix(scan.frobenius_matrix(ctx, 2 * k), lv)
    sv = scan.apply_matrix(scan.s_matrix(ctx, 2 * k), xs)
    sv_q = scan.apply_matrix(scan.frobenius_matrix(ctx, k + 1), sv)
    rhs = scan.packed_mul(ctx, sv, sv) ^ scan.packed_mul(ctx, sv_q, sv_q)
    return bool(np.array_equal(lhs, rhs))


@pytest.mark.parametrize("k", [1, 2])
def test_t2_cond_ii_on_basis_matches_whole_field(k):
    ctx = make_field(2, 3 * k)
    rng = random.Random(50 + k)
    # S_(k+1)^2 satisfies (ii); so does its sum with x -> Tr_(q^3k/q^k)(c x),
    # whose values lie in GF(q^k) and are fixed by x -> x^(q^2k)
    base = lin_from_expr(Pow(S(k + 1, Var()), 2), ctx).coeffs
    cases = []
    for _ in range(8):
        c = ctx.random_element(rng)
        coeffs = list(base)
        for j in range(3):
            coeffs[2 * k * j] = coeffs[2 * k * j] + c ** (4 ** (k * j))
        cases.append(LinPoly(ctx, coeffs))
        cases.append(LinPoly(ctx, [ctx.random_element(rng) for _ in range(ctx.m)]))
    seen = set()
    for L in cases:
        got = check_t2_conditions(L, 4, k, ctx).cond_ii
        assert got == _cond_ii_whole_field(L, k, ctx)
        seen.add(got)
    assert seen == {True, False}


def test_t2_cond_ii_fails_on_any_flipped_coefficient_bit(f4096):
    coeffs = lin_from_expr(Pow(S(3, Var()), 2), f4096).coeffs
    for i in range(f4096.m):
        for b in range(f4096.m):
            flipped = list(coeffs)
            flipped[i] = f4096.element(coeffs[i].bits ^ (1 << b))
            L = LinPoly(f4096, flipped)
            assert not check_t2_conditions(L, 4, 2, f4096).cond_ii, (i, b)
            if i == b:
                assert not _cond_ii_whole_field(L, 2, f4096)


def test_t2_context_validation(f4096, f64):
    L = LinPoly(f64, [f64.one()] + [f64.zero()] * (f64.m - 1))
    with pytest.raises(ValueError):
        check_t2_conditions(L, 4, 2, f64)  # e = 3, needs 6
    with pytest.raises(ValueError):
        check_t2_conditions(L, 4, 1, f4096)  # L from the wrong context


def test_search_never_scans_the_whole_field_above_the_cap(monkeypatch):
    # at e = 7 every verdict is one bijection over the 1182 orbit ids, and
    # neither permutes nor the oracle of a hit evaluates g on the whole field
    sizes = []
    bijection = scan.bijection_from_values

    def spy(values, order):
        sizes.append((len(values), order))
        return bijection(values, order)

    monkeypatch.setattr(scan, "bijection_from_values", spy)
    with mock.patch.object(scan, "field_values", wraps=scan.field_values) as values:
        hits = search_desirable(4, 7, 1, 64)
    assert len(hits) == 14
    assert values.call_count == 0
    assert sizes == [(1182, 1182)] * 64


def test_search_finds_the_corollary_exponent(f4096):
    hits = search_desirable(4, 6, 65900, 65940, ctx=f4096)
    ns = [t.n for t in hits]
    assert 65921 in ns
    assert ns == sorted(set(ns))
    assert all(t.e == 6 and t.q == 4 and t.verified_by == "exhaustive"
               for t in hits)


def test_search_worker_determinism(f64):
    a = search_desirable(4, 3, 1, 300, workers=1, ctx=f64)
    b = search_desirable(4, 3, 1, 300, workers=4, ctx=f64)
    assert a == b
    ns = [t.n for t in a]
    assert ns == sorted(set(ns))


def test_search_threads_capped_by_n_and_cpus(f64, monkeypatch):
    # a stub executor records the thread count and maps serially, so no
    # thread is started at any requested count
    pools = []

    class SerialExecutor:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(gnq, "ThreadPoolExecutor", SerialExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    serial = search_desirable(4, 3, 1, 300, ctx=f64)
    assert search_desirable(4, 3, 1, 300, workers=5000, ctx=f64) == serial
    assert search_desirable(4, 3, 1, 300, workers=2, ctx=f64) == serial
    assert pools == [2, 2]
    search_desirable(4, 3, 7, 7, workers=5000, ctx=f64)  # one n: no pool
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one thread
    assert search_desirable(4, 3, 1, 300, workers=5000, ctx=f64) == serial
    assert pools == [2, 2]


def test_search_fills_only_the_power_rows_it_reads():
    # permutes reads orbit rows for every n; only the oracle of a hit reads
    # whole-field rows
    ctx = make_field(2, 6)
    hits = [t.n for t in search_desirable(4, 6, 1, 50, ctx=ctx)]
    support, hit_support = set(), set()
    for n in range(1, 51):
        support.update(gnq_recurrence(n, 4, ctx).support())
    for n in hits:
        hit_support.update(gnq_recurrence(n, 4, ctx).support())
    assert set(scan._power_rows(ctx, scan._orbit_points)) == support
    assert set(scan._power_rows(ctx, scan._field_points)) == hit_support
    assert hits and len(hit_support) < len(support) < ctx.order // 10


def test_search_and_t2_pay_for_no_collision_witness(f4096, monkeypatch):
    def refuse(values, order):
        raise AssertionError("collision witness computed")

    monkeypatch.setattr(scan, "collision_witness", refuse)
    assert [t.n for t in search_desirable(4, 6, 1, 60, ctx=f4096)] == [
        t.n for t in search_desirable(4, 6, 1, 60, workers=2, ctx=f4096)]
    # x^2 + x and 0 map GF(q^k) into itself, so cond_i reaches the bijection check
    for L in (lin_from_expr(Add((Pow(Var(), 2), Var())), f4096),
              LinPoly(f4096, [f4096.zero()] * f4096.m)):
        assert not check_t2_conditions(L, 4, 2, f4096).cond_i
    assert check_t2_conditions(lin_from_expr(Pow(S(3, Var()), 2), f4096),
                               4, 2, f4096).pp_verified
    with pytest.raises(AssertionError, match="collision witness"):
        probe_t1_odd(1)


def test_search_low_n_base_cases_never_hit(f16):
    # constants g_(n,q), n <= q-1, cannot permute a field with 16 elements
    hits = search_desirable(4, 2, 1, 3, ctx=f16)
    assert hits == []


def test_search_validation(f64):
    with pytest.raises(ValueError):
        search_desirable(4, 3, 0, 10, ctx=f64)
    with pytest.raises(ValueError):
        search_desirable(4, 3, 10, 5, ctx=f64)
    with pytest.raises(ValueError):
        search_desirable(4, 2, 1, 5, ctx=f64)  # ctx has e = 3
    with pytest.raises(ValueError):
        search_desirable(3, 2, 1, 5)  # q must be a 2-power


def test_triple_serialization():
    t = DesirableTriple(65921, 6, 4, "exhaustive")
    assert t.csv_line() == "65921,6,4,exhaustive,0"
    timed = DesirableTriple(65921, 6, 4, "exhaustive", elapsed_ms=12)
    assert timed.csv_line() == "65921,6,4,exhaustive,12"
    assert t.to_json_obj() == timed.to_json_obj() == {"n": 65921, "e": 6, "q": 4,
                                                      "verified_by": "exhaustive"}
