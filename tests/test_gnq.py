"""The g_(n,q) family and the verification pipelines sitting on top of it."""

import concurrent.futures
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


def test_recurrence_memo_bound_trips(monkeypatch):
    fresh = make_field(2, 3)
    monkeypatch.setattr(gnq, "MEMO_BOUND", 4)
    with pytest.raises(RuntimeError, match="memo"):
        gnq_recurrence(65921, 4, fresh)
    assert len(gnq._memo(fresh)) <= 4


def test_recurrence_needs_no_call_stack_at_n_4_400():
    # one step per memo entry: 3595 of them, far past the recursion limit
    ctx = make_field(2, 2)
    n = 4 ** 400 - 1
    assert gnq_oracle_check(n, 4, ctx, g=gnq_recurrence(n, 4, ctx))
    assert len(gnq._memo(ctx)) == 3595


def _reachable(n: int, q: int) -> set[int]:
    """n and every n' that the digit recurrence reads below it: for n' >= q,
    with q^a <= n' < q^(a+1), the n' - q^a and n' - q^a + 1."""
    seen, todo = set(), [n]
    while todo:
        k = todo.pop()
        if k not in seen:
            seen.add(k)
            if k >= q:
                p = q
                while p * q <= k:
                    p *= q
                todo += [k - p, k - p + 1]
    return seen


def test_recurrence_memo_holds_exactly_the_reachable_n():
    for ns in ([65921], [4 ** 400 - 1], range(2001)):
        ctx = make_field(2, 2)
        for n in ns:
            gnq_recurrence(n, 4, ctx)
        assert set(gnq._memo(ctx)) == set().union(*(_reachable(n, 4) for n in ns))


@pytest.mark.parametrize("s, e", [(1, 6), (2, 6), (3, 4)], ids=["q2", "q4", "q8"])
def test_recurrence_matches_the_sum_and_product_reference(s, e):
    # the reference builds hi + S_a * lo from the operators, n ascending;
    # the recurrence fills its memo from n = 3000 down on a fresh context
    ctx = make_field(s, e)
    q = ctx.q
    gnq_recurrence(3000, q, ctx)
    ref = {}
    for n in range(3001):
        if n < q:
            ref[n] = gnq_base(n, q, ctx)
        else:
            a = (n.bit_length() - 1) // s
            m = n - q ** a
            ref[n] = ref[m + 1] + s_dense(ctx, a) * ref[m]
        assert gnq_recurrence(n, q, ctx) == ref[n], n


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


def _corruption_verdicts():
    """([(expected, oracle verdict)], fields): g_(n,q) must pass and
    g_(n,q) + 1 fail over fresh GF(4^2), GF(4^3), GF(2^3) and GF(4^7)."""
    f16, f64, f8, f47 = (make_field(2, 2), make_field(2, 3), make_field(1, 3),
                         make_field(2, 7))
    verdicts = []
    for n in (0, 1, 3, 7, 23, 65, 257, 1000):
        verdicts += [(True, gnq_oracle_check(n, 4, f16)), (True, gnq_oracle_check(n, 4, f64))]
    for n in (0, 1, 2, 5, 100):
        verdicts.append((True, gnq_oracle_check(n, 2, f8)))
    # GF(4^7) has 4096 cosets; n = 7 and 23 take a smaller Hamming ball
    for ctx, ns in ((f16, (7,)), (f47, (7, 23, 257, 1000))):
        for n in ns:
            wrong = gnq_recurrence(n, 4, ctx) + DensePolyF2.one(ctx)
            verdicts.append((False, gnq_oracle_check(n, 4, ctx, g=wrong)))
            verdicts.append((True, gnq_oracle_check(n, 4, ctx)))
    return verdicts, (f16, f64, f8, f47)


def test_oracle_accepts_recurrence_and_rejects_corruption():
    verdicts, _ = _corruption_verdicts()
    assert len(verdicts) == 31
    assert all(want is got for want, got in verdicts)


def test_oracle_in_strictly_larger_field(f4096):
    # reductions valid only mod x^(4^3) - x would be exposed over GF(4^6)
    for n in (7, 23, 65, 257, 65921):
        assert gnq_oracle_check(n, 4, f4096)


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


def _points_and_images(ctx, radius):
    """The oracle's points of that radius and their images x^q + x."""
    return scan._oracle_translates(ctx, radius)[0], scan._oracle_images(ctx, radius)[0]


def _coset_sums(ctx, reps, n):
    """The sum over a in GF(q) of (y + a)^n at each y of reps, from n itself."""
    a_bits = scan.subfield_elements(ctx, 1)[:, None]
    return np.bitwise_xor.reduce(scan.packed_pow(ctx, a_bits ^ reps, n), axis=0)


@pytest.mark.parametrize("chunk", [None, 4])
@pytest.mark.parametrize("s,e", _COSET_FIELDS)
def test_oracle_checks_every_coset(s, e, chunk, monkeypatch):
    # with chunk = 4 every row is built 4 points at a time
    if chunk is not None:
        monkeypatch.setattr(scan, "DEFAULT_CHUNK", chunk)
    ctx = make_field(s, e)
    q = ctx.q
    n = 2 * q + 3
    r = reduce_exponent(n, ctx.order)
    # wt2(r) = 3 gives a ball no smaller than the cosets
    radius, images, translates = scan._oracle_rows(ctx)[r.bit_count()]
    assert radius == ctx.m
    reps, tq = _points_and_images(ctx, radius)
    g = gnq_recurrence(n, q, ctx)
    assert gnq_oracle_check(n, q, ctx, g=g)
    assert set(images.kept) == set(g.support()) and set(translates.kept) == {r}
    packed = translates.kept[r]
    assert type(packed) is int and packed.bit_length() <= 8 * translates.dtype.itemsize * tq.size
    sums = scan._unpack([packed], tq.size, translates.dtype)[0]
    assert reps.shape == tq.shape == sums.shape == (ctx.order // q,)
    # x^q + x = y^q + y iff x + y lies in GF(q), so order/q distinct images
    # mean one representative in every coset
    assert np.unique(tq).size == ctx.order // q
    ref_tq, ref_rhs = _reference_sides(n, ctx)
    want = dict(zip(ref_tq.tolist(), ref_rhs.tolist()))
    assert sums.tolist() == [want[t] for t in tq.tolist()]
    # the two sides are packed ints, entry i at tq[i] (g is 0 over
    # GF(8^2)): one corrupted entry of the kept right side, at any image,
    # is rejected
    for i, y in enumerate(tq.tolist()):
        wrong = sums.copy()
        wrong[i] ^= 1
        translates.kept[r] = scan._pack(wrong, translates.dtype)
        assert not gnq_oracle_check(n, q, ctx, g=g), y
    translates.kept[r] = packed
    assert gnq_oracle_check(n, q, ctx, g=g)
    # g with any one coefficient flipped is decided as the whole-field
    # reference decides it, each flip reading one more row of the cosets
    for d in range(ctx.order):
        h = DensePolyF2(ctx, g.bits ^ 1 << d)
        assert gnq_oracle_check(n, q, ctx, g=h) == _oracle_reference(n, h, ctx), d
    assert set(images.kept) == set(range(ctx.order))


def test_oracle_chunked_path_rejects_each_flip(monkeypatch):
    # GF(4^7): wt2(63) = 6, and the ball of radius 6 in 14 bits is larger
    # than the 4096 cosets, so the oracle takes the cosets.  Their rows are
    # built 1000 points at a time; a flipped bit at either end of each
    # chunk, and at every 331st point, of the kept right side or of a kept
    # row of g is rejected
    monkeypatch.setattr(scan, "DEFAULT_CHUNK", 1000)
    ctx = make_field(2, 7)
    n = 63
    r = reduce_exponent(n, ctx.order)
    g = gnq_recurrence(n, ctx.q, ctx)
    assert gnq_oracle_check(n, ctx.q, ctx, g=g)
    radius, images, translates = scan._oracle_rows(ctx)[r.bit_count()]
    reps, tq = _points_and_images(ctx, radius)
    assert radius == ctx.m and reps.size == ctx.order // ctx.q
    d = g.support()[-1]
    dtype = translates.dtype
    assert np.array_equal(scan._unpack([translates.kept[r]], tq.size, dtype)[0], _coset_sums(ctx, reps, n))
    assert np.array_equal(scan._unpack([images.kept[d]], tq.size, dtype)[0], scan.packed_pow(ctx, tq, d))
    ends = {i for start, stop in scan.iter_chunks(tq.size) for i in (start, stop - 1)}
    assert len(ends) == 10
    for kept, key in ((translates.kept, r), (images.kept, d)):
        packed = kept[key]
        for i in sorted(ends | set(range(0, tq.size, 331))):
            wrong = scan._unpack([packed], tq.size, dtype)[0].copy()
            wrong[i] ^= 1 << (i % ctx.m)
            kept[key] = scan._pack(wrong, dtype)
            assert not gnq_oracle_check(n, ctx.q, ctx, g=g), i
        kept[key] = packed
    assert gnq_oracle_check(n, ctx.q, ctx, g=g)


def test_rows_hold_values_above_16_bits(kept_rows):
    # GF(2^17): values take 17 bits, so rows pack 4 bytes per point.  The
    # monomials x^3 and x^5 permute it, since 2^17 - 1 is prime, and reach
    # the orbit rows past the spot sample
    ctx = make_field(1, 17)
    for d in (3, 5):
        assert scan.permutes(DensePolyF2.from_exponents(ctx, [d]), ctx)
    rows = scan._power_rows(ctx, scan._orbit_points)
    points = scan._orbit_classes(ctx)[0]
    assert rows.dtype.itemsize == 4 and set(rows.kept) == {3, 5}
    values = scan._unpack([rows.kept[5]], points.size, rows.dtype)[0]
    assert np.array_equal(values, scan.packed_pow(ctx, points, 5)) and values.max() >= 1 << 16
    for n in (7, 100, 1000):
        g = gnq_recurrence(n, 2, ctx)
        assert gnq_oracle_check(n, 2, ctx, g=g), n
        assert not gnq_oracle_check(n, 2, ctx, g=g + DensePolyF2.one(ctx)), n
    # every kept right side equals the sums from n's reduced exponent
    sums = 0
    for (points, *args), kept in kept_rows(ctx).items():
        if points is scan._oracle_translates:
            xs = points(ctx, *args)[0]
            for r, row in kept.items():
                want = scan.packed_pow(ctx, xs, r) ^ scan.packed_pow(ctx, xs ^ np.uint64(1), r)
                assert np.array_equal(scan._unpack([row], xs.size, rows.dtype)[0], want), (args, r)
                sums += 1
    assert sums == 3


@pytest.mark.long
@pytest.mark.parametrize("e", [7, 8])
def test_ball_oracle_agrees_with_cosets(e):
    # the cosets are the independent reference, computed here: the first
    # x of each value of x^q + x, and the sums from n itself.  Every
    # n <= 300, for g and for two one-coefficient flips of g, is also
    # decided here on the ball of its degree whether or not the oracle
    # would choose that ball
    ctx = make_field(2, e)
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
    # neither point set needs g on the whole field: over GF(4^7), n = 29
    # takes the ball, n = 63 the cosets
    ctx = make_field(2, 7)
    gs = {n: gnq_recurrence(n, 4, ctx) for n in (29, 63)}

    def refuse(*args):
        raise AssertionError("whole-field evaluation")

    monkeypatch.setattr(scan, "field_values", refuse)
    for n, g in gs.items():
        assert gnq_oracle_check(n, 4, ctx)
        assert not gnq_oracle_check(n, 4, ctx, g=g + DensePolyF2.one(ctx))


def test_coset_path_is_kept_when_the_ball_is_larger(kept_rows):
    # wt2(63) = 6: 6476 points of weight <= 6 in 14 bits, 4096 cosets
    ctx = make_field(2, 7)
    assert reduce_exponent(63, ctx.order).bit_count() == 6
    assert scan._ball_size(ctx.m, 6) == 6476 > ctx.order // ctx.q
    g = gnq_recurrence(63, 4, ctx)
    assert gnq_oracle_check(63, 4, ctx, g=g)
    assert not gnq_oracle_check(63, 4, ctx, g=g + DensePolyF2.one(ctx))
    # both calls read rows of the cosets alone, which radius m names
    _, images, translates = scan._oracle_rows(ctx)[6]
    assert {key: rows for key, rows in kept_rows(ctx).items() if rows} == {
        (scan._oracle_images, ctx.m): images.kept,
        (scan._oracle_translates, ctx.m): translates.kept}
    assert set(images.kept) == set(g.support()) | {0} and set(translates.kept) == {63}
    assert scan._oracle_translates(ctx, ctx.m)[0].size == ctx.order // ctx.q


def test_coset_points_are_kept_once_per_context():
    # n = 63 and n = 1023 reach the cosets from the radii 6 and 10
    ctx = make_field(2, 7)
    radii = [reduce_exponent(n, ctx.order).bit_count() for n in (63, 1023)]
    assert radii == [6, 10]
    assert all(scan._ball_size(ctx.m, r) >= ctx.order // ctx.q for r in radii)
    points = scan._oracle_translates.__wrapped__
    for n in (63, 1023):
        assert gnq_oracle_check(n, 4, ctx)
    kept = [key for key in ctx._cache if key[0] is points]
    assert kept == [(points, ctx.m)]
    # and so are the rows read there
    _, images, translates = scan._oracle_rows(ctx)[ctx.m]
    for radius in radii:
        got = scan._oracle_rows(ctx)[radius]
        assert got[0] == ctx.m and got[1] is images and got[2] is translates


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
def test_oracle_memo_matches_unmemoized_right_side(s, e, monkeypatch, kept_rows):
    ctx = make_field(s, e)
    # the same field with a budget of 0 bytes: it keeps no row, so every
    # call builds both sides again
    bare = make_field(s, e)
    q, order = ctx.q, ctx.order
    rng = random.Random(order + q)
    _, images, translates = scan._oracle_rows(ctx)[ctx.m]
    reps, tq = _points_and_images(ctx, ctx.m)
    for n in range(3 * order + 1):
        r = reduce_exponent(n, order)
        memo = scan._unpack(scan._power_row_sum(ctx, translates, [(r,)]), tq.size, translates.dtype)[0]
        rhs = _coset_sums(ctx, reps, n)
        assert np.array_equal(memo, rhs), n
        assert translates.kept[r] == scan._pack(rhs, translates.dtype), n
        g = gnq_recurrence(n, q, ctx)
        flipped = DensePolyF2(ctx, g.bits ^ rng.getrandbits(order))
        for h in (g, flipped):
            want = _oracle_reference(n, h, ctx)
            lhs = scan._power_row_sum(ctx, images, [h.support()])[0]
            assert np.array_equal(scan._unpack([lhs], tq.size, images.dtype)[0], h.eval_on_field()[tq]), n
            assert np.array_equal(h.eval_on_field()[tq], rhs) == want, n
            assert gnq_oracle_check(n, q, ctx, g=h) == want, n
            with monkeypatch.context() as mp:
                mp.setattr(scan, "POWER_ROW_BUDGET", 0)
                assert gnq_oracle_check(n, q, bare, g=DensePolyF2(bare, h.bits)) == want, n
    assert set(translates.kept) == {reduce_exponent(n, order) for n in range(3 * order + 1)}
    assert kept_rows(bare) and not any(kept_rows(bare).values())
    assert scan._kept_row_bytes(bare)[0] == [0]


def test_oracle_memo_hit_rejects_a_corrupted_g(monkeypatch):
    ctx = make_field(2, 3)
    n = 23
    assert gnq_oracle_check(n, 4, ctx)
    # n + (order - 1) reduces to the same row, so this call is a memo hit
    n2 = n + ctx.order - 1
    assert reduce_exponent(n2, ctx.order) == reduce_exponent(n, ctx.order)
    g = gnq_recurrence(n2, 4, ctx)
    # wt2(23) = 4 takes the cosets; g's rows at their images are the left
    # side; build them first
    radius, images, _ = scan._oracle_rows(ctx)[4]
    assert radius == ctx.m
    scan._power_row_sum(ctx, images, [g.support()])

    def refuse(*args):
        raise AssertionError("a row built on a memo hit")

    monkeypatch.setattr(scan, "_build_rows", refuse)
    assert gnq_oracle_check(n2, 4, ctx, g=g)
    # a dropped term reads only kept rows, and so does a corrupted row
    for d in g.support():
        assert not gnq_oracle_check(n2, 4, ctx, g=DensePolyF2(ctx, g.bits ^ 1 << d)), d
    tq = scan._oracle_images(ctx, radius)[0]
    d = g.support()[0]
    values = scan._unpack([images.kept[d]], tq.size, images.dtype)[0].copy()
    values[5] ^= 1
    images.kept[d] = scan._pack(values, images.dtype)
    assert not gnq_oracle_check(n2, 4, ctx, g=g)


@pytest.mark.parametrize("q,e", [(2, 1), (2, 2), (2, 3), (4, 1), (4, 2), (4, 3)])
def test_oracle_builds_no_whole_field_row_on_the_desk_fields(q, e, monkeypatch, row_point_sets):
    # the fields of the desk-suite oracle sweep, n = 0..2000; g's values
    # for the reference come from eval_packed, which keeps no rows
    ctx = make_field(q.bit_length() - 1, e)
    xs = np.arange(ctx.order, dtype=np.uint64)
    rng = random.Random(q * 100 + e)

    def refuse(*args):
        raise AssertionError("whole-field evaluation")

    monkeypatch.setattr(scan, "field_values", refuse)
    rejected = 0
    for n in range(2001):
        g = gnq_recurrence(n, q, ctx)
        flipped = DensePolyF2(ctx, g.bits ^ 1 << rng.randrange(ctx.order))
        tq, rhs = _reference_sides(n, ctx)
        verdicts = [gnq_oracle_check(n, q, ctx, g=h) for h in (g, flipped)]
        assert verdicts == [bool(np.array_equal(h.eval_packed(xs, ctx)[tq], rhs))
                            for h in (g, flipped)], n
        assert verdicts[0], n
        rejected += not verdicts[1]
    # over GF(2) only a flip of the constant term changes g at 0, the one image
    assert rejected > 0
    assert row_point_sets(ctx) == {scan._oracle_images, scan._oracle_translates}


def test_oracle_and_recurrence_set_up_once_per_context(monkeypatch, kept_rows):
    ctx = make_field(2, 3)
    built = []
    from_exponents = DensePolyF2.from_exponents.__func__

    def spy(cls, ctx, exponents):
        exponents = tuple(exponents)
        built.append(exponents)
        return from_exponents(cls, ctx, exponents)

    monkeypatch.setattr(DensePolyF2, "from_exponents", classmethod(spy))
    assert gnq_oracle_check(23, 4, ctx)
    # apply_matrix runs only where the images of the oracle's points are
    # set up: the cosets, taken by n = 23, and once per ball read after them
    images = []
    apply_matrix = scan.apply_matrix

    def matrix_spy(cols, x):
        images.append(np.size(x))
        return apply_matrix(cols, x)

    monkeypatch.setattr(scan, "apply_matrix", matrix_spy)
    rhs_builds = []
    build_rows = scan._build_rows

    def build_spy(ctx, rows, keep, drop):
        if rows.points is scan._oracle_translates and rows.args == (ctx.m,):
            rhs_builds.extend([*keep, *drop])
        return build_rows(ctx, rows, keep, drop)

    monkeypatch.setattr(scan, "_build_rows", build_spy)
    for n in range(2000):
        assert gnq_oracle_check(n, 4, ctx), n
    # n < 2000 < 4^6 needs S_1 .. S_5, each built once
    assert sorted(map(len, built)) == [1, 2, 3, 4, 5]
    # wt2(r) <= 1 gives a ball smaller than the 16 cosets; g_(0,4) = 0
    # reads no row at the radius-0 ball, so only the 7 points of radius 1
    # are mapped
    assert images == [scan._ball_size(ctx.m, 1)] == [7]
    # one right side per reduced exponent, over the q translates of every
    # coset representative: at most order of them
    assert 0 < len(rhs_builds) == len(set(rhs_builds)) <= ctx.order
    # n and n + (order - 1) share one kept right side
    kept = set()
    for (points, radius), rows in kept_rows(ctx).items():
        if points is scan._oracle_translates:
            kept |= set(rows)
    assert kept == {reduce_exponent(n, ctx.order) for n in range(2000)}

    # over GF(4^7) the coset points are kept once, and the ball points
    # once per radius
    monkeypatch.undo()
    f47 = make_field(2, 7)
    ns = (23, 24, 29, 23 + f47.order - 1, 63, 64, 1000, 1023)
    radii = {f47.m}
    for n in ns:
        g = gnq_recurrence(n, 4, f47)
        assert gnq_oracle_check(n, 4, f47, g=g), n
        degree = max(reduce_exponent(n, f47.order).bit_count(), degree_bound(g, f47.m))
        if scan._ball_size(f47.m, degree) < f47.order // f47.q:
            radii.add(degree)
    assert len(radii) >= 3
    points = scan._oracle_translates.__wrapped__
    oracle_keys = {key for key in f47._cache if key[0] is points}
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


def test_search_never_scans_the_whole_field_at_e7(monkeypatch):
    # at e = 7 the 64 verdicts are bijections over the 1182 orbit ids each,
    # marked a block of 13 n at a time, and neither permutes_each nor the
    # oracle of a hit evaluates g on the whole field
    shapes = []
    bijection = scan.bijection_from_values

    def spy(values, order):
        shapes.append((values.shape, order))
        return bijection(values, order)

    monkeypatch.setattr(scan, "bijection_from_values", spy)
    with mock.patch.object(scan, "field_values", wraps=scan.field_values) as values:
        hits = search_desirable(4, 7, 1, 64)
    assert len(hits) == 14
    assert values.call_count == 0
    assert scan.block_size(make_field(2, 7)) == scan.BLOCK_IDS // 1182 == 13
    assert shapes == [((13, 1182), 1182)] * 4 + [((12, 1182), 1182)]


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


def test_search_threads_capped_by_n_and_cpus(f4096, monkeypatch):
    # a stub executor records the thread count and maps serially, so no
    # thread is started at any requested count; threads take blocks of 46 n
    # at e = 6, so n = 1..300 is 7 blocks and n = 7..7 one
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

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert scan.block_size(f4096) == 46
    serial = search_desirable(4, 6, 1, 300, ctx=f4096)
    assert search_desirable(4, 6, 1, 300, workers=5000, ctx=f4096) == serial
    assert search_desirable(4, 6, 1, 300, workers=2, ctx=f4096) == serial
    assert pools == [2, 2]
    search_desirable(4, 6, 7, 7, workers=5000, ctx=f4096)  # one block: no pool
    search_desirable(4, 6, 1, 46, workers=5000, ctx=f4096)
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one thread
    assert search_desirable(4, 6, 1, 300, workers=5000, ctx=f4096) == serial
    assert pools == [2, 2]


def test_importing_the_package_leaves_out_the_thread_pool():
    # only a search with workers > 1 imports concurrent.futures
    code = ("import sys, permpoly; "
            "print('concurrent.futures' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(gnq.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "False\n"


@pytest.mark.parametrize("workers", [1, 2])
def test_search_is_the_same_for_any_block_size(workers, monkeypatch):
    # one map per block, and all 300 n in one block
    want = search_desirable(4, 6, 1, 300)
    assert want
    for ids, size in ((1, 1), (1 << 20, (1 << 20) // 352)):
        monkeypatch.setattr(scan, "BLOCK_IDS", ids)
        ctx = make_field(2, 6)
        assert scan.block_size(ctx) == size
        assert search_desirable(4, 6, 1, 300, workers=workers, ctx=ctx) == want


def test_search_fills_only_the_power_rows_it_reads(kept_rows):
    # permutes reads orbit rows for every n; only the oracle of a hit reads
    # rows at the oracle's points, and no other point set keeps rows
    ctx = make_field(2, 6)
    hits = [t.n for t in search_desirable(4, 6, 1, 50, ctx=ctx)]
    support, hit_support = set(), set()
    for n in range(1, 51):
        support.update(gnq_recurrence(n, 4, ctx).support())
    for n in hits:
        hit_support.update(gnq_recurrence(n, 4, ctx).support())
    read = {scan._orbit_points: set(), scan._oracle_images: set(),
            scan._oracle_translates: set()}
    for (points, *_), rows in kept_rows(ctx).items():
        read[points] |= set(rows)
    assert read == {scan._orbit_points: support, scan._oracle_images: hit_support,
                    scan._oracle_translates: {reduce_exponent(n, ctx.order) for n in hits}}
    assert hits and len(hit_support) < len(support) < ctx.order // 10


def test_a_zero_row_budget_changes_no_verdict(monkeypatch, kept_rows):
    # the budget decides only what is kept: with 0 bytes every row is
    # built for its call and dropped
    searches = [search_desirable(4, e, 1, 300) for e in (6, 7)]
    verdicts, _ = _corruption_verdicts()
    monkeypatch.setattr(scan, "POWER_ROW_BUDGET", 0)
    ctxs = [make_field(2, e) for e in (6, 7)]
    assert [search_desirable(4, ctx.e, 1, 300, ctx=ctx) for ctx in ctxs] == searches
    assert all(searches)
    bare, fields = _corruption_verdicts()
    assert bare == verdicts
    for ctx in ctxs + list(fields):
        assert kept_rows(ctx) and not any(kept_rows(ctx).values()), ctx
        assert scan._kept_row_bytes(ctx)[0] == [0]


def test_kept_rows_never_exceed_a_small_budget(monkeypatch, kept_rows):
    # three orbit rows of GF(4^6), 352 points of 2 bytes each, and a
    # little more; rows are never dropped once kept, so the bytes kept at
    # the end bound those kept at any time
    budget = 3 * 2 * 352 + 100
    searches = search_desirable(4, 6, 1, 300)
    monkeypatch.setattr(scan, "POWER_ROW_BUDGET", budget)
    ctx = make_field(2, 6)
    assert search_desirable(4, 6, 1, 300, workers=2, ctx=ctx) == searches
    assert scan._power_rows(ctx, scan._orbit_points).dtype.itemsize == 2
    kept = sum(2 * points(ctx, *args)[0].size * len(rows)
               for (points, *args), rows in kept_rows(ctx).items())
    assert 0 < kept == scan._kept_row_bytes(ctx)[0][0] <= budget


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
