"""The g_(n,q) family and the verification pipelines sitting on top of it."""

import json
import pathlib
import random

import numpy as np
import pytest

from permpoly import scan
from permpoly.field import make_field
from permpoly.gnq import (DesirableTriple, check_t2_conditions, gnq_base,
                          gnq_closed_form, gnq_oracle_check, gnq_recurrence,
                          probe_t1_odd, search_desirable, verify_corollary,
                          verify_t1)
from permpoly.poly import (Add, DensePolyF2, LinPoly, Pow, S, Var,
                           funcs_equal_pointwise, lin_from_expr, s_dense)
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


def _cond_ii_whole_field(L, k, ctx):
    """Condition (ii) of check_t2_conditions, scanned over every element."""
    xs = np.arange(ctx.order, dtype=np.uint64)
    lv = L.eval_packed(xs, ctx)
    lhs = lv ^ scan.apply_matrix(scan.frobenius_matrix(ctx, 2 * k), lv)
    sv = scan.apply_matrix(scan.s_matrix(ctx, 2 * k), xs)
    rhs = scan.packed_square(ctx, sv) ^ scan.packed_square(
        ctx, scan.apply_matrix(scan.frobenius_matrix(ctx, k + 1), sv))
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


def test_search_fills_only_the_power_rows_it_reads():
    ctx = make_field(2, 6)
    search_desirable(4, 6, 1, 50, ctx=ctx)
    support = set()
    for n in range(1, 51):
        support.update(gnq_recurrence(n, 4, ctx).support())
    _, filled = ctx._cache["power_table"]
    assert filled == support and len(support) < ctx.order // 10


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
    assert t.csv_line(elapsed_ms=12) == "65921,6,4,exhaustive,12"
    assert t.to_json_obj() == {"n": 65921, "e": 6, "q": 4,
                               "verified_by": "exhaustive"}
