"""Permutation testing: report invariants, both test methods against each
other and against the gcd law, shift witnesses, the case-2 kernel."""

import math
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permpoly import permtest, scan
from permpoly.field import (UsageError, eval_S, frobenius_q, make_field,
                            trace_absolute, trace_to_subfield)
from permpoly.permtest import (CHARSUM_MAX_ORDER, PPReport, charsum_pp_test,
                               charsum_single, is_pp_exhaustive,
                               kernel_check_case2, shift_witness)
from permpoly.gnq import gnq_recurrence
from permpoly.poly import (Add, Const, DensePolyF2, FrobQ, Mul, Pow, Var,
                           build_t1_g, expr_eval)


def test_report_json_shape(f16):
    ok = PPReport(True, "charsum", repr(f16))
    obj = ok.to_json_obj()
    assert set(obj) == {"is_pp", "method", "witness", "field", "elapsed_ms"}
    assert obj["witness"] is None and obj["elapsed_ms"] == 0
    bad = PPReport(False, "exhaustive", repr(f16), witness=f16.element(3),
                   counterexample=(f16.element(1), f16.element(2)), note="probe")
    obj = bad.to_json_obj()
    assert obj["witness"] == "0x3" and obj["note"] == "probe"


def test_report_invariants_enforced(f16):
    with pytest.raises(ValueError):
        PPReport(True, "lookup", repr(f16))
    with pytest.raises(ValueError):
        PPReport(False, "exhaustive", repr(f16))  # no counterexample
    with pytest.raises(ValueError):
        PPReport(False, "charsum", repr(f16), witness=f16.element(1))


def test_exhaustive_identity_and_frobenius(f16):
    assert is_pp_exhaustive(Var(), f16).is_pp
    rep = is_pp_exhaustive(FrobQ(Var(), 1), f16)
    assert rep.is_pp and rep.method == "exhaustive" and rep.witness is None


def test_exhaustive_keeps_no_power_rows_of_a_dense_polynomial(row_point_sets):
    # the exhaustive check reads g once per context, so it evaluates g
    # directly and keeps nothing
    ctx = make_field(2, 6)
    g = gnq_recurrence(65921, 4, ctx)
    assert is_pp_exhaustive(g, ctx).is_pp
    assert row_point_sets(ctx) == set()


def test_exhaustive_evaluates_a_dense_polynomial_of_its_context_itself(monkeypatch):
    ctx = make_field(2, 6)
    g = gnq_recurrence(65921, 4, ctx)
    calls = []
    eval_on_field = DensePolyF2.eval_on_field
    monkeypatch.setattr(DensePolyF2, "eval_on_field",
                        lambda self: calls.append(self) or eval_on_field(self))
    assert is_pp_exhaustive(g, ctx).is_pp
    assert calls == [g]
    # a polynomial of another field is refused, not evaluated on its own
    with pytest.raises(ValueError, match="context mismatch"):
        is_pp_exhaustive(g, make_field(2, 5))
    assert calls == [g]


def test_exhaustive_collision_pair_is_genuine(f4):
    cube = Pow(Var(), 3)  # gcd(3, 3) = 3, not a permutation of GF(4)
    rep = is_pp_exhaustive(cube, f4)
    assert not rep.is_pp
    x1, x2 = rep.counterexample
    assert x1 != x2
    assert expr_eval(cube, x1) == expr_eval(cube, x2) == rep.witness


def test_exhaustive_order_ceiling(monkeypatch):
    # 5 bytes per element: GF(2^29) is admitted, GF(2^30) refused before
    # any value is computed
    monkeypatch.setattr(scan, "field_values", mock.Mock(side_effect=AssertionError))
    for ctx in (make_field(2, 15), make_field(2, 16)):
        message = (f"^exhaustive scan arrays of {re.escape(repr(ctx))} would hold "
                   f"{5 * ctx.order} bytes at their peak")
        with pytest.raises(UsageError, match=message):
            is_pp_exhaustive(Var(), ctx)
    with pytest.raises(AssertionError):
        is_pp_exhaustive(Var(), make_field(1, 29))


def test_charsum_single_conventions(f16):
    # trivial character counts the whole field; x itself is balanced
    assert charsum_single(Var(), f16.zero(), f16) == 16
    for abits in range(1, 16):
        assert charsum_single(Var(), f16.element(abits), f16) == 0
    with pytest.raises(ValueError):
        charsum_single(Var(), make_field(2, 1).element(1), f16)


@pytest.mark.parametrize("s, e", [(2, 3), (1, 8)], ids=["gf4_3", "gf2_8"])
def test_trace_mask_matches_scalar_definition(s, e):
    ctx = make_field(s, e)
    basis = [ctx.element(1 << j) for j in range(ctx.m)]
    for abits in range(ctx.order):
        a = ctx.element(abits)
        scalar = sum(trace_absolute(a * v) << j for j, v in enumerate(basis))
        assert permtest._trace_functional_mask(ctx, a) == scalar, abits


def test_charsum_single_detects_constant_map(f16):
    # f = 0: every term is (-1)^0, so the sum stays at the field order
    zero_map = Const(f16.zero())
    a = f16.element(5)
    assert charsum_single(zero_map, a, f16) in (16, -16)


def test_charsum_refuses_large_fields():
    big = make_field(2, 7)  # 4^7 = 16384 > CHARSUM_MAX_ORDER
    assert big.order > CHARSUM_MAX_ORDER
    with pytest.raises(ValueError, match="exceeds 4096"):
        charsum_pp_test(Var(), big)


def test_methods_agree_with_gcd_law_on_monomials(f16):
    for d in range(1, 15):
        expected = math.gcd(d, 15) == 1
        assert is_pp_exhaustive(Pow(Var(), d), f16).is_pp is expected
        assert charsum_pp_test(Pow(Var(), d), f16).is_pp is expected


def test_methods_agree_on_random_sparse_polys(f16):
    rng = random.Random(31)
    disagreements = []
    for _ in range(100):
        p = Add(tuple(Mul((Const(f16.random_element(rng)),
                           Pow(Var(), rng.randrange(1, 15))))
                      for _ in range(rng.randrange(1, 4))))
        a = is_pp_exhaustive(p, f16)
        b = charsum_pp_test(p, f16)
        if a.is_pp is not b.is_pp:
            disagreements.append(p)
        if not b.is_pp:
            (ca,) = b.counterexample
            assert charsum_single(p, ca, f16) != 0
    assert not disagreements


def _charsum_by_character(f, ctx):
    """(is_pp, witness bits) of the character criterion, one charsum_single
    per a in ascending order: the reference that charsum_pp_test's blocks
    must reproduce."""
    values = scan.field_values(f, ctx)
    for abits in range(1, ctx.order):
        if charsum_single(f, ctx.element(abits), ctx, values=values):
            return False, abits
    return True, None


@st.composite
def _charsum_maps(draw):
    """A field of degree m <= 8 and a random DensePolyF2 or power map on it."""
    s, e = draw(st.sampled_from([(s, e) for s in (1, 2, 4) for e in range(1, 9) if s * e <= 8]))
    ctx = make_field(s, e)
    if draw(st.booleans()):
        return ctx, DensePolyF2(ctx, draw(st.integers(0, (1 << ctx.order) - 1)))
    return ctx, Pow(Var(), draw(st.integers(1, 2 * ctx.order)))


@pytest.mark.parametrize("chunk", [None, 100], ids=["default-chunk", "chunk-100"])
@given(case=_charsum_maps())
@settings(max_examples=60)
def test_charsum_blocks_match_the_per_character_loop(chunk, case):
    # with 100-value chunks a block holds 100 // order characters, at least
    # one, so the characters of every field of 16 or more elements split
    ctx, f = case
    with mock.patch.object(scan, "DEFAULT_CHUNK", chunk or scan.DEFAULT_CHUNK):
        report = charsum_pp_test(f, ctx)
    is_pp, witness = _charsum_by_character(f, ctx)
    assert report.is_pp is is_pp
    assert (report.witness is None if is_pp else report.witness.bits == witness)
    assert report.counterexample == (None if is_pp else (report.witness,))


def test_shift_witness_on_theorem_map(f4096):
    g = build_t1_g(2, f4096)
    rng = random.Random(32)
    found = 0
    while found < 5:
        a = f4096.random_element(rng)
        if not trace_to_subfield(a, 2).bits:
            continue
        y = shift_witness(g, a, 2, f4096)
        assert y is not None and y.bits != 0
        assert trace_to_subfield(y, 2) == y  # witness lives in GF(4^2)
        # the witness really pairs the character sum into cancelling halves
        for xbits in (0, 1, 77, 4000):
            x = f4096.element(xbits)
            d = expr_eval(g, x + y) + expr_eval(g, x)
            assert trace_absolute(a * d) == 1
        assert charsum_single(g, a, f4096) == 0
        found += 1


def test_shift_witness_preconditions(f4096, f64):
    g = build_t1_g(2, f4096)
    with pytest.raises(ValueError, match="Case-1 hypothesis"):
        shift_witness(g, f4096.zero(), 2, f4096)
    with pytest.raises(ValueError, match="divide"):
        shift_witness(g, f4096.element(1), 4, f4096)
    with pytest.raises(ValueError):
        shift_witness(g, f64.element(1), 2, f4096)


def test_shift_witness_trace_zero_character(f4096):
    # find a nonzero a killed by the relative trace; the hypothesis gate
    # must reject it even though a itself is invertible
    a = next(f4096.element(b) for b in range(1, 4096)
             if not trace_to_subfield(f4096.element(b), 2).bits)
    with pytest.raises(ValueError, match="Case-1 hypothesis"):
        shift_witness(build_t1_g(2, f4096), a, 2, f4096)


def test_kernel_case2_holds_and_is_exact(f4096, f64, monkeypatch):
    assert kernel_check_case2(2, f4096)
    assert kernel_check_case2(1, f64)
    # recompute the kernel by scalar evaluation and pin it to GF(4^2)
    kernel = []
    for bits in range(4096):
        z = f4096.element(bits)
        if not frobenius_q(eval_S(4, z), 3).bits:
            kernel.append(bits)
    assert kernel == scan.subfield_elements(f4096, 2).tolist()
    assert len(kernel) == 16
    # z -> S_4(c z)^(q^3), c outside GF(4^2), vanishes on c^-1 GF(4^2): a
    # kernel of the right size that is not the subfield
    c = f4096.element(2)
    monkeypatch.setattr(permtest, "eval_S", lambda j, z: eval_S(j, c * z))
    assert not kernel_check_case2(2, f4096)


def test_kernel_case2_scans_no_field_points(monkeypatch):
    # the kernel is listed from a basis, so GF(4^12) is never scanned
    def refuse(*args):
        raise AssertionError("whole-field scan")

    monkeypatch.setattr(scan, "apply_matrix", refuse)
    monkeypatch.setattr(scan, "iter_chunks", refuse)
    assert kernel_check_case2(4, make_field(2, 12))


def test_kernel_case2_context_validation(f4096, f64):
    with pytest.raises(ValueError):
        kernel_check_case2(2, f64)  # needs e = 6
    with pytest.raises(ValueError):
        kernel_check_case2(0, f4096)
