"""Acceptance checklist.

One test per criterion, in order, so `pytest -v tests/test_acceptance.py`
prints a single pass/fail line for each.  Stated time budgets are asserted
with wall-clock measurements; the two k=4 items carry the `long` marker.
"""

import math
import random
import time

import numpy as np
import pytest

from permpoly import cli, scan
from permpoly.field import eval_S, frobenius_q, make_field, trace_to_subfield
from permpoly.gf2poly import (ONE, BitPoly, proof_gcd_case1, proof_gcd_case2)
from permpoly.gnq import (check_t2_conditions, gnq_oracle_check, verify_corollary,
                          verify_t1)
from permpoly.permtest import (charsum_pp_test, charsum_single,
                               is_pp_exhaustive, kernel_check_case2,
                               shift_witness)
from permpoly.poly import (Pow, S, Var, build_t1_g, identity_e1_check,
                           lin_from_expr)


def test_criterion_01_t1_at_k2_under_one_second():
    t0 = time.perf_counter()
    report = verify_t1(2)
    elapsed = time.perf_counter() - t0
    assert report.all_ok
    assert report.pp.is_pp and report.e1_ok and report.gcd1_ok
    assert report.gcd_case2 == "x^2+1"
    assert elapsed < 1.0, f"k=2 pipeline took {elapsed:.2f}s"


@pytest.mark.long
def test_criterion_02_t1_at_k4_under_ten_minutes():
    t0 = time.perf_counter()
    report = verify_t1(4)
    elapsed = time.perf_counter() - t0
    assert report.all_ok
    assert elapsed < 600.0, f"k=4 pipeline took {elapsed:.1f}s"


def test_criterion_03_corollary_five_steps_under_thirty_seconds():
    t0 = time.perf_counter()
    report = verify_corollary()
    elapsed = time.perf_counter() - t0
    assert len(report.steps) == 5
    assert report.all_ok and report.pp.is_pp
    assert elapsed < 30.0, f"corollary pipeline took {elapsed:.1f}s"


def test_criterion_04_identity_chain_with_intermediates_at_k2():
    # identity_e1_check verifies both intermediate congruences and the
    # main one; a False from any of the three fails this criterion
    assert identity_e1_check(2) is True


def test_criterion_05_proof_gcds_under_one_second():
    t0 = time.perf_counter()
    for k in (2, 4, 6, 8, 10, 12):
        assert proof_gcd_case1(k) == ONE, k
    for k in range(1, 13):
        assert proof_gcd_case2(k) == BitPoly((1 << k) | 1), k
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"gcd sweep took {elapsed:.2f}s"


def test_criterion_06_case2_kernel_is_exactly_the_subfield():
    ctx = make_field(2, 6)
    assert kernel_check_case2(2, ctx)
    # count the kernel independently of the checker
    cols = scan.linear_matrix(ctx, lambda z: frobenius_q(eval_S(4, z), 3))
    kernel = int((scan.apply_matrix(cols, np.arange(4096, dtype=np.uint64))
                  == np.uint64(0)).sum())
    assert kernel == 16


def test_criterion_07_shift_witnesses_for_ten_characters():
    ctx = make_field(2, 6)
    g = build_t1_g(2, ctx)
    rng = random.Random(2026)
    found = 0
    while found < 10:
        a = ctx.random_element(rng)
        if not trace_to_subfield(a, 2).bits:
            continue
        y = shift_witness(g, a, 2, ctx)
        assert y is not None, f"no witness for a = {a!r}"
        assert charsum_single(g, a, ctx) == 0
        found += 1


def test_criterion_08_oracle_suite_under_two_minutes():
    t0 = time.perf_counter()
    for q, s in ((2, 1), (4, 2)):
        for e in (1, 2, 3):
            ctx = make_field(s, e)
            for n in range(0, 2001):
                assert gnq_oracle_check(n, q, ctx), (n, q, e)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"oracle suite took {elapsed:.1f}s"


def test_criterion_09_methods_match_gcd_law_on_monomials_over_gf64():
    ctx = make_field(2, 3)
    for d in range(1, 63):
        expected = math.gcd(d, 63) == 1
        assert is_pp_exhaustive(Pow(Var(), d), ctx).is_pp is expected, d
        assert charsum_pp_test(Pow(Var(), d), ctx).is_pp is expected, d


def test_criterion_10_t2_specializes_to_the_theorem_map():
    ctx = make_field(2, 6)
    L = lin_from_expr(Pow(S(3, Var()), 2), ctx)
    conds = check_t2_conditions(L, 4, 2, ctx)
    assert conds.cond_i and conds.cond_ii and conds.pp_verified
    # the resulting map L + S_4^(q^2+1) is pointwise the k=2 theorem map
    xs = np.arange(ctx.order, dtype=np.uint64)
    sv = scan.apply_matrix(scan.s_matrix(ctx, 4), xs)
    composite = np.asarray(L.eval_packed(xs, ctx)) ^ scan.packed_mul(
        ctx, scan.apply_matrix(scan.frobenius_matrix(ctx, 2), sv), sv)
    gv = scan.field_values(build_t1_g(2, ctx), ctx).astype(np.uint64)
    assert np.array_equal(composite, gv)
    assert scan.bijection_from_values(composite, ctx.order)


_DETERMINISM_COMMANDS = [
    ["verify-t1", "--k", "2", "--format", "json"],
    ["verify-corollary", "--format", "json"],
    ["identities", "--k", "2", "--format", "csv"],
    ["identities", "--k", "4", "--format", "json"],
    ["gcd", "--k", "12", "--format", "csv"],
    ["t2", "--k", "2", "--L", "S(3)^2", "--format", "json"],
    ["t2", "--k", "2", "--L", "x + frob(S(2), 1)", "--format", "json"],
    ["gnq", "--n", "65921", "--q", "4", "--e", "6", "--format", "json"],
    ["oracle", "--n", "2000", "--q", "4", "--e", "3", "--format", "json"],
    ["probe-t1-odd", "--k", "1", "--format", "json"],
    ["search", "--q", "4", "--e", "3", "--from", "1", "--to", "100",
     "--format", "csv"],
]


def test_criterion_11_machine_output_is_deterministic(capsys):
    for argv in _DETERMINISM_COMMANDS:
        runs = []
        for _ in range(3):
            code = cli.main(argv)
            runs.append((code, capsys.readouterr().out))
        assert runs[0] == runs[1] == runs[2], argv


@pytest.mark.long
def test_criterion_11_determinism_includes_k4(capsys):
    argv = ["verify-t1", "--k", "4", "--format", "json"]
    code1 = cli.main(argv)
    out1 = capsys.readouterr().out
    code2 = cli.main(argv)
    out2 = capsys.readouterr().out
    assert (code1, out1) == (code2, out2)
