"""The reference's arithmetic and gcds against the program, exhaustively
on small fields: the reference must be right before it can judge."""

import random

import numpy as np
import pytest

import reference as R
from permpoly import field, gf2poly, gnq


def _ref(ctx) -> R.RefField:
    return R.RefField(ctx.q, ctx.e, ctx.modulus.bits)


@pytest.fixture(scope="module", params=[(2, 3), (2, 6)], ids=["GF(4^3)", "GF(4^6)"])
def fields(request):
    ctx = field.make_field(*request.param)
    return ctx, _ref(ctx)


def test_products_match_field_element(fields):
    ctx, F = fields
    xs = F.elements()
    ys = (range(ctx.order) if ctx.order <= 64
          else random.Random(1).sample(range(ctx.order), 8) + [0, 1])
    for y in ys:
        want = [(ctx.element(int(x)) * ctx.element(y)).bits for x in xs]
        assert F.vmul(xs, np.full(len(xs), y)).tolist() == want, y
        assert [F.mul(int(x), y) for x in xs] == want, y


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 17, 63, 64, 65, 257, 4095, 4096, 65921])
def test_powers_match_field_element(fields, k):
    ctx, F = fields
    xs = F.elements()
    want = [(ctx.element(int(x)) ** k).bits for x in xs]
    assert F.vpow(xs, k).tolist() == want
    assert [F.pow(int(x), k) for x in xs[:64]] == want[:64]


def test_trace_sums_match_eval_s(fields):
    ctx, F = fields
    xs = F.elements()
    for j in range(ctx.e + 1):
        want = [field.eval_S(j, ctx.element(int(x))).bits for x in xs]
        assert F.vtrace_sum(j, xs).tolist() == want, j


def test_t1_map_matches_program_scan():
    from permpoly import poly, scan

    ctx = field.make_field(2, 6)
    F = _ref(ctx)
    got = scan.field_values(poly.build_t1_g(2, ctx), ctx)
    assert np.array_equal(R.t1_values(F, 2), got)
    assert [R.t1_point(F, 2, x) for x in range(0, 4096, 97)] == got[::97].tolist()


@pytest.mark.parametrize("q, e", [(2, 3), (4, 3)])
def test_gnq_values_match_program_recurrence(q, e):
    ctx = field.make_field(q.bit_length() - 1, e)
    g = R.GnqValues(_ref(ctx))
    for n in range(0, 300):
        want = gnq.gnq_recurrence(n, q, ctx).eval_on_field()
        assert np.array_equal(g(n), want), n
        assert g.identity_holds(n), n


def test_irreducibility_matches_program_up_to_degree_10():
    for bits in range(2, 1 << 11):
        assert R.is_irreducible(bits) == gf2poly.bp_is_irreducible(gf2poly.BitPoly(bits)), bits


def test_reducible_modulus_is_refused():
    with pytest.raises(ValueError):
        R.RefField(4, 3, 0b1000001)  # x^6 + 1


def test_proof_gcds_match_program():
    for k in range(2, 13):
        assert R.poly_text(R.gcd_case1(k)) == str(gf2poly.proof_gcd_case1(k)), k
    for k in range(1, 13):
        assert R.poly_text(R.gcd_case2(k)) == str(gf2poly.proof_gcd_case2(k)), k


def test_field_strings_round_trip():
    for s, e in ((1, 1), (1, 3), (2, 6), (2, 12)):
        ctx = field.make_field(s, e)
        assert R.parse_field(repr(ctx)) == (ctx.q, ctx.e, ctx.modulus.bits)
        assert R.poly_text(ctx.modulus.bits) == str(ctx.modulus)
