"""Field contexts and elements: forced small-field values, Frobenius and
trace laws, subfield membership, the per-context memo."""

import ast
import functools
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permpoly
from permpoly import gf2poly, scan
from permpoly.field import (enumerate_elements, eval_S, frobenius_q,
                            in_subfield, make_field, trace_absolute,
                            trace_to_subfield)
from permpoly.gf2poly import BitPoly, bp_find_irreducible


def test_f4_multiplication_table(f4):
    # GF(4) = GF(2)[t]/(t^2+t+1); the full table is forced
    zero, one = f4.element(0), f4.element(1)
    t, t1 = f4.element(2), f4.element(3)
    assert t * t == t1
    assert t * t1 == one
    assert t1 * t1 == t
    assert t + t1 == one and t + t == zero
    assert t ** 3 == one and t1 ** 3 == one
    assert t.inv() == t1 and t1.inv() == t


def test_element_validation(f4, f16):
    with pytest.raises(ValueError):
        f4.element(4)
    with pytest.raises(ValueError):
        f4.element(-1)
    with pytest.raises(ValueError):
        _ = f4.element(1) + f16.element(1)
    with pytest.raises(ZeroDivisionError):
        f4.zero().inv()


def test_pow_conventions(f16):
    x = f16.element(9)
    assert x ** 0 == f16.one()
    assert f16.zero() ** 0 == f16.one()
    assert x ** -1 == x.inv()
    assert x ** (f16.order - 1) == f16.one()


def test_make_field_modulus_rules():
    ctx = make_field(2, 6)
    assert ctx.modulus == bp_find_irreducible(12)
    assert ctx.q == 4 and ctx.order == 4096 and ctx.m == 12
    # explicit modulus must be irreducible with the exact degree
    with pytest.raises(ValueError):
        make_field(2, 6, modulus=BitPoly.from_string("x^12+x^2+1"))
    with pytest.raises(ValueError):
        make_field(2, 6, modulus=BitPoly.from_string("x^11+x^2+1"))
    alt = make_field(2, 6, modulus=BitPoly.from_string("x^12+x^6+x^4+x+1"))
    assert alt.modulus.bits != ctx.modulus.bits
    with pytest.raises(ValueError):
        make_field(2, 16)  # degree 32 over the ceiling
    make_field(2, 16, max_degree=32)


def test_frobenius_is_q_power_map(f64):
    rng = random.Random(5)
    for _ in range(40):
        x = f64.random_element(rng)
        assert frobenius_q(x, 1) == x ** 4
        assert frobenius_q(x, 2) == x ** 16
        assert frobenius_q(x, 3) == x  # full orbit returns
        y = f64.random_element(rng)
        assert frobenius_q(x + y, 1) == frobenius_q(x, 1) + frobenius_q(y, 1)
        assert frobenius_q(x * y, 1) == frobenius_q(x, 1) * frobenius_q(y, 1)


@functools.cache
def _wide_field(s: int, e: int):
    return make_field(s, e, max_degree=64)


@given(data=st.data())
@settings(max_examples=30)
def test_table_square_matches_the_scalar_product_at_every_degree(data):
    for m in range(1, 65):
        s = data.draw(st.sampled_from([s for s in (1, 2, 3, 4, 8) if m % s == 0]))
        ctx = _wide_field(s, m // s)
        x = ctx.element(data.draw(st.integers(0, ctx.order - 1)))
        assert x.square().bits == gf2poly._mod(gf2poly._mul(x.bits, x.bits), ctx._mod_bits)
        i = data.draw(st.integers(0, 2 * ctx.e))
        assert frobenius_q(x, i) == x ** ctx.q ** i, (ctx, x, i)


def test_fresh_contexts_build_their_own_square_tables(monkeypatch):
    # the tables are per context: a second context of the same field builds
    # its own m column images, and a warm context builds none
    first, second = make_field(2, 6), make_field(2, 6)
    columns = []
    mod = gf2poly._mod
    monkeypatch.setattr(gf2poly, "_mod", lambda a, p: columns.append(a) or mod(a, p))
    x = first.element(0x9A5)
    assert x.square() == x * x
    assert columns[:12] == [1 << 2 * i for i in range(12)]
    assert len(columns) == 12 + 1  # the product's own reduction
    columns.clear()
    first.element(3).square()
    assert columns == []
    assert second.element(0x9A5).square().bits == first.element(0x9A5).square().bits
    assert columns == [1 << 2 * i for i in range(12)]


def test_eval_s_is_partial_frobenius_sum(f4096):
    rng = random.Random(7)
    for _ in range(25):
        x = f4096.random_element(rng)
        acc = f4096.zero()
        for k in range(9):
            assert eval_S(k, x) == acc
            acc = acc + frobenius_q(x, k)
    assert eval_S(0, f4096.element(7)).bits == 0


def test_trace_to_subfield_lands_and_is_transitive(f4096):
    rng = random.Random(8)
    for _ in range(30):
        x = f4096.random_element(rng)
        for k in (1, 2, 3):
            tr = trace_to_subfield(x, k)
            assert in_subfield(tr, k)
        # transitivity through the middle field GF(4^3) down to GF(4): the
        # middle-to-bottom trace has [GF(4^3):GF(4)] = 3 terms, so it has to
        # be folded by hand (re-running the 6-term ambient trace would count
        # every term twice and vanish in characteristic 2)
        y = trace_to_subfield(x, 3)
        assert y + frobenius_q(y, 1) + frobenius_q(y, 2) == trace_to_subfield(x, 1)
        z = trace_to_subfield(x, 2)
        assert z + frobenius_q(z, 1) == trace_to_subfield(x, 1)
        # S_e is the trace to GF(q)
        assert trace_to_subfield(x, 1) == eval_S(6, x)
    with pytest.raises(ValueError):
        trace_to_subfield(f4096.element(1), 4)  # 4 does not divide 6


def test_trace_absolute_matches_power_sum(f4096):
    rng = random.Random(9)
    for _ in range(30):
        x = f4096.random_element(rng)
        acc = f4096.zero()
        y = x
        for _ in range(f4096.m):
            acc = acc + y
            y = y.square()
        assert acc.bits in (0, 1)
        assert trace_absolute(x) == acc.bits
    # absolute trace is onto GF(2) and balanced: exactly half the field maps
    # to 1 (the low 64 elements are all trace-zero here, so scan everything)
    hits = sum(trace_absolute(z) for z in enumerate_elements(f4096, 0, f4096.order))
    assert hits == f4096.order // 2


@pytest.mark.parametrize("s,e", [(1, 4), (2, 3), (2, 6), (2, 7), (3, 2)])
def test_subfield_membership_and_counts(s, e):
    ctx = make_field(s, e)
    for k in range(1, e + 2):
        if e % k:
            with pytest.raises(ValueError, match="does not divide"):
                scan.subfield_elements(ctx, k)
            continue
        # the vectorized list against the scalar Frobenius filter, in order
        elems = scan.subfield_elements(ctx, k)
        assert elems.dtype == np.uint64 and len(elems) == ctx.q ** k
        assert not elems.flags.writeable  # every caller shares the array
        assert elems.tolist() == [z.bits for z in enumerate_elements(ctx)
                                  if in_subfield(z, k)]
    # GF(q) is closed under multiplication
    base = [ctx.element(int(b)) for b in scan.subfield_elements(ctx, 1)]
    for a in base:
        for b in base:
            assert in_subfield(a * b, 1)


def test_enumerate_elements_slices(f64):
    full = list(enumerate_elements(f64))
    assert len(full) == 64
    assert [z.bits for z in full] == list(range(64))
    part = list(enumerate_elements(f64, 10, 20))
    assert [z.bits for z in part] == list(range(10, 20))


def test_context_identity_and_repr():
    a = make_field(2, 2)
    b = make_field(2, 2)
    assert repr(a) == repr(b) == "GF(4^2) mod x^4+x+1"
    x = a.element(3)
    with pytest.raises(ValueError):
        _ = x + b.element(3)  # contexts are identity-scoped
    assert x != b.element(3) and len({x, a.element(3), b.element(3)}) == 2


def test_per_context_memo_shares_one_object_per_context_and_arguments():
    a, b = make_field(2, 6), make_field(2, 6)
    elems = scan.subfield_elements(a, 2)
    assert scan.subfield_elements(a, 2) is elems
    assert scan.subfield_elements(b, 2) is not elems
    assert np.array_equal(scan.subfield_elements(b, 2), elems)
    assert scan.subfield_elements(a, 3) is not elems
    # the Frobenius power is taken mod e, so i and i + e share one matrix
    assert scan.frobenius_matrix(a, 7) is scan.frobenius_matrix(a, 1)


def test_per_context_memo_stores_nothing_when_the_build_raises():
    ctx = make_field(2, 6)
    for _ in range(2):
        with pytest.raises(ValueError, match="does not divide"):
            scan.subfield_elements(ctx, 5)
    assert scan.subfield_elements(ctx, 3).size == 4 ** 3


def test_per_context_memo_threads_get_one_object():
    ctx = make_field(2, 6)  # fresh: every thread races to build
    barrier = threading.Barrier(8)

    def build():
        barrier.wait(timeout=60)
        return scan.subfield_elements(ctx, 2)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(build) for _ in range(8)]
            built = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert all(b is built[0] for b in built)
    assert built[0].size == 4 ** 2


def test_only_field_names_the_context_cache():
    # per-context state goes through field.per_context; no other module
    # reads or writes FieldContext._cache
    offenders = []
    for path in sorted(Path(permpoly.__file__).parent.glob("*.py")):
        if path.name == "field.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if ((isinstance(node, ast.Attribute) and node.attr == "_cache")
                    or (isinstance(node, ast.Name) and node.id == "_cache")
                    or (isinstance(node, ast.Constant) and node.value == "_cache")):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders


def test_no_module_imports_threads():
    # the package runs in one thread: the row store (scan._power_row_sum)
    # inserts rows and counts their bytes without a lock
    offenders = []
    for path in sorted(Path(permpoly.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in ("threading", "concurrent") for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders


def test_only_the_row_store_reads_the_row_budget():
    # the budget decides only which rows a context keeps, so only the
    # store's one evaluator reads it; permutes and power_sum_identity take
    # their rows from it at every field order
    name = "POWER_ROW_BUDGET"
    readers = set()
    for path in sorted(Path(permpoly.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if any((isinstance(node, ast.Name) and node.id == name
                    and not isinstance(node.ctx, ast.Store))
                   or (isinstance(node, ast.Attribute) and node.attr == name)
                   or (isinstance(node, ast.alias) and node.name == name)
                   for node in ast.walk(stmt)):
                readers.add(f"{path.stem}.{getattr(stmt, 'name', stmt.lineno)}")
    assert readers == {"scan._power_row_sum"}


def test_only_scan_computes_the_oracle_sums():
    # gnq hands the oracle's identity to scan.power_sum_identity; the
    # kernels that compute its sides stay in scan
    path = Path(permpoly.__file__).parent / "gnq.py"
    names = {"packed_pow", "iter_chunks"}
    offenders = [
        f"gnq.py:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if (isinstance(node, ast.Attribute) and node.attr in names)
        or (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.alias) and node.name in names)
    ]
    assert not offenders
