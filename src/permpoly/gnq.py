"""The g_(n,q) family: base cases, digit recurrence, closed form, oracle,
and the theorem/corollary verification pipelines built on them.

g_(n,q) is pinned down by the defining identity

    g_(n,q)(x^q - x) = sum over a in GF(q) of (x + a)^n

(char 2, so x^q - x = x^q + x).  Base cases are derived from that
identity at runtime rather than hardcoded, and every construction path
can be re-validated against it via gnq_oracle_check, which decides it on
one of two exact point sets; scan.power_sum_identity gives the argument.

All polynomials are kept reduced mod x^(q^e) - x throughout; unreduced
degrees (n up to 4^8 here) would be astronomically large while the
reduced function is all that permutation status depends on.
"""

from __future__ import annotations

import functools
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import scan
from .field import (FieldContext, UsageError, enumerate_elements, make_field,
                    per_context)
from .gf2poly import ONE as BP_ONE
from .gf2poly import BitPoly, proof_gcd_case1, proof_gcd_case2
from .permtest import PPReport, is_pp_exhaustive
from .poly import (Add, DensePolyF2, FrobQ, LinPoly, Pow, S, Var, build_t1_g,
                   funcs_equal_pointwise, identity_e1_check, s_dense, t2_map)

# entries of one context's g_(n,q) memo; read on each gnq_recurrence call
MEMO_BOUND = 1 << 20


def _q_exponent(q: int) -> int:
    s = q.bit_length() - 1
    if q < 2 or q != 1 << s:
        raise UsageError(f"q must be a power of 2, got {q}")
    return s


# ---------------------------------------------------------------------------
# the g_(n,q) family


@functools.cache
def _base_field(s: int) -> FieldContext:
    return make_field(s, 1)


@functools.cache
def _power_sum(q: int, t: int) -> int:
    """Sum over a in GF(q) of a^t, as a bit pattern; once per (q, t) per process."""
    acc = 0
    for a in enumerate_elements(_base_field(_q_exponent(q))):
        acc ^= (a ** t).bits
    return acc


def gnq_base(n: int, q: int, ctx: FieldContext) -> DensePolyF2:
    """Base case 0 <= n <= q-1, derived from the defining identity.

    Expands sum over a in GF(q) of (x+a)^n coefficient by coefficient
    (binomial multiplicities mod 2 times power sums over GF(q)).  For
    n < q the result must be a constant in GF(2) -- anything else means
    the identity anchoring g_(n,q) is being misapplied, so we abort.
    """
    if not 0 <= n <= q - 1:
        raise ValueError(f"base case needs 0 <= n <= q-1, got n={n}, q={q}")
    if ctx.q != q:
        raise ValueError(f"context has q={ctx.q}, not {q}")
    coeffs = [_power_sum(q, n - j) if math.comb(n, j) % 2 else 0 for j in range(n + 1)]
    if any(coeffs[1:]):
        raise RuntimeError(
            f"expansion of sum (x+a)^{n} over GF({q}) is not constant; "
            f"the defining identity does not yield a base case here"
        )
    if coeffs[0] > 1:
        raise RuntimeError(f"base constant 0x{coeffs[0]:x} for n={n} lies outside GF(2)")
    return DensePolyF2(ctx, coeffs[0])


def gnq_recurrence(n: int, q: int, ctx: FieldContext) -> DensePolyF2:
    """g_(n,q) reduced mod x^(q^e) - x via the digit recurrence.

    For n >= q, with a the largest power q^a <= n and m = n - q^a:

        g_(n,q) = g_(m+1,q) + S_a * g_(m,q)

    memoized on n per context and filled from an explicit stack, so a
    large n costs memo entries, not call depth: a k stays on the stack
    until g at m and m + 1, both below k, is in the memo, and is then
    computed.  A new n costs one product S_a * g_(m,q) and one DensePolyF2
    built from the XOR of the two coefficient ints; the sum makes no
    DensePolyF2 of its own.  GF(2) coefficient closure holds by
    construction (base cases and S_a are GF(2) polynomials); the defining
    identity is checked separately by gnq_oracle_check.  The memo holds at
    most MEMO_BOUND entries, read on each call; a step that would pass it
    raises RuntimeError, a verification abort.
    """
    if n < 0:
        raise UsageError("n must be nonnegative")
    if ctx.q != q:
        raise ValueError(f"context has q={ctx.q}, not {q}")
    memo = _memo(ctx)
    stack = [n]
    while stack:
        k = stack[-1]
        if k in memo:
            stack.pop()
            continue
        # q^a <= k < q^(a+1) for q = 2^s; a = 0 marks a base case
        a = (max(k, 1).bit_length() - 1) // ctx.s
        if a:
            m = k - q ** a
            lo, hi = memo.get(m), memo.get(m + 1)
            if lo is None or hi is None:
                stack += [j for j in (m + 1, m) if j not in memo]
                continue
        if len(memo) >= MEMO_BOUND:
            raise RuntimeError(
                f"g_(n,{q}) memo reached {len(memo)} entries (bound {MEMO_BOUND}) "
                f"while expanding n={k}; raise MEMO_BOUND if that is intended"
            )
        if a:
            memo[k] = DensePolyF2(ctx, hi.bits ^ (s_dense(ctx, a) * lo).bits)
        else:
            memo[k] = gnq_base(k, q, ctx)
        stack.pop()
    return memo[n]


@per_context
def _memo(ctx: FieldContext) -> dict[int, DensePolyF2]:
    """The per-context memo of gnq_recurrence: g_(n,q) by n, q = ctx.q."""
    return {}


def gnq_closed_form(pairs, q: int, ctx: FieldContext) -> tuple[int, DensePolyF2]:
    """Closed form from q/2 exponent pairs (a_i, b_i).

    Returns (n, g) with n = 1 + sum(q^a_i + q^b_i) and

        g = sum_i S_a_i S_b_i + sum_{i<j} (S_a_i + S_b_i)(S_a_j + S_b_j).
    """
    if ctx.q != q:
        raise ValueError(f"context has q={ctx.q}, not {q}")
    if q < 4 or q % 2:
        raise ValueError("the closed form requires even q >= 4")
    pairs = [(int(a), int(b)) for a, b in pairs]
    if len(pairs) != q // 2:
        raise ValueError(f"need exactly q/2 = {q // 2} pairs, got {len(pairs)}")
    if any(a < 0 or b < 0 for a, b in pairs):
        raise ValueError("pair exponents must be nonnegative")
    n = 1 + sum(q ** a + q ** b for a, b in pairs)
    g = DensePolyF2.zero(ctx)
    for a, b in pairs:
        g = g + s_dense(ctx, a) * s_dense(ctx, b)
    for i in range(len(pairs)):
        ai, bi = pairs[i]
        left = s_dense(ctx, ai) + s_dense(ctx, bi)
        for j in range(i + 1, len(pairs)):
            aj, bj = pairs[j]
            g = g + left * (s_dense(ctx, aj) + s_dense(ctx, bj))
    return n, g


def gnq_oracle_check(n: int, q: int, ctx: FieldContext,
                     g: DensePolyF2 | None = None) -> bool:
    """Check g_(n,q)(x^q + x) = sum over a in GF(q) of (x+a)^n at every x.

    Necessary-condition oracle: it constrains g exactly on the image of
    x -> x^q + x, independently of how g was built.

    scan.power_sum_identity decides it exactly, at one representative
    per coset x + GF(q) or on a Hamming ball of the degree of both sides;
    its docstring gives the argument.
    """
    if n < 0:
        raise UsageError("n must be nonnegative")
    if ctx.q != q:
        raise ValueError(f"context has q={ctx.q}, not {q}")
    if g is None:
        g = gnq_recurrence(n, q, ctx)
    elif g.ctx is not ctx:
        raise ValueError("g comes from a different field context")
    return scan.power_sum_identity(g, ctx, n)


# ---------------------------------------------------------------------------
# verification pipelines


@dataclass(frozen=True)
class T1Report:
    """Aggregate of the theorem checks at one even k: PP status, the
    squared-trace-sum identity, and both proof-case gcd values."""

    k: int
    pp: PPReport
    e1_ok: bool
    gcd_case1: str
    gcd_case2: str
    gcd1_ok: bool

    @property
    def all_ok(self) -> bool:
        # gcd case 2 needs no flag: proof_gcd_case2 raises unless it is x^k + 1
        return self.pp.is_pp and self.e1_ok and self.gcd1_ok

    def to_json_obj(self) -> dict:
        return {
            "k": self.k,
            "pp": self.pp.to_json_obj(),
            "e1": self.e1_ok,
            "gcd_case1": self.gcd_case1,
            "gcd_case2": self.gcd_case2,
            "all_ok": self.all_ok,
        }


def verify_t1(k: int, workers: int = 1, timing: bool = False,
              modulus: BitPoly | None = None) -> T1Report:
    """Exhaustively verify that S_(k+1)^2 + S_(2k)^(q^k+1) permutes GF(4^(3k)),
    together with the identity and gcd facts its proof leans on.

    workers is unused here, as in every pipeline but search_desirable.
    """
    if k < 2 or k % 2:
        raise UsageError(
            "theorem hypothesis requires even k >= 2 (use probe_t1_odd for exploration)"
        )
    ctx = make_field(2, 3 * k, modulus=modulus)
    g = build_t1_g(k, ctx)
    pp = is_pp_exhaustive(g, ctx, timing=timing)
    e1_ok = identity_e1_check(k, ctx)
    c1 = proof_gcd_case1(k)
    return T1Report(k, pp, e1_ok, str(c1), str(proof_gcd_case2(k)), c1 == BP_ONE)


def probe_t1_odd(k: int, workers: int = 1, timing: bool = False,
                 modulus: BitPoly | None = None) -> PPReport:
    """PP status of the same map at odd k, where the theorem is silent.

    Records whatever the scan finds; asserts nothing.  workers is unused
    here, as in every pipeline but search_desirable.
    """
    if k < 1 or k % 2 == 0:
        raise UsageError("the probe is for odd k; verify_t1 covers the theorem's even case")
    ctx = make_field(2, 3 * k, modulus=modulus)
    g = build_t1_g(k, ctx)
    report = is_pp_exhaustive(g, ctx, timing=timing)
    return replace(report, note="outside theorem hypothesis")


@dataclass(frozen=True)
class CorollaryReport:
    """The five verification steps for n = 65921, q = 4, e = 6, plus the
    reduced polynomial itself (serialized) and its PP report."""

    steps: tuple
    pp: PPReport
    g_json: dict

    @property
    def all_ok(self) -> bool:
        return all(ok for _, ok in self.steps)

    def to_json_obj(self) -> dict:
        return {
            "steps": [{"name": name, "ok": ok} for name, ok in self.steps],
            "pp": self.pp.to_json_obj(),
            "g": self.g_json,
            "all_ok": self.all_ok,
        }


def verify_corollary(workers: int = 1, timing: bool = False) -> CorollaryReport:
    """Verify n = 65921 over GF(4^6) end to end.

    (1) the base-4 digit decomposition of n; (2) recurrence and closed
    form build the same function; (3) the two S-identity reduction
    steps; (4) the result is the k=2 theorem map; (5) it permutes the
    field.  workers is unused here, as in every pipeline but
    search_desirable.
    """
    q, n = 4, 65921
    ctx = make_field(2, 6)
    step1 = n == 1 + 2 * q ** 3 + q ** 4 + q ** 8

    g_rec = gnq_recurrence(n, q, ctx)
    n_cf, g_cf = gnq_closed_form([(3, 3), (4, 8)], q, ctx)
    step2 = n_cf == n and funcs_equal_pointwise(g_rec, g_cf, ctx)

    s2, s4, s6, s8 = (s_dense(ctx, t) for t in (2, 4, 6, 8))
    s4_q2 = DensePolyF2.from_exponents(ctx, (q ** (i + 2) for i in range(4)))
    step3 = (funcs_equal_pointwise(s4 * s8, s4 * (s6 + s2), ctx)
             and funcs_equal_pointwise(s4 * (s6 + s2), s4 * s4_q2, ctx))

    step4 = funcs_equal_pointwise(g_rec, build_t1_g(2, ctx), ctx)

    pp = is_pp_exhaustive(g_rec, ctx, timing=timing)
    steps = (
        ("integer-decomposition", step1),
        ("recurrence-matches-closed-form", step2),
        ("s-identity-reductions", step3),
        ("matches-theorem-map", step4),
        ("exhaustive-pp", pp.is_pp),
    )
    return CorollaryReport(steps, pp, g_rec.to_json_obj())


@dataclass(frozen=True)
class T2Conditions:
    """The generalized theorem's two hypotheses for a 2-linearized L,
    plus whether L + S_(2k)^(q^k+1) actually tested as a PP."""

    cond_i: bool
    cond_ii: bool
    pp_verified: bool
    pp_report: PPReport | None = None

    def to_json_obj(self) -> dict:
        return {
            "cond_i": self.cond_i,
            "cond_ii": self.cond_ii,
            "pp_verified": self.pp_verified,
        }


def check_t2_conditions(L: LinPoly, q: int, k: int, ctx: FieldContext,
                        workers: int = 1, timing: bool = False) -> T2Conditions:
    """Check the generalized-theorem hypotheses for L over GF(q^(3k)).

    (i) L restricted to GF(q^k) is a bijection of GF(q^k); (ii) the
    congruence L + L^(q^2k) = S_2k^2 + (S_2k^(q^(k+1)))^2 holds pointwise.
    When both hold, the theorem asserts L + S_2k^(q^k+1) is a PP; that is
    then tested exhaustively and recorded in pp_verified.  workers is
    unused here, as in every pipeline but search_desirable.
    """
    if ctx.q != q or ctx.e != 3 * k:
        raise ValueError(f"context must be GF({q}^{3 * k}), got {ctx!r}")
    if L.ctx is not ctx:
        raise ValueError("L comes from a different field context")

    sub_bits = scan.subfield_elements(ctx, k)
    images = L.eval_packed(sub_bits, ctx)
    cond_i = (np.array_equal(scan.apply_matrix(scan.frobenius_matrix(ctx, k), images), images)
              and scan.bijection_from_values(np.searchsorted(sub_bits, images),
                                             sub_bits.size))

    s2k = S(2 * k, Var())
    cond_ii = funcs_equal_pointwise(Add((L, FrobQ(L, 2 * k))),
                                    Add((Pow(s2k, 2), Pow(FrobQ(s2k, k + 1), 2))), ctx)

    pp_report = None
    pp_verified = False
    if cond_i and cond_ii:
        pp_report = is_pp_exhaustive(t2_map(L, k), ctx, timing=timing)
        pp_verified = pp_report.is_pp
    return T2Conditions(cond_i, cond_ii, pp_verified, pp_report)


# ---------------------------------------------------------------------------
# search


@dataclass(frozen=True)
class DesirableTriple:
    """A triple (n, e; q) whose g_(n,q) permutes GF(q^e), with the test
    that established it."""

    n: int
    e: int
    q: int
    verified_by: str
    elapsed_ms: int = 0

    def csv_line(self) -> str:
        return f"{self.n},{self.e},{self.q},{self.verified_by},{self.elapsed_ms}"

    def to_json_obj(self) -> dict:
        return {"n": self.n, "e": self.e, "q": self.q,
                "verified_by": self.verified_by}


def search_desirable(q: int, e: int, n_from: int, n_to: int,
                     workers: int = 1, ctx: FieldContext | None = None,
                     timing: bool = False) -> list[DesirableTriple]:
    """Scan n in [n_from, n_to] for g_(n,q) permuting GF(q^e).

    scan.permutes_each decides the n a scan.block_size block at a time
    (46 n at e = 6, 13 at e = 7, q = 4), each exactly on one point per orbit
    of x -> x^2 (352 of 4096 at e = 6, 1182 of 16384 at e = 7); from e = 8
    on, q = 4, a collision on its spot sample refutes most g_(n,q) first.
    Each hit is re-validated against the defining identity before it is
    emitted; an oracle failure would mean the recurrence built the wrong
    polynomial and aborts the search.  workers threads test the blocks,
    at most one per block and per CPU; output is ordered by n regardless
    of worker count.  Under timing, a hit's elapsed_ms counts from the
    start of the scan to its oracle confirmation; otherwise it is 0.
    """
    if n_from < 1 or n_to < n_from:
        raise ValueError("need 1 <= n_from <= n_to")
    if ctx is None:
        ctx = make_field(_q_exponent(q), e)
    if ctx.q != q or ctx.e != e:
        raise ValueError(f"context {ctx!r} does not match q={q}, e={e}")

    def test_block(start: int) -> list[DesirableTriple]:
        ns = range(start, min(start + size, n_to + 1))
        gs = [gnq_recurrence(n, q, ctx) for n in ns]
        hits = []
        for n, g, ok in zip(ns, gs, scan.permutes_each(gs, ctx)):
            if not ok:
                continue
            if not gnq_oracle_check(n, q, ctx, g=g):
                raise RuntimeError(
                    f"internal inconsistency: g_({n},{q}) passed the PP test "
                    f"but fails the defining identity"
                )
            elapsed = int((time.perf_counter() - t0) * 1000) if timing else 0
            hits.append(DesirableTriple(n, e, q, "exhaustive", elapsed))
        return hits

    t0 = time.perf_counter()
    size = scan.block_size(ctx)
    starts = range(n_from, n_to + 1, size)
    # the executor starts a thread per submit while none is idle
    workers = min(workers, len(starts), os.cpu_count() or 1)
    if workers > 1:
        # imported here: a process that never searches in threads skips it
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            found = list(pool.map(test_block, starts))
    else:
        found = [test_block(start) for start in starts]
    return [t for hits in found for t in hits]
