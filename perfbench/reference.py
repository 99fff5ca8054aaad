"""Independent reference results for the benchmark's checks.

Nothing here imports the program.  GF(2^m) arithmetic is the benchmark's
own: Python-int carry-less products for single points, and log/antilog
tables over the program's modulus for whole fields.  sympy's GF(2)[x]
routines confirm that every modulus is irreducible and give the proof
gcds.  g_(n,q) is built as value arrays, pointwise: base cases come from
the defining identity g_(n,q)(x^q + x) = sum over a in GF(q) of (x + a)^n,
larger n from the digit recurrence g_n = g_(m+1) + S_a g_m, m = n - q^a,
which holds pointwise because reduction mod x^(q^e) - x keeps functions.
Bijectivity is decided by counting distinct values.

    python3 perfbench/reference.py --workload desk-suite --seed 0

computes a workload's reference on its own, for the least irreducible
moduli (which is what the program uses today), and prints it as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from pathlib import Path

import numpy as np
from sympy import factorint
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_gcd, gf_irreducible_p

from workloads import (CHARSUM_D, GCD_CASE1_K, GCD_CASE2_K, ORACLE_FIELDS,
                       ORACLE_N, SEARCH_N, T2_CASES)

HERE = Path(__file__).resolve().parent

SPOT_POINTS = 64


# ---------------------------------------------------------------------------
# GF(2)[x] through sympy


def _coeffs(bits: int) -> list[int]:
    return [int(c) for c in bin(bits)[2:]]


def _from_coeffs(coeffs) -> int:
    bits = 0
    for c in coeffs:
        bits = (bits << 1) | (int(c) & 1)
    return bits


def is_irreducible(bits: int) -> bool:
    return bool(gf_irreducible_p(_coeffs(bits), 2, ZZ))


def gcd2(a: int, b: int) -> int:
    return _from_coeffs(gf_gcd(_coeffs(a), _coeffs(b), 2, ZZ))


def ones(d: int) -> int:
    """1 + x + ... + x^d as bits."""
    return (1 << (d + 1)) - 1


def poly_text(bits: int) -> str:
    if bits == 0:
        return "0"
    terms = []
    for i in range(bits.bit_length() - 1, -1, -1):
        if bits >> i & 1:
            terms.append("1" if i == 0 else "x" if i == 1 else f"x^{i}")
    return "+".join(terms)


def parse_poly(text: str) -> int:
    bits = 0
    for term in text.replace(" ", "").split("+"):
        if term == "1":
            bits ^= 1
        elif term == "x":
            bits ^= 2
        elif term.startswith("x^"):
            bits ^= 1 << int(term[2:])
        else:
            raise ValueError(f"bad term {term!r} in {text!r}")
    return bits


def parse_field(text: str) -> tuple[int, int, int]:
    """'GF(4^6) mod x^12+x^3+1' -> (q, e, modulus bits)."""
    head, _, mod = text.partition(" mod ")
    q, e = head.strip()[3:-1].split("^")
    return int(q), int(e), parse_poly(mod)


def least_irreducible(m: int) -> int:
    return next(b for b in range(1 << m, 1 << (m + 1)) if is_irreducible(b))


def gcd_case1(k: int) -> int:
    return gcd2(ones(k - 2), (1 << k) | 1)


def gcd_case2(k: int) -> int:
    return gcd2(ones(2 * k - 1), (1 << (3 * k)) | 1)


# ---------------------------------------------------------------------------
# GF(2^m)


def clmul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


class RefField:
    """GF(q^e) = GF(2)[t]/(modulus): scalar ops on ints, table ops on arrays."""

    def __init__(self, q: int, e: int, modulus: int):
        self.q = q
        self.m = m = (q.bit_length() - 1) * e
        if modulus.bit_length() - 1 != m or not is_irreducible(modulus):
            raise ValueError(f"{poly_text(modulus)} is not irreducible of degree {m}")
        self.modulus = modulus
        self.order = 1 << m
        self.n = self.order - 1
        self._exp = self._log = None

    # -- scalars ------------------------------------------------------------

    def reduce(self, r: int) -> int:
        m = self.m
        for i in range(r.bit_length() - 1, m - 1, -1):
            if r >> i & 1:
                r ^= self.modulus << (i - m)
        return r

    def mul(self, a: int, b: int) -> int:
        return self.reduce(clmul(a, b))

    def pow(self, a: int, k: int) -> int:
        r = 1
        while k:
            if k & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            k >>= 1
        return r

    def trace_sum(self, j: int, a: int) -> int:
        """S_j(a) = a + a^q + ... + a^(q^(j-1))."""
        acc = 0
        for _ in range(j):
            acc ^= a
            a = self.pow(a, self.q)
        return acc

    # -- tables -------------------------------------------------------------

    def _generator(self) -> int:
        primes = list(factorint(self.n)) if self.n > 1 else []
        for g in range(1, self.order):
            if all(self.pow(g, self.n // p) != 1 for p in primes):
                return g
        raise AssertionError("no generator")

    def _build_tables(self):
        """exp[i] = g^i for i < 2^m - 1 and log = its inverse."""
        m, n, g = self.m, self.n, self._generator()
        width = min(n, 1 << ((m + 1) // 2))
        head = [1]
        for _ in range(width - 1):
            head.append(self.mul(head[-1], g))
        step = self.mul(head[-1], g)
        starts = [1]
        for _ in range(-(-n // width) - 1):
            starts.append(self.mul(starts[-1], step))
        h = np.array(head, dtype=np.uint64)[None, :]
        exp = np.empty(len(starts) * width, dtype=np.uint32)
        block = max(1, (1 << 20) // width)
        for lo in range(0, len(starts), block):
            r = np.array(starts[lo:lo + block], dtype=np.uint64)[:, None]
            acc = np.zeros((len(r), width), dtype=np.uint64)
            for t in range(m):
                acc ^= ((r >> np.uint64(t)) & np.uint64(1)) * (h << np.uint64(t))
            for i in range(2 * m - 2, m - 1, -1):
                acc ^= ((acc >> np.uint64(i)) & np.uint64(1)) * np.uint64(
                    self.modulus << (i - m))
            exp[lo * width:(lo + len(r)) * width] = acc.ravel()
        exp = exp[:n]
        log = np.zeros(self.order, dtype=np.int32)
        log[exp] = np.arange(n, dtype=np.int32)
        if np.count_nonzero(log) != n - 1 or exp[0] != 1:
            raise AssertionError("antilog table is not a permutation of the units")
        self._exp, self._log = exp, log

    def vpow(self, a: np.ndarray, k: int) -> np.ndarray:
        """Elementwise a^k for k >= 0, through the log tables."""
        if self._exp is None:
            self._build_tables()
        a = np.asarray(a, dtype=np.int64)
        if k == 0:
            return np.ones(a.shape, dtype=np.int64)
        out = self._exp[(self._log[a].astype(np.int64) * (k % self.n)) % self.n].astype(np.int64)
        out[a == 0] = 0
        return out

    def vmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self._exp is None:
            self._build_tables()
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = self._exp[(self._log[a].astype(np.int64) + self._log[b]) % self.n].astype(np.int64)
        out[(a == 0) | (b == 0)] = 0
        return out

    def vtrace_sum(self, j: int, a: np.ndarray) -> np.ndarray:
        acc = np.zeros(np.shape(a), dtype=np.int64)
        for i in range(j):
            acc ^= self.vpow(a, self.q ** i)
        return acc

    def elements(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        return np.arange(lo, self.order if hi is None else hi, dtype=np.int64)


def distinct(values: np.ndarray, order: int) -> int:
    seen = np.zeros(order, dtype=bool)
    seen[values] = True
    return int(np.count_nonzero(seen))


# ---------------------------------------------------------------------------
# the maps


def t1_point(F: RefField, k: int, x: int) -> int:
    """S_(k+1)(x)^2 + S_2k(x)^(q^k + 1) at one point."""
    s2k = F.trace_sum(2 * k, x)
    return F.pow(F.trace_sum(k + 1, x), 2) ^ F.pow(s2k, F.q ** k + 1)


def t1_values(F: RefField, k: int) -> np.ndarray:
    out = np.empty(F.order, dtype=np.uint32)
    for lo in range(0, F.order, 1 << 20):
        xs = F.elements(lo, min(F.order, lo + (1 << 20)))
        s2k = F.vtrace_sum(2 * k, xs)
        out[lo:lo + len(xs)] = (F.vpow(F.vtrace_sum(k + 1, xs), 2)
                                ^ F.vpow(s2k, F.q ** k + 1))
    return out


def e1_spot(F: RefField, k: int, points) -> bool:
    """The identity chain that verify_t1 scans, at the given points."""
    def fr(v, i):
        return F.pow(v, F.q ** i)

    def sq(v):
        return F.mul(v, v)

    for x in points:
        g = t1_point(F, k, x)
        s2k = F.trace_sum(2 * k, x)
        sk1 = F.trace_sum(k + 1, x)
        if g ^ fr(g, 2 * k) != sq(fr(s2k, k + 1)):
            return False
        if fr(s2k, k) ^ fr(s2k, 2 * k) != s2k:
            return False
        if sq(sk1) ^ sq(fr(sk1, 2 * k)) != (
                sq(x) ^ sq(fr(x, k)) ^ sq(s2k) ^ sq(fr(s2k, k))):
            return False
    return True


def subfield(F: RefField, k: int) -> np.ndarray:
    xs = F.elements()
    return xs[F.vpow(xs, F.q ** k) == xs]


class GnqValues:
    """g_(n,q) as value arrays over a RefField, memoized on n."""

    def __init__(self, F: RefField):
        self.F = F
        self.xs = F.elements()
        self.gfq = subfield(F, 1)
        if len(self.gfq) != F.q:
            raise AssertionError("GF(q) inside the field has the wrong size")
        self.memo: dict[int, np.ndarray] = {}
        self.s = {}

    def identity_rhs(self, n: int, xs: np.ndarray) -> np.ndarray:
        acc = np.zeros(len(xs), dtype=np.int64)
        for a in self.gfq:
            acc ^= self.F.vpow(xs ^ a, n)
        return acc

    def trace_sum(self, a: int) -> np.ndarray:
        if a not in self.s:
            self.s[a] = self.F.vtrace_sum(a, self.xs)
        return self.s[a]

    def __call__(self, n: int) -> np.ndarray:
        got = self.memo.get(n)
        if got is not None:
            return got
        q = self.F.q
        if n < q:
            rhs = self.identity_rhs(n, self.xs)
            if (rhs != rhs[0]).any():
                raise AssertionError(f"sum of (x+a)^{n} over GF({q}) is not constant")
            got = np.full(self.F.order, rhs[0], dtype=np.int64)
        else:
            a = 1
            while q ** (a + 1) <= n:
                a += 1
            m = n - q ** a
            got = self(m + 1) ^ self.F.vmul(self.trace_sum(a), self(m))
        self.memo[n] = got
        return got

    def identity_holds(self, n: int) -> bool:
        F = self.F
        artin = F.vpow(self.xs, F.q) ^ self.xs
        return bool(np.array_equal(self(n)[artin], self.identity_rhs(n, self.xs)))


# ---------------------------------------------------------------------------
# whole-field results


def ref_field(text: str) -> RefField:
    """The RefField for a field string such as 'GF(4^6) mod x^12+x^3+1'."""
    return RefField(*parse_field(text))


def t1_whole(field: str, k: int) -> dict:
    F = ref_field(field)
    return {"distinct": distinct(t1_values(F, k), F.order), "order": F.order}


def search_whole(field: str, n_to: int) -> dict:
    F = ref_field(field)
    g = GnqValues(F)
    hits = [n for n in range(1, n_to + 1) if distinct(g(n), F.order) == F.order]
    if not all(g.identity_holds(n) for n in hits):
        raise AssertionError("a reference hit fails the defining identity")
    return {"hits": hits}


def oracle_whole(fields: list[str]) -> dict:
    bad = []
    for text in fields:
        g = GnqValues(ref_field(text))
        bad += [[text, n] for n in range(ORACLE_N + 1) if not g.identity_holds(n)]
    return {"identity_fails": bad}


def corollary_whole(field: str) -> dict:
    F = ref_field(field)
    g = GnqValues(F)(65921)
    return {"equals_t1_map": bool(np.array_equal(g, t1_values(F, 2))),
            "distinct": distinct(g, F.order), "order": F.order}


def t2_whole(field: str, k: int, lin_terms) -> dict:
    """Both T2 conditions and the PP test for L = sum of x^(2^t), t in lin_terms."""
    F = ref_field(field)
    xs = F.elements()

    def L(v):
        return np.bitwise_xor.reduce([F.vpow(v, 1 << t) for t in lin_terms], axis=0)

    sub = subfield(F, k)
    img = L(sub)
    cond_i = bool(np.isin(img, sub).all()) and len(np.unique(img)) == len(sub)
    lv = L(xs)
    s2k = F.vtrace_sum(2 * k, xs)
    lhs = lv ^ F.vpow(lv, F.q ** (2 * k))
    rhs = F.vpow(s2k, 2) ^ F.vpow(F.vpow(s2k, F.q ** (k + 1)), 2)
    f = lv ^ F.vpow(s2k, F.q ** k + 1)
    return {"cond_i": cond_i, "cond_ii": bool(np.array_equal(lhs, rhs)),
            "is_pp": distinct(f, F.order) == F.order}


def t2_differing_point(field: str, k: int, lin_terms, rng) -> int | None:
    """A seeded point where condition (ii) fails, in scalar arithmetic."""
    F = ref_field(field)
    for _ in range(4 * F.order):
        x = rng.randrange(F.order)
        lv = 0
        for t in lin_terms:
            lv ^= F.pow(x, 1 << t)
        s2k = F.trace_sum(2 * k, x)
        lhs = lv ^ F.pow(lv, F.q ** (2 * k))
        rhs = F.pow(s2k, 2) ^ F.pow(F.pow(s2k, F.q ** (k + 1)), 2)
        if lhs != rhs:
            return x
    return None


# ---------------------------------------------------------------------------
# per-workload expectations


def default_fields(workload: str) -> dict:
    """Field strings for the least irreducible moduli (what the program picks)."""
    def f(q, e):
        return f"GF({q}^{e}) mod {poly_text(least_irreducible((q.bit_length() - 1) * e))}"
    if workload == "t1-k4":
        return {"t1": f(4, 12)}
    if workload in SEARCH_N:
        return {"search": f(4, SEARCH_N[workload][0])}
    return {"t1": f(4, 6), "corollary": f(4, 6), "t2": f(4, 6),
            "probe1": f(4, 3), "probe3": f(4, 9),
            "oracle": [f(q, e) for q, e in ORACLE_FIELDS], "charsum": f(4, 3)}


def _t1_expected(field: str, k: int, rng) -> dict:
    F = ref_field(field)
    whole = t1_whole(field, k)
    points = [rng.randrange(F.order) for _ in range(SPOT_POINTS)]
    return {"is_pp": whole["distinct"] == whole["order"],
            "e1_spot": e1_spot(F, k, points),
            "gcd_case1": poly_text(gcd_case1(k)),
            "gcd_case2": poly_text(gcd_case2(k))}


def expected(workload: str, fields: dict, seed: int) -> dict:
    """Everything the checks compare the program's outputs with.

    A field is None where the program call that reports it raised; that
    call counts as failed and its part of the reference is None too.
    """
    rng = random.Random(seed)

    def t1(key, k):
        return None if fields[key] is None else _t1_expected(fields[key], k, rng)

    if workload == "t1-k4":
        return {"t1": t1("t1", 4)}
    if workload in SEARCH_N:
        return search_whole(fields["search"], SEARCH_N[workload][1])
    if workload != "desk-suite":
        raise ValueError(f"unknown workload {workload!r}")
    t2 = {}
    for name, lin in T2_CASES.items():
        t2[name] = t2_whole(fields["t2"], 2, lin)
        if not t2[name]["cond_ii"]:
            t2[name]["point"] = t2_differing_point(fields["t2"], 2, lin, rng)
    probes = {}
    for k in (1, 3):
        field = fields[f"probe{k}"]
        whole = None if field is None else t1_whole(field, k)
        probes[str(k)] = whole and {"is_pp": whole["distinct"] == whole["order"]}
    return {
        "t1": t1("t1", 2),
        "corollary": fields["corollary"] and corollary_whole(fields["corollary"]),
        "t2": t2,
        "probes": probes,
        "oracle": oracle_whole(fields["oracle"]),
        "charsum": {str(d): math.gcd(d, 63) == 1 for d in CHARSUM_D},
        "gcd": {"case1": {str(k): poly_text(gcd_case1(k)) for k in GCD_CASE1_K},
                "case2": {str(k): poly_text(gcd_case2(k)) for k in GCD_CASE2_K}},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--fields", help="JSON map of field strings (default: least irreducible)")
    args = ap.parse_args(argv)
    fields = json.loads(args.fields) if args.fields else default_fields(args.workload)
    print(json.dumps(expected(args.workload, fields, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
