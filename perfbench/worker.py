"""Rounds of one workload, in the fresh process that runs this file.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS [--trace] [--setup-only]
                                [--spans PATH]

Set-up imports permpoly from the checkout's src/ and builds the
workload's field contexts with make_field.  Then whole rounds of the
workload run until SECONDS have passed (at least one round).  Each round
gets fresh field contexts, so no cache of one round serves the next; the
contexts for the rounds after the first are built between rounds, outside
the timed region.  A round is timed from its first call into the program
to its last verdict, single-threaded (workers = 1).

The last line of standard output is one JSON object: the monotonic clock
when set-up ended (the caller subtracts its spawn time to get set-up
time), each round's verdict_s, the process's peak RSS, the operations
attempted and failed, and each round's outputs in plain JSON for the
checks.  With --trace the program's public functions are wrapped before
set-up (see tracer.py) and each round's per-layer table is added.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from workloads import (CHARSUM_D, GCD_CASE1_K, GCD_CASE2_K,  # noqa: E402
                       ORACLE_FIELDS, ORACLE_N, SEARCH_N, T2_CASES, WORKLOADS)


class Ops:
    """Counts program calls; a call that raises is recorded as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failing program call is counted, not fatal
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None


def peak_rss_mb() -> float:
    """Peak RSS of this process's own address space (VmHWM).

    Not ru_maxrss: that survives fork and exec, so it would report the
    spawning process's RSS whenever that is the larger.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("/proc/self/status has no VmHWM line")


def setup(workload: str) -> dict:
    """Import the program and build the workload's field contexts."""
    from permpoly import field

    if workload == "t1-k4":
        return {"t1": field.make_field(2, 12)}
    if workload in SEARCH_N:
        return {"search": field.make_field(2, SEARCH_N[workload][0])}
    return {"t2": field.make_field(2, 6),
            "oracle": [field.make_field(q.bit_length() - 1, e) for q, e in ORACLE_FIELDS],
            "charsum": field.make_field(2, 3)}


def run(workload: str, ctxs: dict, seed: int, ops: Ops) -> dict:
    """The timed calls.  Returns raw program results, serialized later."""
    from permpoly import gf2poly, gnq, permtest, poly

    if workload == "t1-k4":
        return {"t1": ops(gnq.verify_t1, 4, workers=1)}
    if workload in SEARCH_N:
        e, n_to = SEARCH_N[workload]
        return {"search": ops(gnq.search_desirable, 4, e, 1, n_to,
                              workers=1, ctx=ctxs["search"])}
    x = poly.Var()
    rng = random.Random(seed)
    ctx6 = ctxs["t2"]
    raw = {"t1": ops(gnq.verify_t1, 2, workers=1),
           "corollary": ops(gnq.verify_corollary, workers=1), "t2": {}}
    exprs = {"S(3)^2": poly.Pow(poly.S(3, x), 2),
             "x + frob(S(2), 1)": poly.Add((x, poly.FrobQ(poly.S(2, x), 1)))}
    for name in T2_CASES:
        expr = exprs[name]
        raw["t2"][name] = ops(lambda e: gnq.check_t2_conditions(
            poly.lin_from_expr(e, ctx6, rng), 4, 2, ctx6, workers=1), expr)
    raw["probes"] = {k: ops(gnq.probe_t1_odd, k, workers=1) for k in (1, 3)}
    raw["oracle"] = [[ctx, [ops(gnq.gnq_oracle_check, n, ctx.q, ctx)
                            for n in range(ORACLE_N + 1)]] for ctx in ctxs["oracle"]]
    raw["charsum"] = {d: ops(permtest.charsum_pp_test, poly.Pow(x, d), ctxs["charsum"],
                             workers=1) for d in CHARSUM_D}
    raw["gcd"] = {"case1": {k: ops(gf2poly.proof_gcd_case1, k) for k in GCD_CASE1_K},
                  "case2": {k: ops(gf2poly.proof_gcd_case2, k) for k in GCD_CASE2_K}}
    return raw


def _t1(report) -> dict | None:
    if report is None:
        return None
    return {"all_ok": report.all_ok, "is_pp": report.pp.is_pp, "e1": report.e1_ok,
            "gcd_case1": report.gcd_case1, "gcd_case2": report.gcd_case2}


def _str(v):
    return None if v is None else str(v)


def serialize(workload: str, ctxs: dict, raw: dict) -> dict:
    """Plain-JSON outputs plus the field (with modulus) each result used."""
    if workload == "t1-k4":
        r = raw["t1"]
        return {"fields": {"t1": r.pp.field if r else None}, "t1": _t1(r)}
    if workload in SEARCH_N:
        found = raw["search"]
        return {"fields": {"search": repr(ctxs["search"])},
                "triples": None if found is None else
                [[t.n, t.e, t.q, t.verified_by] for t in found]}
    cor, probes = raw["corollary"], raw["probes"]
    return {
        "fields": {
            "t1": raw["t1"].pp.field if raw["t1"] else None,
            "corollary": cor.pp.field if cor else None,
            "t2": repr(ctxs["t2"]),
            "probe1": probes[1].field if probes[1] else None,
            "probe3": probes[3].field if probes[3] else None,
            "oracle": [repr(c) for c in ctxs["oracle"]],
            "charsum": repr(ctxs["charsum"]),
        },
        "t1": _t1(raw["t1"]),
        "corollary": None if cor is None else {
            "steps": [[name, ok] for name, ok in cor.steps], "is_pp": cor.pp.is_pp,
            "support": [e for e, _ in cor.g_json["terms"]]},
        "t2": {name: None if c is None else [c.cond_i, c.cond_ii, c.pp_verified]
               for name, c in raw["t2"].items()},
        "probes": {str(k): None if r is None else {
            "is_pp": r.is_pp,
            "witness": None if r.witness is None else r.witness.bits,
            "pair": None if r.counterexample is None else [v.bits for v in r.counterexample]}
            for k, r in probes.items()},
        "oracle": [[repr(ctx), [n for n, ok in enumerate(oks) if ok is False]]
                   for ctx, oks in raw["oracle"]],
        "charsum": {str(d): None if r is None else r.is_pp
                    for d, r in raw["charsum"].items()},
        "gcd": {case: {str(k): _str(v) for k, v in vals.items()}
                for case, vals in raw["gcd"].items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("seed", type=int)
    ap.add_argument("seconds", type=float)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="file for the last round's spans (JSON lines)")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    ctxs = setup(args.workload)
    t_ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready}))
        return 0

    ops = Ops()
    rounds = []
    while True:
        t0 = time.perf_counter()
        raw = run(args.workload, ctxs, args.seed, ops)
        verdict_s = time.perf_counter() - t0
        rounds.append({"verdict_s": verdict_s,
                       "outputs": serialize(args.workload, ctxs, raw)})
        del raw
        last = time.monotonic() - t_ready >= args.seconds
        if tracer is not None:
            rounds[-1]["layers"] = tracer.layers()
            if last and args.spans:
                tracer.write_spans(args.spans)
            tracer.clear()
        if last:
            break
        # contexts hold reference cycles (the memo's polynomials point back
        # at their context); collect them so a round's memory is freed
        del ctxs
        gc.collect()
        ctxs = setup(args.workload)

    print(json.dumps({
        "t_ready": t_ready,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": ops.attempted, "failed": ops.failed, "errors": ops.errors[:20],
        "rounds": rounds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
