"""Oracle benchmark: writes BENCH_oracle.json at the root of this checkout.

    python3 benches/bench_oracle.py [SRC ...]

Each SRC is the src/ directory of a checkout; the default is this
checkout's.  The results are stored under the label
`git describe --always --dirty` of each checkout; entries under other
labels are kept.

The oracle's own timings run in one process for all checkouts, so that a
difference in the speed state of two processes cannot pass for a
difference of the code.  Each checkout's package is copied under its own
name, permpoly_0, permpoly_1, ... (its imports are relative, so the copy
runs as it is), and every item below is timed for each checkout in turn,
in an order that alternates from pass to pass, with the garbage
collector paused, as timeit does.  Recorded, single-threaded, over PASSES
passes:
- us per gnq_oracle_check over the desk sweep, n = 0..ORACLE_N on each
  field of ORACLE_FIELDS (both read from perfbench/workloads.py): once on
  a fresh context, which builds the recurrence memo and the rows, and
  once more on the same, now warm, context; the median over the passes,
  per field and for the whole sweep;
- ms per gnq_oracle_check on each hit of search_desirable(4, e, 1,
  ORACLE_N_TO) for e = 7, 8, 10, timed on the search's own context, so
  per-context tables are already built; each hit is timed as the mean of
  HIT_CALLS repeated calls, since one call lasts too short a time to time
  alone: the median over the passes of the mean per call.

Each in a fresh process with PYTHONPATH set to one SRC, over REPEATS
passes in alternating order:
- wall time and peak RSS (VmHWM) of four CLI runs: two searches, the
  oracle at GF(4^12) and the oracle at GF(4^10) for n = 1023, which takes
  the coset representatives; with the median and every wall time and the
  largest peak RSS;
- the time and peak RSS (VmHWM) of a process that only builds the log
  tables at m = 24, once per checkout, since they are most of
  `oracle --e 12` whichever points the oracle takes.
"""

from __future__ import annotations

import json
import os
import platform
import runpy
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_oracle.json"

REPEATS = 3
# passes of the in-process timings
PASSES = 20
# the oracle sweep of the desk-suite benchmark workload
DESK = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
ORACLE_E = (7, 8, 10)
ORACLE_N_TO = 300
CLI_RUNS = (
    ("search", "--q", "4", "--e", "7", "--from", "1", "--to", "3000"),
    ("search", "--q", "4", "--e", "10", "--from", "1", "--to", "1000"),
    ("oracle", "--n", "65921", "--q", "4", "--e", "12"),
    ("oracle", "--n", "1023", "--q", "4", "--e", "10"),
)
# warm oracle calls timed together per hit
HIT_CALLS = 20
# the desk sweep and the hits, for each of the checkouts in the JSON list
# argv[1], in one process: argv[2] is the JSON list of [q, e] of the desk
# fields, then n_to of the sweep, the JSON list of hit fields e, n_to of
# their searches, the calls per hit and the passes.  Prints one
# {"desk": {field: [[fresh, warm] us per pass]}, "oracle": {e: [hits,
# [ms per pass]]}} per checkout
INPROCESS_SCRIPT = """\
import gc, importlib, json, os, shutil, statistics, sys, tempfile, time
srcs, fields, n_to = json.loads(sys.argv[1]), json.loads(sys.argv[2]), int(sys.argv[3])
hit_es, hit_to, calls, passes = json.loads(sys.argv[4]), *map(int, sys.argv[5:8])
tmp = tempfile.mkdtemp()
sys.path.insert(0, tmp)
try:
    pkgs = []
    for i, src in enumerate(srcs):
        shutil.copytree(os.path.join(src, "permpoly"), os.path.join(tmp, f"permpoly_{i}"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        pkgs.append([importlib.import_module(f"permpoly_{i}.{mod}") for mod in ("gnq", "field")])
finally:
    shutil.rmtree(tmp)

def paused(fn, *args):
    # a collection would be charged to whichever checkout's timing it
    # lands in, whoever made the garbage, so none runs inside one
    gc.collect()
    gc.disable()
    try:
        return fn(*args)
    finally:
        gc.enable()

def sweep(gnq, field, q, e):
    ctx = field.make_field(q.bit_length() - 1, e)
    us = []
    for _ in ("fresh", "warm"):
        t0 = time.perf_counter()
        for n in range(n_to + 1):
            if not gnq.gnq_oracle_check(n, q, ctx):
                raise AssertionError(f"oracle rejects g_({n},{q}) over GF({q}^{e})")
        us.append((time.perf_counter() - t0) / (n_to + 1) * 1e6)
    return us

def per_hit(gnq, ctx, hits):
    ms = []
    for n, g in hits:
        t0 = time.perf_counter()
        for _ in range(calls):
            if not gnq.gnq_oracle_check(n, 4, ctx, g=g):
                raise AssertionError(f"oracle rejects the hit n = {n} at e = {ctx.e}")
        ms.append((time.perf_counter() - t0) / calls * 1000)
    return statistics.fmean(ms)

hits = []
for gnq, field in pkgs:
    per_e = {}
    for e in hit_es:
        ctx = field.make_field(2, e)
        ns = [t.n for t in gnq.search_desirable(4, e, 1, hit_to, ctx=ctx)]
        per_e[e] = ctx, [(n, gnq.gnq_recurrence(n, 4, ctx)) for n in ns]
    hits.append(per_e)
out = [{"desk": {}, "oracle": {}} for _ in srcs]
for p in range(passes):
    order = list(range(len(srcs)))[::1 if p % 2 == 0 else -1]
    for q, e in fields:
        for i in order:
            out[i]["desk"].setdefault(f"GF({q}^{e})", []).append(paused(sweep, *pkgs[i], q, e))
    for e in hit_es:
        for i in order:
            ctx, gs = hits[i][e]
            ms = paused(per_hit, pkgs[i][0], ctx, gs)
            out[i]["oracle"].setdefault(e, [len(gs), []])[1].append(ms)
print(json.dumps(out))
"""
# runs the command line in-process, then reports its exit code and VmHWM
CLI_SCRIPT = """\
import sys
from permpoly import cli
code = cli.main(sys.argv[1:])
with open("/proc/self/status") as status:
    hwm = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
sys.stderr.write(f"\\nbench: {code} {hwm}\\n")
"""
# prints the build time in s and the process's VmHWM in kB
LOG_TABLES_SCRIPT = """\
import time
from permpoly import scan
from permpoly.field import make_field
ctx = make_field(2, 12)
t0 = time.perf_counter()
scan.log_tables(ctx)
wall = time.perf_counter() - t0
with open("/proc/self/status") as status:
    hwm = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(wall, hwm)
"""


def run(src: Path, script: str, *args: str) -> tuple[float, subprocess.CompletedProcess]:
    """(wall time, finished process) of script in a fresh interpreter on src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{src}: {' '.join(args)} failed:\n{proc.stderr[-2000:]}")
    return wall, proc


def measure_in_process(srcs: list[Path], raw: dict) -> None:
    _, proc = run(srcs[0], INPROCESS_SCRIPT, json.dumps([str(src) for src in srcs]),
                  json.dumps(DESK["ORACLE_FIELDS"]), str(DESK["ORACLE_N"]),
                  json.dumps(ORACLE_E), str(ORACLE_N_TO), str(HIT_CALLS), str(PASSES))
    for src, out in zip(srcs, json.loads(proc.stdout)):
        raw[src]["desk"], raw[src]["oracle"] = out["desk"], out["oracle"]


def measure_cli(src: Path, raw: dict) -> None:
    for args in CLI_RUNS:
        wall, proc = run(src, CLI_SCRIPT, *args)
        code, hwm = proc.stderr.rstrip().splitlines()[-1].split()[1:]
        if code != "0":
            raise RuntimeError(f"{src}: {' '.join(args)} exited {code}")
        walls, rss = raw["cli"].setdefault(" ".join(args), ([], []))
        walls.append(wall)
        rss.append(int(hwm) / 1024)


def summary(src: Path, raw: dict) -> dict:
    wall, hwm = run(src, LOG_TABLES_SCRIPT)[1].stdout.split()
    desk = dict(raw["desk"])
    # the whole sweep: the mean over the fields, pass by pass
    desk["all"] = [[statistics.fmean(us[p][k] for us in raw["desk"].values()) for k in (0, 1)]
                   for p in range(PASSES)]
    return {
        "conditions": {"cpus": os.cpu_count(), "python": platform.python_version(),
                       "machine": platform.machine(), "passes": REPEATS,
                       "in_process_passes": PASSES},
        "oracle_us_per_call_desk": {
            field: {"fresh_us": round(statistics.median(u[0] for u in us), 3),
                    "warm_us": round(statistics.median(u[1] for u in us), 3),
                    "passes": [[round(v, 3) for v in u] for u in us]}
            for field, us in desk.items()},
        "oracle_ms_per_hit": {
            f"search_desirable(4, {e}, 1, {ORACLE_N_TO})": {
                "hits": hits, "ms_per_call": round(statistics.median(ms), 4),
                "ms_per_call_passes": [round(v, 4) for v in ms]}
            for e, (hits, ms) in raw["oracle"].items()},
        "cli": {cmd: {"wall_s": round(statistics.median(walls), 2),
                      "wall_s_runs": [round(w, 2) for w in walls],
                      "peak_rss_mb": round(max(rss), 1)}
                for cmd, (walls, rss) in raw["cli"].items()},
        "log_tables_m24_s": round(float(wall), 2),
        "log_tables_m24_peak_rss_mb": round(int(hwm) / 1024, 1),
    }


def main(argv: list[str]) -> None:
    srcs = [Path(a).resolve() for a in argv] or [ROOT / "src"]
    raw = {src: {"desk": {}, "oracle": {}, "cli": {}} for src in srcs}
    measure_in_process(srcs, raw)
    for i in range(REPEATS):
        for src in (srcs if i % 2 == 0 else srcs[::-1]):
            measure_cli(src, raw[src])
    data = json.loads(OUT.read_text()) if OUT.exists() else {}
    for src in srcs:
        label = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=src,
                               capture_output=True, text=True, check=True).stdout.strip()
        data[label] = summary(src, raw[src])
        print(json.dumps({label: data[label]}, indent=2))
    OUT.write_text(json.dumps(data, indent=2) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
