"""Oracle benchmark: writes BENCH_oracle.json at the root of this checkout.

    python3 benches/bench_oracle.py [SRC ...]

Each SRC is the src/ directory of a checkout; the default is this
checkout's.  Every measurement runs in a fresh process with PYTHONPATH set
to one SRC.  Given several, each pass measures them all, in an order that
alternates from pass to pass, so a drift of the machine's speed shows on
every side alike.  The results are stored under the label
`git describe --always --dirty` of each checkout; entries under other
labels are kept.

Recorded, single-threaded, over REPEATS passes:
- us per gnq_oracle_check over the desk sweep, n = 0..ORACLE_N on each
  field of ORACLE_FIELDS (both read from perfbench/workloads.py), all
  below the power-table cap: once on a fresh context, which builds the
  recurrence memo, the rows and the sums, and once more on the same, now
  warm, context; the median over the passes;
- ms per gnq_oracle_check on each hit of search_desirable(4, e, 1, 300)
  for e = 7, 8, 10, timed after the search on the search's own context,
  so per-context tables are already built; each hit is timed as the mean
  of HIT_CALLS repeated calls, since one call lasts too short a time to
  time alone: the median over the passes of the mean per call;
- wall time and peak RSS (VmHWM) of four CLI runs: two searches, the
  oracle at GF(4^12) and the oracle at GF(4^10) for n = 1023, which takes
  the coset representatives above the power-table cap; with the median
  and every wall time and the largest peak RSS;
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
# the mean ms per oracle call on the hits, for each e in argv[2:-1], with
# argv[1] calls per hit
ORACLE_SCRIPT = """\
import json, statistics, sys, time
from permpoly import gnq
from permpoly.field import make_field
calls = int(sys.argv[1])
out = {}
for e in map(int, sys.argv[2:-1]):
    ctx = make_field(2, e)
    hits = [t.n for t in gnq.search_desirable(4, e, 1, int(sys.argv[-1]), ctx=ctx)]
    ms = []
    for n in hits:
        g = gnq.gnq_recurrence(n, 4, ctx)
        t0 = time.perf_counter()
        for _ in range(calls):
            if not gnq.gnq_oracle_check(n, 4, ctx, g=g):
                raise AssertionError(f"oracle rejects the hit n = {n} at e = {e}")
        ms.append((time.perf_counter() - t0) / calls * 1000)
    out[e] = [len(hits), statistics.fmean(ms)]
print(json.dumps(out))
"""
# us per oracle call over n = 0..argv[1] on each (q, e) of the JSON argv[2],
# on a fresh context and then on the same, warm, one
DESK_SCRIPT = """\
import json, sys, time
from permpoly import gnq
from permpoly.field import make_field
n_to = int(sys.argv[1])
out = {}
for q, e in json.loads(sys.argv[2]):
    ctx = make_field(q.bit_length() - 1, e)
    us = []
    for _ in ("fresh", "warm"):
        t0 = time.perf_counter()
        for n in range(n_to + 1):
            if not gnq.gnq_oracle_check(n, q, ctx):
                raise AssertionError(f"oracle rejects g_({n},{q}) over GF({q}^{e})")
        us.append((time.perf_counter() - t0) / (n_to + 1) * 1e6)
    out[f"GF({q}^{e})"] = us
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


def measure_pass(src: Path, raw: dict) -> None:
    _, proc = run(src, DESK_SCRIPT, str(DESK["ORACLE_N"]),
                  json.dumps(DESK["ORACLE_FIELDS"]))
    for field, us in json.loads(proc.stdout).items():
        raw["desk"].setdefault(field, []).append(us)
    _, proc = run(src, ORACLE_SCRIPT, str(HIT_CALLS), *map(str, ORACLE_E), str(ORACLE_N_TO))
    for e, (hits, ms) in json.loads(proc.stdout).items():
        raw["oracle"].setdefault(e, (hits, []))[1].append(ms)
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
    return {
        "conditions": {"cpus": os.cpu_count(), "python": platform.python_version(),
                       "machine": platform.machine(), "passes": REPEATS},
        "oracle_us_per_call_desk": {
            field: {"fresh_us": round(statistics.median(u[0] for u in us), 2),
                    "warm_us": round(statistics.median(u[1] for u in us), 2),
                    "passes": [[round(v, 2) for v in u] for u in us]}
            for field, us in raw["desk"].items()},
        "oracle_ms_per_hit": {
            f"search_desirable(4, {e}, 1, {ORACLE_N_TO})": {
                "hits": hits, "ms_per_call": round(statistics.median(ms), 3),
                "ms_per_call_passes": [round(v, 3) for v in ms]}
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
    for i in range(REPEATS):
        for src in (srcs if i % 2 == 0 else srcs[::-1]):
            measure_pass(src, raw[src])
    data = json.loads(OUT.read_text()) if OUT.exists() else {}
    for src in srcs:
        label = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=src,
                               capture_output=True, text=True, check=True).stdout.strip()
        data[label] = summary(src, raw[src])
        print(json.dumps({label: data[label]}, indent=2))
    OUT.write_text(json.dumps(data, indent=2) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
