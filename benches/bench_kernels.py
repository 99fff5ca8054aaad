"""Kernel benchmark: writes BENCH_kernels.json at the root of this checkout.

    python3 benches/bench_kernels.py [SRC ...]

Each SRC is the src/ directory of a checkout; the default is this
checkout's.  Every pass runs one fresh process per checkout with
PYTHONPATH set to its SRC, in an order that alternates from pass to pass,
so a drift of the machine's speed shows on every side alike.  The results
are stored under the label `git describe --always --dirty` of each
checkout; entries under other labels are kept.

Recorded, single-threaded, over REPEATS passes, each figure the median
over the passes with every pass kept:
- at m = 12 and m = 24 (GF(4^6) and GF(4^12)), ns per element, best of
  KERNEL_REPS calls: packed_mul of two arrays, packed_pow to the power
  65921, apply_matrix of the Frobenius matrix, over every element at
  m = 12 and over SAMPLE seeded random elements at m = 24, and
  bijection_from_values over a whole-field permutation (x * 0x9E3779B1
  mod 2^m, a bijection because the factor is odd);
- the log_tables build in s at the same two degrees, one build a pass on
  a fresh context; the process's peak RSS (VmHWM) is mostly the m = 24
  build;
- at m = 12, 18 and 24, ns per scalar FieldElement.square and
  frobenius_q(x, 1) (two squarings, q = 4), best of KERNEL_REPS loops over
  SCALAR seeded random elements, a list comprehension each; the first
  square on a context, which may build per-context tables, is left out.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_kernels.json"

REPEATS = 5
KERNEL_REPS = 5
# random elements of the array kernels above m = 12, and of the scalar loops
SAMPLE = 1 << 20
SCALAR = 2000
# prints {"kernels": {m: {...}}, "scalar": {m: {...}}, "peak_rss_mb": ...};
# argv: KERNEL_REPS, SAMPLE, SCALAR
KERNEL_SCRIPT = """\
import json, sys, time
import numpy as np
from permpoly import scan
from permpoly.field import frobenius_q, make_field
reps, sample, scalar = map(int, sys.argv[1:4])

def best_ns(fn, count):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best / count * 1e9

rng = np.random.default_rng(2024)
out = {"kernels": {}, "scalar": {}}
for m in (12, 24):
    ctx = make_field(2, m // 2)
    t0 = time.perf_counter()
    scan.log_tables(ctx)
    build = time.perf_counter() - t0
    xs = (np.arange(ctx.order, dtype=np.uint64) if ctx.order <= sample
          else rng.integers(0, ctx.order, sample, dtype=np.uint64))
    ys = rng.integers(0, ctx.order, xs.size, dtype=np.uint64)
    frob = scan.frobenius_matrix(ctx, 1)
    perm = np.arange(ctx.order, dtype=np.uint32) * np.uint32(0x9E3779B1)
    perm &= np.uint32(ctx.order - 1)
    out["kernels"][m] = {
        "elements": int(xs.size),
        "packed_mul_ns": best_ns(lambda: scan.packed_mul(ctx, xs, ys), xs.size),
        "packed_pow_ns": best_ns(lambda: scan.packed_pow(ctx, xs, 65921), xs.size),
        "apply_matrix_ns": best_ns(lambda: scan.apply_matrix(frob, xs), xs.size),
        "bijection_ns": best_ns(lambda: scan.bijection_from_values(perm, ctx.order), ctx.order),
        "log_tables_s": build,
    }
for m in (12, 18, 24):
    ctx = make_field(2, m // 2)
    pts = [ctx.element(int(b)) for b in rng.integers(0, ctx.order, scalar)]
    pts[0].square()
    out["scalar"][m] = {
        "square_ns": best_ns(lambda: [x.square() for x in pts], scalar),
        "frobenius_q_ns": best_ns(lambda: [frobenius_q(x, 1) for x in pts], scalar),
    }
with open("/proc/self/status") as status:
    hwm = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
out["peak_rss_mb"] = int(hwm) / 1024
print(json.dumps(out))
"""


def run_kernels(src: Path) -> dict:
    proc = subprocess.run([sys.executable, "-c", KERNEL_SCRIPT, str(KERNEL_REPS), str(SAMPLE),
                           str(SCALAR)], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{src}: kernels failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def summary(passes: list[dict]) -> dict:
    def med(part, m, name):
        values = [p[part][m][name] for p in passes]
        return {"median": round(statistics.median(values), 3),
                "passes": [round(v, 3) for v in values]}

    first = passes[0]
    return {
        "conditions": {"cpus": os.cpu_count(), "python": platform.python_version(),
                       "machine": platform.machine(), "passes": REPEATS,
                       "kernel_reps": KERNEL_REPS, "scalar_elements": SCALAR},
        "kernels_ns_per_element": {
            f"m={m}": {"elements": row["elements"],
                       **{name: med("kernels", m, name) for name in row if name != "elements"}}
            for m, row in first["kernels"].items()},
        "scalar_ns_per_call": {
            f"m={m}": {name: med("scalar", m, name) for name in row}
            for m, row in first["scalar"].items()},
        "peak_rss_mb": round(max(p["peak_rss_mb"] for p in passes), 1),
    }


def main(argv: list[str]) -> None:
    srcs = [Path(a).resolve() for a in argv] or [ROOT / "src"]
    raw = {src: [] for src in srcs}
    for i in range(REPEATS):
        for src in (srcs if i % 2 == 0 else srcs[::-1]):
            raw[src].append(run_kernels(src))
    data = json.loads(OUT.read_text()) if OUT.exists() else {}
    for src in srcs:
        label = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=src,
                               capture_output=True, text=True, check=True).stdout.strip()
        data[label] = summary(raw[src])
        print(json.dumps({label: data[label]}, indent=2))
    OUT.write_text(json.dumps(data, indent=2) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
