"""Benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One fresh worker process (worker.py)
sets up (imports permpoly, builds the workload's field contexts) and runs
whole rounds of the workload, each on fresh contexts, until S seconds
have passed; there is always at least one round.  SETUP_PROBES more fresh
processes, half before the worker and half after it, only set up and
exit, so set-up time has several samples spread over the run.

With --trace 0 the last line of standard output reports the end-to-end
metrics of BENCHMARK.json:

  setup_s      spawn of a process to its first call into the program,
               median over the probes and the worker
  verdict_s    first call into the program to the last verdict of a
               round, mean over the run's rounds
  peak_rss_mb  peak RSS of the worker process

verdict_s is a mean, not a median, because this machine's speed switches
between states that last 10 to 30 s: the median of a run's rounds jumps
with whichever state held the majority of the run, while the mean moves
only with the share of time spent in each (see README.md, Steadiness).

With --trace 1 the worker runs traced (tracer.py) and the line reports the
per-layer metrics instead: self times are means over rounds, counts
come from the first round and must repeat exactly in every round.  The
last round's spans and every round's per-layer table are written under
perfbench/out/trace/<workload>/.

After the worker has ended, the reference (reference.py) is computed in
a process of its own and every round's outputs are checked against it
(checks.py).  The run exits 1 without a result if the program's source
is missing or a worker or the reference dies.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 8
PROCESS_TIMEOUT_S = 170
TRACE_DIR = HERE / "out" / "trace"


class BenchError(Exception):
    pass


def _python(script: str, *args: str) -> tuple[float, str]:
    """Run a benchmark script in a fresh interpreter; (spawn time, stdout)."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / script), *args], cwd=ROOT,
                              capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script} {' '.join(args)} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{script} {' '.join(args)} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return t_spawn, proc.stdout.strip().splitlines()[-1]


def _worker(workload: str, seed: int, seconds: float, *flags: str) -> dict:
    t_spawn, line = _python("worker.py", workload, str(seed), str(seconds), *flags)
    result = json.loads(line)
    result["setup_s"] = result["t_ready"] - t_spawn
    return result


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _layer_metrics(spec: dict, rounds: list[dict], problems: list[str]) -> dict:
    metrics = {}
    for m in spec["per_layer"]:
        fn, kind = m["name"].rsplit(".", 1)
        values = [r["layers"].get(fn, {}).get(kind, 0) for r in rounds]
        if kind == "s":
            value = statistics.fmean(values)
        else:
            value = values[0]
            if any(v != value for v in values):
                problems.append(f"{m['name']} differs between rounds: {values}")
        metrics[m["name"]] = _metric(value, m["unit"])
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setups = [_worker(workload, seed, 0, "--setup-only")["setup_s"]
              for _ in range(SETUP_PROBES // 2)]
    flags = []
    if trace:
        trace_dir = TRACE_DIR / workload
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        flags = ["--trace", "--spans", str(trace_dir / "spans.jsonl")]
    worker = _worker(workload, seed, seconds, *flags)
    rounds = worker["rounds"]
    setups += [_worker(workload, seed, 0, "--setup-only")["setup_s"]
               for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]

    # the reference runs apart from the worker, on the fields the program used
    _, line = _python("reference.py", "--workload", workload, "--seed", str(seed),
                      "--fields", json.dumps(rounds[0]["outputs"]["fields"]))
    ref = json.loads(line)
    problems = []
    for i, r in enumerate(rounds):
        problems += [f"round {i}: {msg}" for msg in check(workload, r["outputs"], ref, seed)]
    for msg in worker["errors"]:
        print(f"failed: {msg}", file=sys.stderr)

    if trace:
        metrics = _layer_metrics(spec, rounds, problems)
        (trace_dir / "layers.json").write_text(json.dumps({
            "workload": workload, "seed": seed,
            "verdict_s": [r["verdict_s"] for r in rounds],
            "layers": [r["layers"] for r in rounds]}, indent=1))
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "setup_s": statistics.median(setups + [worker["setup_s"]]),
            "verdict_s": statistics.fmean(r["verdict_s"] for r in rounds),
            "peak_rss_mb": worker["peak_rss_mb"],
        }
        metrics = {name: _metric(v, units[name]) for name, v in values.items()}
    for msg in problems[:20]:
        print(msg, file=sys.stderr)
    return {"correct": not problems, "attempted": worker["attempted"],
            "failed": worker["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "permpoly" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'permpoly'}", file=sys.stderr)
        return 1
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
