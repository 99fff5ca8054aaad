"""Search benchmark: writes BENCH_search.json at the root of this checkout.

    python3 benches/bench_search.py [SRC ...]

Each SRC is the src/ directory of a checkout; the default is this
checkout's.  Every measurement runs in a fresh process with PYTHONPATH set
to one SRC.  Given several, each pass measures them all, in an order that
alternates from pass to pass, so a drift of the machine's speed shows on
every side alike.  The results are stored under the label
`git describe --always --dirty` of each checkout; entries under other
labels are kept.

Recorded, single-threaded, over REPEATS passes:
- ms per n of search_desirable(4, e, 1, SEARCH_N_TO) for e = 6..10, each
  on a fresh field context, so the per-context tables are built inside
  the timed call: the median over the passes, and every pass;
- wall time and peak RSS (the child's ru_maxrss, its VmHWM) of five
  `python3 -m permpoly search` runs, the last of them the e = 10 target
  of ROADMAP item 3, with the median and every wall time,
  the largest peak RSS and the sha256 of the csv they print, which is
  the same in every pass.  A checkout without permpoly/__main__.py runs
  cli.main through -c instead.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_search.json"

REPEATS = 5
SEARCH_E = (6, 7, 8, 9, 10)
SEARCH_N_TO = 1000
CLI_RUNS = (
    ("search", "--q", "4", "--e", "7", "--from", "1", "--to", "3000", "--format", "csv"),
    ("search", "--q", "4", "--e", "8", "--from", "1", "--to", "1000", "--format", "csv"),
    ("search", "--q", "4", "--e", "9", "--from", "1", "--to", "3000", "--format", "csv"),
    ("search", "--q", "4", "--e", "10", "--from", "1", "--to", "1000", "--format", "csv"),
    ("search", "--q", "4", "--e", "10", "--from", "1", "--to", "10000", "--format", "csv"),
)
# [hits, ms per n] of one search on a fresh context, for each e in argv
SEARCH_SCRIPT = """\
import json, sys, time
from permpoly import gnq
from permpoly.field import make_field
n_to = int(sys.argv[-1])
out = {}
for e in map(int, sys.argv[1:-1]):
    ctx = make_field(2, e)
    t0 = time.perf_counter()
    hits = gnq.search_desirable(4, e, 1, n_to, ctx=ctx)
    out[e] = [len(hits), (time.perf_counter() - t0) * 1000 / n_to]
print(json.dumps(out))
"""
# the command line of a checkout without permpoly/__main__.py
CLI_MAIN = "import sys; from permpoly.cli import main; sys.exit(main())"


def env_for(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src))


def run_search(src: Path) -> dict:
    proc = subprocess.run([sys.executable, "-c", SEARCH_SCRIPT, *map(str, SEARCH_E),
                           str(SEARCH_N_TO)], env=env_for(src), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{src}: search failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def run_cli(src: Path, args: tuple[str, ...]) -> tuple[float, float, str]:
    """(wall s, peak RSS MB, stdout sha256) of `python3 -m permpoly args`."""
    entry = ("-m", "permpoly") if (src / "permpoly" / "__main__.py").exists() \
        else ("-c", CLI_MAIN)
    with tempfile.TemporaryFile() as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *entry, *args], env=env_for(src),
                                stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise RuntimeError(f"{src}: {' '.join(args)} exited {proc.returncode}")
        out.seek(0)
        digest = hashlib.sha256(out.read()).hexdigest()
    return wall, usage.ru_maxrss / 1024, digest


def measure_pass(src: Path, raw: dict) -> None:
    for e, (hits, ms) in run_search(src).items():
        raw["search"].setdefault(e, (hits, []))[1].append(ms)
    for args in CLI_RUNS:
        wall, rss, digest = run_cli(src, args)
        walls, peaks, digests = raw["cli"].setdefault(" ".join(args), ([], [], set()))
        walls.append(wall)
        peaks.append(rss)
        digests.add(digest)


def summary(raw: dict) -> dict:
    return {
        "conditions": {"cpus": os.cpu_count(), "python": platform.python_version(),
                       "machine": platform.machine(), "passes": REPEATS},
        "search_ms_per_n": {
            f"search_desirable(4, {e}, 1, {SEARCH_N_TO})": {
                "hits": hits, "ms_per_n": round(statistics.median(ms), 4),
                "ms_per_n_passes": [round(v, 4) for v in ms]}
            for e, (hits, ms) in raw["search"].items()},
        "cli": {f"python3 -m permpoly {cmd}": {
                    "wall_s": round(statistics.median(walls), 2),
                    "wall_s_runs": [round(w, 2) for w in walls],
                    "peak_rss_mb": round(max(peaks), 1),
                    "stdout_sha256": digests.pop() if len(digests) == 1 else sorted(digests)}
                for cmd, (walls, peaks, digests) in raw["cli"].items()},
    }


def main(argv: list[str]) -> None:
    srcs = [Path(a).resolve() for a in argv] or [ROOT / "src"]
    raw = {src: {"search": {}, "cli": {}} for src in srcs}
    for i in range(REPEATS):
        for src in (srcs if i % 2 == 0 else srcs[::-1]):
            measure_pass(src, raw[src])
    data = json.loads(OUT.read_text()) if OUT.exists() else {}
    for src in srcs:
        label = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=src,
                               capture_output=True, text=True, check=True).stdout.strip()
        data[label] = summary(raw[src])
        print(json.dumps({label: data[label]}, indent=2))
    OUT.write_text(json.dumps(data, indent=2) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
