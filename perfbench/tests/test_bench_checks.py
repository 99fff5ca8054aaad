"""Every check passes on the program's real outputs and fails on a
planted wrong answer."""

import copy
import json
import shutil
import subprocess
import sys

import pytest

import reference as R
import worker
from checks import check
from workloads import SEARCH_N

SEED = 3


def _outputs(workload):
    ops = worker.Ops()
    ctxs = worker.setup(workload)
    raw = worker.run(workload, ctxs, SEED, ops)
    assert ops.failed == 0, ops.errors
    return worker.serialize(workload, ctxs, raw)


@pytest.fixture(scope="module")
def desk():
    out = _outputs("desk-suite")
    return out, R.expected("desk-suite", out["fields"], SEED)


@pytest.fixture(scope="module")
def search():
    out = _outputs("search-e7")
    return out, R.expected("search-e7", out["fields"], SEED)


def _fails(workload, out, ref, mutate) -> list[str]:
    bad = copy.deepcopy(out)
    mutate(bad)
    return check(workload, bad, ref, SEED)


def test_real_outputs_pass(desk, search):
    assert check("desk-suite", *desk, SEED) == []
    assert check("search-e7", *search, SEED) == []


def test_dropped_hit_fails(search):
    out, ref = search
    assert len(out["triples"]) > 3
    msgs = _fails("search-e7", out, ref, lambda o: o["triples"].pop(3))
    assert any("missing" in m for m in msgs)


def test_extra_hit_fails(search):
    out, ref = search
    non_hit = next(n for n in range(1, 41) if n not in ref["hits"])
    assert _fails("search-e7", out, ref,
                  lambda o: o["triples"].insert(0, [non_hit, 7, 4, "exhaustive"]))


@pytest.mark.parametrize("path", [
    ("t1", "is_pp"), ("t1", "all_ok"), ("t1", "e1"), ("corollary", "is_pp"),
    ("probes", "1", "is_pp"), ("probes", "3", "is_pp"), ("charsum", "1"), ("charsum", "3"),
], ids=lambda p: ".".join(p))
def test_flipped_verdict_fails(desk, path):
    out, ref = desk

    def flip(o):
        node = o
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = not node[path[-1]]
    assert _fails("desk-suite", out, ref, flip)


@pytest.mark.parametrize("k", ["1", "3"])
def test_false_collision_fails(desk, k):
    out, ref = desk

    def move_second(o):
        x1, x2 = o["probes"][k]["pair"]
        o["probes"][k]["pair"] = [x1, x2 ^ 0x10]

    def same_point(o):
        x1, _ = o["probes"][k]["pair"]
        o["probes"][k]["pair"] = [x1, x1]

    def wrong_witness(o):
        o["probes"][k]["witness"] ^= 1

    for mutate in (move_second, same_point, wrong_witness):
        assert _fails("desk-suite", out, ref, mutate), mutate.__name__


def test_other_planted_answers_fail(desk):
    out, ref = desk
    plants = {
        "t2 condition (ii)": lambda o: o["t2"]["x + frob(S(2), 1)"].__setitem__(1, True),
        "t2 pp": lambda o: o["t2"]["S(3)^2"].__setitem__(2, False),
        "corollary step": lambda o: o["corollary"]["steps"][2].__setitem__(1, False),
        "corollary polynomial": lambda o: o["corollary"]["support"].pop(),
        "oracle": lambda o: o["oracle"][4][1].append(17),
        "gcd case1": lambda o: o["gcd"]["case1"].__setitem__("4", "x+1"),
        "gcd case2": lambda o: o["gcd"]["case2"].__setitem__("5", "x^4+1"),
        "t1 gcd": lambda o: o["t1"].__setitem__("gcd_case2", "1"),
        "reducible modulus": lambda o: o["fields"].__setitem__("t2", "GF(4^6) mod x^12+1"),
    }
    for name, mutate in plants.items():
        assert _fails("desk-suite", out, ref, mutate), name


def _traced_counts(tmp_path, name):
    proc = subprocess.run(
        [sys.executable, str(R.HERE / "worker.py"), "search-e7", str(SEED), "0", "--trace",
         "--spans", str(tmp_path / f"{name}.jsonl")],
        capture_output=True, text=True, timeout=300, check=True)
    layers = json.loads(proc.stdout.splitlines()[-1])["rounds"][0]["layers"]
    return {(fn, kind): v for fn, row in layers.items() for kind, v in row.items()
            if kind != "s"}


def test_traced_counts_repeat_and_cover_the_range(tmp_path, search):
    first = _traced_counts(tmp_path, "a")
    assert first == _traced_counts(tmp_path, "b")
    assert first[("gnq.search_desirable", "n")] == SEARCH_N["search-e7"][1]
    assert first[("gnq.search_desirable", "hits")] == len(search[1]["hits"])
    assert first[("gnq.gnq_oracle_check", "calls")] == len(search[1]["hits"])
    assert (tmp_path / "a.jsonl").stat().st_size > 0


def test_run_without_program_source_fails(tmp_path):
    shutil.copytree(R.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(R.HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_worker_peak_rss_excludes_the_spawning_process():
    import numpy as np

    ballast = np.ones(64 << 20, dtype=np.uint8)  # 64 MB held by this process
    proc = subprocess.run(
        [sys.executable, str(R.HERE / "worker.py"), "search-e7", str(SEED), "0"],
        capture_output=True, text=True, timeout=300, check=True)
    peak = json.loads(proc.stdout.splitlines()[-1])["peak_rss_mb"]
    assert ballast.sum() == 64 << 20
    assert peak < 60, peak


def test_failed_calls_are_skipped_not_judged(desk):
    out = copy.deepcopy(desk[0])
    for key in ("t1", "corollary", "probe3"):
        out["fields"][key] = None
    out["t1"] = out["corollary"] = out["probes"]["3"] = None
    ref = R.expected("desk-suite", out["fields"], SEED)
    assert ref["t1"] is None and ref["corollary"] is None and ref["probes"]["3"] is None
    assert check("desk-suite", out, ref, SEED) == []
