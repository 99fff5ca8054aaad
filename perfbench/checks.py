"""Compare one round's program outputs with the reference.

check() returns one message per disagreement; an empty list means every
output agreed.  A result that is None comes from a program call that
raised: it is counted as failed by the worker and not checked here.
"""

from __future__ import annotations

import random

from reference import is_irreducible, parse_field, ref_field, t1_point
from workloads import CHARSUM_D, GCD_CASE1_K, GCD_CASE2_K, ORACLE_FIELDS, SEARCH_N

COROLLARY_SPOT_POINTS = 16


def _t1(o, r, where, bad):
    if o is None:
        return
    if o["all_ok"] is not True:
        bad.append(f"{where}: all_ok is {o['all_ok']}")
    if o["is_pp"] != r["is_pp"]:
        bad.append(f"{where}: is_pp {o['is_pp']}, reference {r['is_pp']}")
    if o["e1"] is not True or r["e1_spot"] is not True:
        bad.append(f"{where}: identity chain {o['e1']}, reference spot check {r['e1_spot']}")
    for key in ("gcd_case1", "gcd_case2"):
        if o[key] != r[key]:
            bad.append(f"{where}: {key} {o[key]}, sympy {r[key]}")


def _search(workload, out, ref, bad):
    triples = out["triples"]
    if triples is None:
        return
    e = SEARCH_N[workload][0]
    hits = [t[0] for t in triples]
    if hits != ref["hits"]:
        missing = sorted(set(ref["hits"]) - set(hits))
        extra = sorted(set(hits) - set(ref["hits"]))
        bad.append(f"search: hits differ, missing {missing[:10]}, extra {extra[:10]}")
    if any(t[1:] != [e, 4, "exhaustive"] for t in triples):
        bad.append("search: a triple has the wrong e, q or test")


def _corollary(o, r, text, seed, bad):
    if o is None:
        return
    if len(o["steps"]) != 5 or not all(ok is True for _, ok in o["steps"]):
        bad.append(f"corollary: steps {o['steps']}")
    if o["is_pp"] is not (r["distinct"] == r["order"]) or not r["equals_t1_map"]:
        bad.append(f"corollary: is_pp {o['is_pp']}, reference {r}")
    F = ref_field(text)
    rng = random.Random(seed)
    for x in (rng.randrange(F.order) for _ in range(COROLLARY_SPOT_POINTS)):
        value = 0
        for e in o["support"]:
            value ^= F.pow(x, e)
        if value != t1_point(F, 2, x):
            bad.append(f"corollary: g(0x{x:x}) = 0x{value:x} is not the k=2 map's value")
            break


def _probe(k, o, r, text, bad):
    if o is None:
        return
    if o["is_pp"] != r["is_pp"]:
        bad.append(f"probe k={k}: is_pp {o['is_pp']}, reference {r['is_pp']}")
    if o["is_pp"]:
        return
    F = ref_field(text)
    x1, x2 = o["pair"]
    y1, y2 = t1_point(F, k, x1), t1_point(F, k, x2)
    if x1 == x2 or y1 != y2 or y1 != o["witness"]:
        bad.append(f"probe k={k}: pair 0x{x1:x}, 0x{x2:x} maps to 0x{y1:x}, 0x{y2:x}, "
                   f"witness 0x{o['witness']:x}")


def _desk(out, ref, seed, bad):
    fields = out["fields"]
    _t1(out["t1"], ref["t1"], "t1 k=2", bad)
    _corollary(out["corollary"], ref["corollary"], fields["corollary"], seed, bad)
    for name, r in ref["t2"].items():
        o = out["t2"][name]
        if o is None:
            continue
        want = [r["cond_i"], r["cond_ii"], r["cond_i"] and r["cond_ii"] and r["is_pp"]]
        if o != want:
            bad.append(f"t2 {name}: {o}, reference {want}")
        if not r["cond_ii"] and r.get("point") is None:
            bad.append(f"t2 {name}: reference found no point where condition (ii) fails")
    for k, r in ref["probes"].items():
        _probe(int(k), out["probes"][k], r, fields[f"probe{k}"], bad)
    if len(out["oracle"]) != len(ORACLE_FIELDS):
        bad.append("oracle: wrong number of fields")
    for text, failing in out["oracle"]:
        if failing:
            bad.append(f"oracle {text}: identity fails for n = {failing[:10]}")
    if ref["oracle"]["identity_fails"]:
        bad.append(f"oracle: reference recurrence fails {ref['oracle']['identity_fails'][:5]}")
    for d in CHARSUM_D:
        o = out["charsum"][str(d)]
        if o is not None and o != ref["charsum"][str(d)]:
            bad.append(f"charsum x^{d}: is_pp {o}")
    for case, ks in (("case1", GCD_CASE1_K), ("case2", GCD_CASE2_K)):
        for k in map(str, ks):
            o = out["gcd"][case][k]
            if o is not None and o != ref["gcd"][case][k]:
                bad.append(f"gcd {case} k={k}: {o}, sympy {ref['gcd'][case][k]}")


def check(workload: str, out: dict, ref: dict, seed: int) -> list[str]:
    bad: list[str] = []
    for label, text in out["fields"].items():
        for t in (text if isinstance(text, list) else [text]):
            if t is not None and not is_irreducible(parse_field(t)[2]):
                bad.append(f"{label}: modulus of {t} is reducible")
    if workload == "t1-k4":
        _t1(out["t1"], ref["t1"], "t1 k=4", bad)
    elif workload in SEARCH_N:
        _search(workload, out, ref, bad)
    else:
        _desk(out, ref, seed, bad)
    return bad
