"""The names perfbench/tracer.py wraps exist in the package and are called."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_tracer_installs_and_sees_the_wrapped_names():
    code = ("import json\n"
            "from tracer import METHODS, Tracer\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            "from permpoly import gnq, permtest, poly\n"
            "from permpoly.field import make_field\n"
            "hits = gnq.search_desirable(4, 3, 1, 40)\n"
            "ctx = make_field(2, 3)\n"
            "permtest.is_pp_exhaustive(gnq.gnq_recurrence(65921, 4, ctx), ctx)\n"
            "methods = ['.'.join(m) for m in METHODS]\n"
            "print(json.dumps({'layers': tracer.layers(), 'methods': methods,\n"
            "                  'hits': len(hits)}))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (str(ROOT / "perfbench"), str(ROOT / "src"))))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, cwd=ROOT,
                         capture_output=True, text=True, timeout=120).stdout
    got = json.loads(out)
    layers = got["layers"]
    for name in got["methods"] + ["scan.field_values", "gnq.gnq_recurrence",
                                  "permtest.is_pp_exhaustive"]:
        assert layers[name]["calls"] > 0, name
    search = layers["gnq.search_desirable"]
    assert search["n"] == 40 and search["hits"] == got["hits"] > 0
