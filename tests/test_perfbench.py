"""The traced benchmark still finds every per-layer metric it reports.

``perfbench/run.py --trace 1`` reads each ``per_layer`` name of
``BENCHMARK.json`` from the table its tracer builds, and the tracer registers
a span name only while the function or method it wraps exists.  This test
builds that table for a round with no ops, so a package change that drops a
measured function fails here rather than in a traced benchmark run.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
# computed from the op times of a traced run, not read from the span table
NOT_FROM_SPANS = {"trace.overhead_ratio"}


def load_runner():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_per_layer_metric_is_registered():
    saved_path, saved_modules = sys.path[:], dict(sys.modules)
    saved_bytecode = sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True  # leave no cache files in perfbench/
    try:
        run = load_runner()
        pkg = SimpleNamespace(**{m: importlib.import_module(f"onlinefair.{m}")
                                 for m in run.MODULES})
        tracer = run.Tracer(pkg)
        table = run.layer_metrics([tracer.collect()])
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_bytecode
        for name in set(sys.modules) - set(saved_modules):
            del sys.modules[name]
        sys.modules.update(saved_modules)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in bench["per_layer"] if m["name"] not in NOT_FROM_SPANS]
    assert [name for name in wanted if name not in table] == []
