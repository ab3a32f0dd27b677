"""The functions the benchmark's tracer wraps still exist under the names it uses.

``perfbench/tracing.py`` patches agnnseg attributes by name; a rename in the
package would otherwise only show up as an AttributeError in a traced
benchmark run.  Its per-layer result names one figure per op kind, so the
op kinds must also match the names that ``BENCHMARK.json`` lists.  A short
traced run must end its standard output with the result line the benchmark
reads, so nothing else may print there.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from agnnseg import engine

ROOT = Path(__file__).resolve().parents[1]
TRACING_PATH = ROOT / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def site_names(tracing):
    return [(module, path) for _, module, path in tracing.SITES] + [tracing.APPLY_SITE]


def test_every_site_resolves_to_a_distinct_callable(tracing):
    seen = {}
    for module, path in site_names(tracing):
        owner, attr = tracing._resolve(module, path)
        assert callable(getattr(owner, attr, None)), f"{module}.{path} does not resolve"
        key = (id(owner), attr)
        assert key not in seen, f"{module}.{path} and {seen[key]} resolve to one attribute"
        seen[key] = f"{module}.{path}"


def test_op_kinds_match_the_benchmark_names():
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    listed = {n[len("engine.apply."):-len(".calls")] for n in names
              if n.startswith("engine.apply.") and n.endswith(".calls")}
    assert set(engine.op_kinds()) == listed


def test_install_wraps_every_site_and_restores_it(tracing):
    resolved = [tracing._resolve(module, path) for module, path in site_names(tracing)]
    originals = [getattr(owner, attr) for owner, attr in resolved]
    with tracing.Tracer(enabled=True).installed():
        for (owner, attr), fn in zip(resolved, originals):
            assert getattr(owner, attr) is not fn
    for (owner, attr), fn in zip(resolved, originals):
        assert getattr(owner, attr) is fn


def test_traced_train_run_ends_with_a_result_line():
    # the benchmark reads the last stdout line; the detail line is the only
    # other one, so any print in agnnseg would break the contract
    command = [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "0",
               "--seconds", "1", "--trace", "1"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 2 and "detail" in json.loads(lines[0])
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert isinstance(result["metrics"], dict) and result["metrics"]
    # train decodes its videos through pipeline.load_video, a traced site
    assert result["metrics"]["synthdata.load_video.calls"]["value"] > 0
