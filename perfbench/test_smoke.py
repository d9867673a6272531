"""Tiny-size smoke test of the benchmark (no wall-clock asserts).

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported_and_checks_ran(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["attempted"] >= 1
    assert any(line.startswith("# check PASS") for line in lines)
    assert not any(line.startswith("# check FAIL") for line in lines), proc.stdout
    assert result["correct"] and result["failed"] == 0
    assert any(line.startswith("# env ") for line in lines)


def test_fails_without_the_program():
    bare = os.path.join(ROOT, ".perfbench", "bare-copy")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _run(SPEC["workloads"][0]["name"], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_times_subtract_children_and_bookkeeping():
    module = types.SimpleNamespace(__name__="toy")
    module.inner = lambda: sum(range(20000))
    module.outer = lambda: module.inner() + module.inner()
    tracer = Tracer()
    tracer.wrap(module, "outer")
    tracer.wrap(module, "inner", after=lambda t, args, result: t.counters.update(calls=1))
    with tracer.installed("r0"):
        module.outer()
    assert module.outer.__name__ == "<lambda>" and not hasattr(module.outer, "__wrapped__")
    assert tracer.check_nesting() == []
    names = [span[0] for span in tracer.spans]
    assert names == ["toy.outer", "toy.inner", "tracer.bookkeeping",
                     "toy.inner", "tracer.bookkeeping"]
    own = tracer.self_times()
    duration = [end - start for _, start, end, _, _ in tracer.spans]
    assert own[0] == pytest.approx(duration[0] - sum(duration[1:]), abs=1e-12)
    table = tracer.summary(runs={"r0"})
    assert table["toy.inner"]["calls"] == 2
    assert table["toy.outer"]["total_s"] == pytest.approx(duration[0] - duration[2] - duration[4])
    assert sum(own) == pytest.approx(duration[0])
