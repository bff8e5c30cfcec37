"""Self-test of the benchmark: every workload at its smallest size.

    python3 -m pytest perfbench/test_perfbench.py

Runs from the root of a source checkout and takes well under a minute.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ttspectral import householder, planner  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(cwd, *args):
    """Run the benchmark in ``cwd``; it finds the library only in ``cwd``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds",
                "0.2", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in group]
    for m in group:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
        assert f"metric {m['name']} = {got['value']!r} {m['unit']}" in lines
    if not trace:
        for m in group:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


class WrongShape(workloads.ApplyCase):
    """apply_map on an input with one row too many: always a ShapeError."""

    def prepare(self, rng):
        return rng.standard_normal((self.params.d_in + 1, self.d_x))


def test_failed_op_is_counted_and_charged_the_limit():
    cases, _ = workloads.setup("apply-warm", 5, True, "")
    good = cases[0]
    bad = WrongShape("svdp", good.params.d_out, good.params.d_in,
                     good.params.r, 1, good.params, good.w)
    bad.label = "apply wrong-shape"
    limit = 50.0
    ops = run.run_ops([good, bad], np.random.default_rng(0), 0.0, 20)
    run.charge(ops, limit)
    failed = [op for op in ops if op["cause"]]
    assert len(ops) == 20 and len(failed) == 10
    assert {op["cause"] for op in failed} == {"ShapeError"}
    assert all(op["ms"] >= limit for op in failed)
    assert all(op["ms"] < limit for op in ops if not op["cause"])
    metrics = run.end_to_end(ops, 1.0, 1.0, limit)
    assert metrics["success_rate"] == 0.5
    assert metrics["op_p90_ms"] >= limit  # more than 10% fail
    assert run.workload_figures(ops)["error_rate"] == 0.5


def test_wrong_output_is_a_failed_check():
    cases, _ = workloads.setup("apply-warm", 5, True, "")
    case = cases[0]
    case.w = case.w * 2.0
    op = run.one_op(case, np.random.default_rng(0), None, 0)
    assert op["bad_output"] and op["cause"].startswith("check:")


def test_fails_without_the_library_sources():
    bare = os.path.join(ROOT, ".perfbench-work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _run(bare, "--workload", "train", "--seed", "1", "--seconds",
                    "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_calls_run_the_library_and_are_restored():
    cases, _ = workloads.setup("apply-warm", 5, True, "")
    case = next(c for c in cases if c.label.startswith("apply sttp"))
    decode, plan = householder.decode, planner.plan
    tr = spans.Tracer()
    x = case.prepare(np.random.default_rng(0))
    y = case.run_traced(tr, x)
    assert householder.decode is decode and planner.plan is plan
    assert np.array_equal(y, planner.apply_map(case.params, x))
    names = {rec["name"] for rec in tr.spans}
    assert {"householder.decode", "sttp.core_specs", "planner.diagram",
            "planner.plan", "planner.execute",
            "spectral.materialize_sigma"} <= names
    assert all(rec["hit"] for rec in tr.spans if rec["name"] == "planner.plan")


def _two_case_ops(slow):
    """200 ops of two cases, 50 ms apart; ``slow(i)`` multiplies op i."""
    return [{"case": "ab"[i % 2], "t": 0.05 * i, "cause": None,
             "s": (0.01 if i % 2 else 0.02) * slow(i)} for i in range(200)]


def test_slow_phase_of_the_machine_cancels():
    cal = run.Calibration(process=False)
    cal.times = [0.1 * k for k in range(100)]
    cal.samples = [(1e-3 if t < 5.0 else 2e-3) * cal.nominal_ms
                   for t in cal.times]
    ops = _two_case_ops(lambda i: 1.0 if 0.05 * i < 5.0 else 2.0)
    run.charge(ops, 50.0, cal.op_scales(ops))
    away = [op for op in ops if abs(op["t"] - 5.0) > 0.3]
    assert {round(op["ms"], 9) for op in away} == {10.0, 20.0}
    metrics = run.end_to_end(ops, 1.0, 1.0, 50.0)
    assert metrics["op_p90_ms"] / metrics["op_p50_ms"] < 1.05


def test_an_ops_own_excess_is_kept_in_the_tail():
    ops = _two_case_ops(lambda i: 1.5 if i % 8 in (0, 5) else 1.0)
    run.charge(ops, 50.0)
    metrics = run.end_to_end(ops, 1.0, 1.0, 50.0)
    assert metrics["op_p90_ms"] / metrics["op_p50_ms"] == pytest.approx(1.5)
