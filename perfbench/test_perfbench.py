"""Tests of the benchmark itself: python3 -m pytest perfbench/test_perfbench.py"""

from __future__ import annotations

import filecmp
import os
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import generate  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _same_files(a: dict, b: dict) -> bool:
    return all(filecmp.cmp(a[role], b[role], shallow=False) for role in a)


@pytest.mark.parametrize("workload", ["gmmc-fit", "plugin-fit"])
def test_generator_is_deterministic(tmp_path, workload):
    first = generate.write_inputs(workload, 5, str(tmp_path / "a"))
    second = generate.write_inputs(workload, 5, str(tmp_path / "b"))
    assert first and _same_files(first, second)


def test_seed_draws_the_sample_path(tmp_path):
    first = generate.write_inputs("plugin-fit", 1, str(tmp_path / "a"))
    other = generate.write_inputs("plugin-fit", 2, str(tmp_path / "b"))
    assert not any(filecmp.cmp(first[r], other[r], shallow=False) for r in first)


def _patched_names():
    points = tracing.SPAN_POINTS + tracing.HOT_POINTS
    return {(path, attr): getattr(tracing._resolve(path), attr) for path, attr, _ in points}


def test_wrappers_restore_every_patched_name():
    before = _patched_names()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.install():
            inside = _patched_names()
            assert all(inside[key] is not before[key] for key in before)
            raise RuntimeError("leave the block by an exception")
    after = _patched_names()
    assert all(after[key] is before[key] for key in before)


def test_self_time_never_exceeds_busy_time():
    from markovmix.simulation import SimConfig, run_part1

    tracer = tracing.Tracer()
    tracer.op_id = 0
    with tracer.install(), tracer.span("simulation.study"):
        run_part1(SimConfig(n_obs=100, n_reps=2, states=2, seed=1000))
    names = {s.name for s in tracer.spans}
    assert {"gmmc.estimate", "optim.auglag", "mnlogit.fit", "inference.wald"} <= names
    for span in tracer.spans:
        assert 0.0 <= span.self_s <= span.busy_s
    for entry in tracer.layer_totals().values():
        assert entry["self_s"] <= entry["busy_s"]
    metrics = tracing.layer_metrics(tracer, n_ops=2)
    assert metrics["optim.auglag_calls"] == 2.0  # two equations per replication
    assert metrics["mixture.loglik_calls"] > 0


def test_fit_check_bounds():
    ref = {"estimates": [[0.5, 0.5]], "logliks": [-1000.0]}
    assert workloads.check_fit({"estimates": [[0.50009, 0.49991]], "logliks": [-1000.0009]}, ref) == []
    assert workloads.check_fit({"estimates": [[0.5002, 0.4998]], "logliks": [-1000.0]}, ref)
    assert workloads.check_fit({"estimates": [[0.5, 0.5]], "logliks": [-1000.002]}, ref)


def test_traced_metrics_match_benchmark_json():
    import json

    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    summary = {"trace_ops": 1, "op_s": 1.0, "ops_per_s": 1.0}
    produced = run.trace_metrics(tracing.Tracer(), summary, summary, 0.0)
    assert {name: unit for name, (_, unit) in produced.items()} == declared


def test_sampler_restores_the_timer_and_its_handler():
    handler = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        deadline = time.perf_counter() + 0.35
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 2
    assert 0.0 < sampler.spent_s < 0.35


def test_scaling_divides_by_the_median_sample():
    slow = [speed.REFERENCE_S * 2] * 3 + [speed.REFERENCE_S * 100]
    assert speed.scaled([4.0, 1.0], slow) == pytest.approx([2.0, 0.5])
