"""Tests of the benchmark itself, on shrunken copies of its workloads."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import workloads
from perfbench.tracer import Tracer, installed, layer_metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))


def tiny(name):
    """The named workload on 8 training samples, one or two test samples and one epoch."""
    workload = workloads.WORKLOADS[name]
    return dataclasses.replace(
        workload,
        train_epochs=min(workload.train_epochs, 1),
        fit_epochs=1,
        setup_fit_epochs=min(workload.setup_fit_epochs, 1),
        check_samples=None,
        train_limit=8,
        test_limit=1 if workload.dataset == "mnist16" else 2,
    )


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _count_metrics():
    return [
        metric["name"]
        for metric in _load(os.path.join(ROOT, "BENCHMARK.json"))["per_layer"]
        if metric["unit"] in ("count", "B") and metric["name"] != "trace.spans"
    ]


def test_benchmark_json_matches_workloads_and_layer_map():
    spec = _load(os.path.join(ROOT, "BENCHMARK.json"))
    layers = _load(os.path.join(HERE, "layers.json"))["layers"]
    assert [metric["name"] for metric in spec["per_layer"]] == [
        name for layer in layers for name in layer["metrics"]
    ]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    names = {w.name for w in workloads.WORKLOADS.values()}
    end_to_end = {metric["name"] for metric in spec["end_to_end"]}
    for layer in layers:
        assert set(layer["most"]) | set(layer["little"]) <= names
        assert set(layer["moves"]) <= end_to_end


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_counters_repeat_exactly_and_no_fallbacks(name):
    workload = tiny(name)
    runs = [workloads.per_layer(workload, seed=3, seconds=0.0, memcpy_gbps=1.0) for _ in range(2)]
    counts = [{key: metrics[key] for key in _count_metrics()} for metrics, *_ in runs]
    assert counts[0] == counts[1]
    assert all(tally.failed == 0 for _, tally, *_ in runs)
    if workload.engine != "analytic":
        assert counts[0]["backend.fallback_calls"] == 0
        assert counts[0]["backend.grid_sweeps"] > 0


def test_cert_time_counts_nested_certification_spans_once():
    tracer = Tracer()
    with tracer.span("unit") as root:
        with tracer.span("cert.verify") as verify:
            with tracer.span("cert.prefix"):
                pass
        with tracer.span("cert.prefix") as prefix:
            pass
    top_level = sum(tracer.spans[index][2] - tracer.spans[index][1] for index in (verify, prefix))
    assert layer_metrics(tracer, [root])["cert.s"] == pytest.approx(top_level, rel=0, abs=1e-12)


@pytest.mark.parametrize("name", ["iris-analytic-train", "iris-sampled-train", "iris-noisy-train"])
def test_tracing_leaves_fidelities_and_accuracy_bit_identical(name):
    workload = tiny(name)

    def fixed_pass():
        prepared = workloads.setup(workload, seed=5)
        workloads.train_fixed(prepared)
        _, fidelities = workloads.memory_pass(prepared)
        return fidelities, workloads.accuracy_of(prepared, fidelities)

    plain_fidelities, plain_accuracy = fixed_pass()
    tracer = Tracer()
    with installed(tracer):
        traced_fidelities, traced_accuracy = fixed_pass()
    assert tracer.spans
    assert np.array_equal(plain_fidelities, traced_fidelities)
    assert plain_accuracy == traced_accuracy


def test_corrupted_fidelities_count_as_failed_operations(monkeypatch):
    from repro.core.model import QuClassi

    original = QuClassi.class_fidelities
    monkeypatch.setattr(
        QuClassi, "class_fidelities", lambda self, features: original(self, features) + 0.01
    )
    _, tally, details = workloads.end_to_end(tiny("iris-analytic-train"), seed=0, seconds=0.01)
    assert details["check_violations"] == details["checked_elements"] > 0
    assert tally.failed >= details["check_violations"]


def test_sampled_check_accepts_true_fidelities_and_rejects_shifted_ones():
    prepared = workloads.setup(tiny("iris-sampled-train"), seed=1)
    fidelities = prepared.model.class_fidelities(prepared.x_test)
    checked, violations = workloads.check(prepared, fidelities)
    assert checked == fidelities.size and violations == 0
    _, violations = workloads.check(prepared, np.clip(fidelities + 0.5, 0.0, 1.0))
    assert violations > 0


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "iris-analytic-train", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
