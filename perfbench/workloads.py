"""The four benchmark workloads and the passes that measure them.

Every workload runs QuClassi end to end through the public API: build the
data, the model, the estimator and the backend, train with ``QuClassi.fit``
and classify with ``QuClassi.predict`` / ``class_fidelities``.

* ``iris-analytic-train`` — the default :class:`AnalyticFidelityEstimator`.
* ``iris-sampled-train`` — SWAP-test circuits on :class:`SampledBackend`.
* ``iris-noisy-train`` — SWAP-test circuits on ``IBMQBackend("ibmq_london")``.
* ``mnist16-sampled-infer`` — a 17-qubit discriminator on
  :class:`SampledBackend`; a short analytic fit during set-up produces the
  weights.

Seeds: the dataset split and the initial weights come from
:data:`DATA_SEED`; the workload seed drives the minibatch shuffles and the
backend's shot sampling.  With the split drawn from the workload seed as
well, test accuracy moved by 14% (Iris, analytic) to 55% (MNIST-16) of its
median between seeds, more than any bound the benchmark may set on it.

Timed quantities are reported in reference seconds (see
:mod:`perfbench.calibration`); each record also keeps the wall-clock values.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
import tracemalloc
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import calibration

#: Seed of the dataset split and of the initial weights.
DATA_SEED = 0
SHOTS = 1024
LEARNING_RATE = 0.1
IRIS_DEVICE = "ibmq_london"
MNIST_DIGITS = (3, 6)
#: Analytic fidelities must match the per-sample reference this closely.
ANALYTIC_ATOL = 1e-10
#: Sampled fidelities must lie within ``Z_BOUND`` shot-noise deviations
#: (sigma_F = 2 sqrt(p0 (1 - p0) / shots), p0 = (1 + F) / 2) of the exact
#: value, plus ``CONTINUITY_COUNTS`` counts for the binomial tail near
#: p0 = 1, where the normal approximation undercounts.
Z_BOUND = 6.0
CONTINUITY_COUNTS = 3


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark input set.

    ``train_epochs`` untimed epochs fix the weights the memory pass, the
    accuracy and the correctness check use; each timed ``fit`` call runs
    ``fit_epochs`` epochs.  ``fit_share`` of the run's seconds go to timed
    fits, the rest to timed predicts; ``kernel`` names the
    :mod:`perfbench.calibration` kernel doing the same kind of work as both.
    Each timed predict call classifies ``predict_chunk`` test samples, taken
    in turn around the test split (``None``: the whole split every call).
    ``train_limit`` / ``test_limit`` shrink the splits for the benchmark's
    own tests.
    """

    name: str
    why: str
    dataset: str
    engine: str
    train_epochs: int
    fit_epochs: int
    fit_share: float
    kernel: str = "dispatch"
    predict_chunk: Optional[int] = None
    setup_fit_epochs: int = 0
    check_samples: Optional[int] = None
    train_limit: Optional[int] = None
    test_limit: Optional[int] = None


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="iris-analytic-train",
            why="Default analytic estimator: pure-Python dispatch of trainer, gradient, "
            "encoding, gates; bypasses backend, readout and the kernels at size",
            dataset="iris",
            engine="analytic",
            train_epochs=10,
            fit_epochs=2,
            fit_share=0.7,
        ),
        Workload(
            name="iris-sampled-train",
            why="SWAP-test training on SampledBackend: many small whole-grid sweeps, "
            "prefix certification and shot readout dominate",
            dataset="iris",
            engine="sampled",
            train_epochs=4,
            fit_epochs=1,
            fit_share=0.7,
        ),
        Workload(
            name="iris-noisy-train",
            why="SWAP-test training on noisy ibmq_london: the density engine's superoperator "
            "kernel, transpile cache and job ledger",
            dataset="iris",
            engine="noisy",
            train_epochs=1,
            fit_epochs=1,
            fit_share=0.8,
            kernel="density",
            check_samples=5,
        ),
        Workload(
            name="mnist16-sampled-infer",
            why="17-qubit MNIST-16 inference on SampledBackend: the memory-bound statevector "
            "kernel, few huge tiles and the shared prefix",
            dataset="mnist16",
            engine="sampled",
            train_epochs=0,
            fit_epochs=1,
            fit_share=0.15,
            # One predict of the 30-sample split takes ~15 s: too long to
            # bracket with the calibration or to take a median over in one
            # run.  Four samples fill one 8-element tile of the two classes.
            predict_chunk=4,
            setup_fit_epochs=8,
            check_samples=4,
        ),
    )
}


@dataclasses.dataclass
class Prepared:
    """A set-up workload: data, model and, for MNIST, the analytic trainer."""

    workload: Workload
    seed: int
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    model: object
    #: Estimator the timed fits train with (the model's own, except on
    #: MNIST where the weights come from the analytic estimator).
    fit_estimator: object
    #: Test samples the timed predict calls have classified so far.
    predicted: int = dataclasses.field(default=0, init=False)


# --------------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------------- #


def _load(workload: Workload):
    from repro.datasets import load_iris, prepare_task
    from repro.experiments.figures import prepare_mnist_task

    if workload.dataset == "iris":
        data = prepare_task(load_iris(), n_components=None, rng=DATA_SEED)
    else:
        data = prepare_mnist_task(
            MNIST_DIGITS, n_components=16, samples_per_digit=50, seed=DATA_SEED
        )
    train, test = workload.train_limit, workload.test_limit
    return (
        data.x_train[:train], data.y_train[:train], data.x_test[:test], data.y_test[:test],
        len(data.class_names),
    )


def make_backend(workload: Workload, seed: int):
    """A fresh backend for the workload's engine (``None`` for analytic)."""
    from repro.hardware import IBMQBackend
    from repro.quantum.backend import SampledBackend

    if workload.engine == "sampled":
        return SampledBackend(shots=SHOTS, seed=seed)
    if workload.engine == "noisy":
        return IBMQBackend(IRIS_DEVICE, seed=seed)
    return None


def setup(workload: Workload, seed: int) -> Prepared:
    """From empty caches to the first result (one predicted test sample)."""
    from repro.core.model import QuClassi
    from repro.core.swap_test import SwapTestFidelityEstimator

    x_train, y_train, x_test, y_test, num_classes = _load(workload)
    model = QuClassi(
        num_features=x_train.shape[1], num_classes=num_classes, architecture="s", seed=DATA_SEED
    )
    fit_estimator = model.estimator
    if workload.setup_fit_epochs:
        model.fit(x_train, y_train, epochs=workload.setup_fit_epochs,
                  learning_rate=LEARNING_RATE, rng=seed)
    backend = make_backend(workload, seed)
    if backend is not None:
        model.estimator = SwapTestFidelityEstimator(model.builder, backend=backend, shots=SHOTS)
        if not workload.setup_fit_epochs:
            fit_estimator = model.estimator
    model.predict(x_test[:1])
    return Prepared(workload, seed, x_train, y_train, x_test, y_test, model, fit_estimator)


#: A timed block repeats a call back to back until it has run this long.
BLOCK_S = 0.1


#: Timed set-ups run in blocks of at least ``BLOCK_S``, each bracketed by the
#: calibration, until ``SETUP_BUDGET_S`` is spent and at least
#: ``SETUP_MIN_BLOCKS`` blocks ran.
SETUP_BUDGET_S = 2.0
SETUP_MIN_BLOCKS = 7


def timed_setups(workload: Workload, seed: int) -> Tuple[Prepared, List[float], List[float]]:
    """Set up many times; returns the last prepared workload, the wall seconds
    of every timed set-up and, per block, its median set-up in reference
    seconds.

    Every set-up builds a new model, estimator and backend, and with them
    empty program, transpile and data-state caches (``repro`` keeps no
    module-level caches).  The first set-up of the process also pays the
    lazy imports and the interpreter's warm-up, and is not timed.

    The ``dispatch`` kernel calibrates every workload's set-up.  Measured on
    a 2-vCPU Intel Xeon VM over 45 s of repeated set-ups, the ratio of noisy
    set-up time to kernel time moved 0.11 (IQR/median over blocks) with this
    kernel and 0.18 with ``density``.  mnist16's set-up is 70% the analytic
    fit (Python dispatch); normalised this way it spread less across ten
    seeds than in wall time (0.10 against 0.30 IQR/median).
    """
    prepared = setup(workload, seed)
    walls: List[float] = []
    reference: List[float] = []
    before = calibration.speed("dispatch", BLOCK_S)
    deadline = time.perf_counter() + SETUP_BUDGET_S
    while len(reference) < SETUP_MIN_BLOCKS or time.perf_counter() < deadline:
        block: List[float] = []
        began = time.perf_counter()
        while not block or time.perf_counter() - began < BLOCK_S:
            start = time.perf_counter()
            prepared = setup(workload, seed)
            block.append(time.perf_counter() - start)
        after = calibration.speed("dispatch", time.perf_counter() - began)
        walls.extend(block)
        reference.append(statistics.median(block) / ((before + after) / 2))
        before = after
    return prepared, walls, reference


# --------------------------------------------------------------------------- #
# Passes
# --------------------------------------------------------------------------- #


def fit(prepared: Prepared, epochs: int, rng=None) -> None:
    """``QuClassi.fit`` with the workload's trainer estimator.

    On MNIST the fit trains with the analytic estimator and then restores
    both the sampled estimator and the set-up weights, so predictions and
    their cost do not depend on how many timed fits ran.
    """
    model = prepared.model
    if prepared.fit_estimator is model.estimator:
        model.fit(prepared.x_train, prepared.y_train, epochs=epochs,
                  learning_rate=LEARNING_RATE, rng=rng)
        return
    weights, estimator = model.get_weights(), model.estimator
    model.estimator = prepared.fit_estimator
    try:
        model.fit(prepared.x_train, prepared.y_train, epochs=epochs,
                  learning_rate=LEARNING_RATE, rng=rng)
    finally:
        model.estimator = estimator
        model.set_weights(weights)


def train_fixed(prepared: Prepared) -> None:
    """The untimed epochs that fix the weights the checks and accuracy use."""
    if prepared.workload.train_epochs:
        fit(prepared, prepared.workload.train_epochs, rng=prepared.seed)


def memory_pass(prepared: Prepared) -> Tuple[int, np.ndarray]:
    """Tracemalloc peak over one warm epoch (training workloads) plus one
    test-split prediction; returns ``(peak_bytes, test fidelities)``."""
    tracemalloc.start()
    try:
        if prepared.workload.dataset == "iris":
            fit(prepared, 1, rng=prepared.seed + 1)
        fidelities = prepared.model.class_fidelities(prepared.x_test)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, fidelities


def accuracy_of(prepared: Prepared, fidelities: np.ndarray) -> float:
    """Accuracy of the predictions ``QuClassi.predict`` derives from ``fidelities``."""
    from repro.core.inference import accuracy, predict_from_fidelities

    return float(accuracy(predict_from_fidelities(fidelities), prepared.y_test))


def check_samples(prepared: Prepared) -> int:
    count = prepared.workload.check_samples
    return len(prepared.x_test) if count is None else min(count, len(prepared.x_test))


def check(prepared: Prepared, fidelities: np.ndarray) -> Tuple[int, int]:
    """Compare class fidelities of the first test samples against a reference.

    ``fidelities`` holds at least :func:`check_samples` rows.  Returns
    ``(elements checked, violations)``.
    """
    from repro.core.swap_test import AnalyticFidelityEstimator
    from repro.quantum.fidelity import fidelity_from_swap_test_probability

    workload, model = prepared.workload, prepared.model
    count = check_samples(prepared)
    features = prepared.x_test[:count]
    observed = np.asarray(fidelities, dtype=float)[:count]
    if observed.shape != (count, model.num_classes):
        return count * model.num_classes, count * model.num_classes
    if workload.engine == "noisy":
        oracle = make_backend(workload, prepared.seed)
    exact = AnalyticFidelityEstimator(model.builder)
    violations = 0
    for sample, row in enumerate(features):
        for cls in range(model.num_classes):
            value = observed[sample, cls]
            if workload.engine == "analytic":
                reference = exact.fidelity(model.parameters_[cls], row)
                violations += not abs(value - reference) <= ANALYTIC_ATOL
                continue
            if workload.engine == "noisy":
                result = oracle.run(model.discriminator_circuit(cls, row))
                p_zero = sum(p for key, p in result.probabilities.items() if key[0] == "0")
                reference = fidelity_from_swap_test_probability(p_zero)
            else:
                reference = exact.fidelity(model.parameters_[cls], row)
                p_zero = (1.0 + reference) / 2.0
            sigma = 2.0 * np.sqrt(max(p_zero * (1.0 - p_zero), 0.0) / SHOTS)
            tolerance = Z_BOUND * sigma + 2.0 * CONTINUITY_COUNTS / SHOTS
            violations += not abs(value - reference) <= tolerance
    return count * model.num_classes, int(violations)


def _valid_predictions(prepared: Prepared, predictions, samples: int) -> bool:
    predictions = np.asarray(predictions)
    return (
        predictions.shape == (samples,)
        and bool(np.all((predictions >= 0) & (predictions < prepared.model.num_classes)))
    )


@dataclasses.dataclass
class Tally:
    """Operations attempted and failed in one run."""

    attempted: int = 0
    failed: int = 0

    def run(self, operation, *args) -> Tuple[bool, object]:
        """Run one operation; an exception counts as a failed operation."""
        self.attempted += 1
        try:
            return True, operation(*args)
        except Exception:  # noqa: BLE001 -- a failed operation is reported, not fatal
            self.failed += 1
            return False, None


def predict_samples(prepared: Prepared) -> int:
    """Test samples one timed predict call classifies."""
    return prepared.workload.predict_chunk or len(prepared.x_test)


def predict(prepared: Prepared, tally: Tally) -> bool:
    """One timed ``QuClassi.predict`` (see :class:`Workload`); False when it failed."""
    features = prepared.x_test
    if prepared.workload.predict_chunk is not None:
        rows = np.arange(prepared.predicted, prepared.predicted + predict_samples(prepared))
        prepared.predicted += len(rows)
        features = features[rows % len(features)]
    ok, predictions = tally.run(prepared.model.predict, features)
    if ok and not _valid_predictions(prepared, predictions, len(features)):
        tally.failed += 1
        return False
    return ok


@dataclasses.dataclass
class Rates:
    """Per-block throughputs (samples/s) in wall and in reference seconds."""

    wall: List[float] = dataclasses.field(default_factory=list)
    reference: List[float] = dataclasses.field(default_factory=list)

    def median(self, what: str) -> float:
        if not self.reference:
            raise RuntimeError(f"every timed {what} call failed")
        return statistics.median(self.reference)


def _blocks(prepared: Prepared, operation, samples: int, until: float, tally: Tally,
            kernel: str) -> Rates:
    """Throughput of each block of back-to-back calls until ``until``.

    Each block is bracketed by the ``kernel`` calibration; a block with a
    failed call is dropped.  At least one block runs.
    """
    rates = Rates()
    blocks = 0
    before = calibration.speed(kernel, BLOCK_S)
    while blocks == 0 or time.perf_counter() < until:
        blocks += 1
        began = time.perf_counter()
        calls = 0
        while True:
            calls += 1
            if not operation(prepared, tally):
                calls = 0
                break
            if time.perf_counter() - began >= BLOCK_S:
                break
        wall = time.perf_counter() - began
        after = calibration.speed(kernel, wall)
        if calls:
            rates.wall.append(calls * samples / wall)
            rates.reference.append(calls * samples / wall * (before + after) / 2)
        before = after
    return rates


def _fit_call(prepared: Prepared, tally: Tally) -> bool:
    ok, _ = tally.run(fit, prepared, prepared.workload.fit_epochs)
    return ok


def timed_loop(prepared: Prepared, seconds: float, tally: Tally) -> Tuple[Rates, Rates]:
    """Warm fit and predict throughputs, one value per block."""
    workload = prepared.workload
    start = time.perf_counter()
    fit_rates = _blocks(
        prepared, _fit_call, workload.fit_epochs * len(prepared.x_train),
        start + seconds * workload.fit_share, tally, workload.kernel,
    )
    predict_rates = _blocks(prepared, predict, predict_samples(prepared), start + seconds,
                            tally, workload.kernel)
    return fit_rates, predict_rates


def end_to_end(workload: Workload, seed: int, seconds: float) -> Tuple[Dict[str, float], Tally, Dict]:
    """The untraced run: every end-to-end metric of one workload."""
    tally = Tally()
    prepared, setups, setup_reference = timed_setups(workload, seed)
    tally.attempted += len(setups) + 1
    train_fixed(prepared)
    peak, fidelities = memory_pass(prepared)
    accuracy = accuracy_of(prepared, fidelities)
    checked, violations = check(prepared, fidelities)
    tally.attempted += checked
    tally.failed += violations
    fit_rates, predict_rates = timed_loop(prepared, seconds, tally)
    metrics = {
        "setup_s": statistics.median(setup_reference),
        "train_samples_per_s": fit_rates.median("fit"),
        "predict_samples_per_s": predict_rates.median("predict"),
        "peak_mem_mb": peak / 2**20,
        "test_accuracy": accuracy,
    }
    details = {
        "setup_runs": len(setups),
        "setup_blocks": len(setup_reference),
        "setup_wall_s": statistics.median(setups),
        "fit_blocks": len(fit_rates.reference),
        "fit_wall_samples_per_s": statistics.median(fit_rates.wall),
        "predict_blocks": len(predict_rates.reference),
        "predict_wall_samples_per_s": statistics.median(predict_rates.wall),
        "checked_elements": checked,
        "check_violations": violations,
        "train_samples": len(prepared.x_train),
        "test_samples": len(prepared.x_test),
    }
    return metrics, tally, details


# --------------------------------------------------------------------------- #
# The traced run
# --------------------------------------------------------------------------- #


def unit(prepared: Prepared) -> None:
    """The traced unit of work: one warm fit call (training workloads) and
    one prediction over the test split."""
    if prepared.workload.dataset == "iris":
        fit(prepared, prepared.workload.fit_epochs)
    prepared.model.predict(prepared.x_test)


def _grid_cost(workload: Workload, captured: Dict) -> Tuple[int, int]:
    """Contractions and shared-prefix steps of the last executed grid sweep."""
    from repro.analysis.cost import estimate_cost
    from repro.analysis.equiv import shared_prefix_length

    program, bindings, plan = (captured.get(key) for key in ("program", "bindings", "plan"))
    if program is None or plan is None:
        return 0, 0
    prefix = 0
    if plan.shared_prefix:
        start, stop = next(plan.flat_tiles())
        prefix = shared_prefix_length(program, bindings[start:stop])
    engine = "density" if workload.engine == "noisy" else "statevector"
    cost = estimate_cost(program, plan, engine=engine, shared_prefix_steps=prefix)
    return int(cost.element_contractions), int(prefix)


def per_layer(workload: Workload, seed: int, seconds: float,
              memcpy_gbps: float) -> Tuple[Dict[str, float], Tally, Dict, object]:
    """The traced run: per-layer metrics over set-up plus the first unit.

    Counts are deterministic: they cover the cold set-up and the first warm
    unit, whatever the run length.  Further units alternate untraced and
    traced (wrappers removed in between) until ``seconds`` pass, and the
    difference of their median wall times is the tracing overhead.
    """
    from perfbench.tracer import Tracer, installed, layer_metrics, uncovered_fraction

    tally = Tally()
    tracer = Tracer()
    captured: Dict = {}
    with installed(tracer, captured):
        with tracer.span("setup") as setup_root:
            prepared = setup(workload, seed)
        with tracer.span("unit") as first_unit:
            tally.run(unit, prepared)
    tally.attempted += 1  # the set-up
    first_capture = dict(captured)
    traced = [tracer.spans[first_unit][2] - tracer.spans[first_unit][1]]
    untraced: List[float] = []
    start = time.perf_counter()
    while not untraced or time.perf_counter() < start + seconds:
        began = time.perf_counter()
        tally.run(unit, prepared)
        untraced.append(time.perf_counter() - began)
        if time.perf_counter() >= start + seconds:
            break
        with installed(tracer, captured):
            with tracer.span("unit") as root:
                tally.run(unit, prepared)
        traced.append(tracer.spans[root][2] - tracer.spans[root][1])

    fidelities = prepared.model.class_fidelities(prepared.x_test[: check_samples(prepared)])
    checked, violations = check(prepared, fidelities)
    tally.attempted += checked
    tally.failed += violations

    metrics = layer_metrics(tracer, [setup_root, first_unit])
    metrics["program.contractions"], metrics["program.shared_prefix_steps"] = _grid_cost(
        workload, first_capture
    )
    metrics["kernel.sv.roofline_frac"] = (
        metrics["kernel.sv.gbps"] / memcpy_gbps if memcpy_gbps else 0.0
    )
    metrics["env.memcpy_gbps"] = memcpy_gbps
    traced_s, untraced_s = statistics.median(traced), statistics.median(untraced)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    metrics["trace.uncovered_frac"] = uncovered_fraction(tracer, first_unit)
    details = {"traced_units": len(traced), "untraced_units": len(untraced),
               "checked_elements": checked, "check_violations": violations}
    return metrics, tally, details, tracer
