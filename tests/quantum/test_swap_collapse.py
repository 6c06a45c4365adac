"""The certified SWAP-test collapse on the noise-free statevector sweep path.

A sweep program that VER405 certifies as the canonical SWAP test runs as
the overlap of its two ``n``-qubit registers, ``P(ancilla = 0) =
(1 + |<a|b>|^2) / 2``, instead of the full ``2n + 1``-qubit circuit.  The
contract is the same as the circuit path's: sampled readouts match the
per-circuit :meth:`~repro.quantum.backend.Backend.run` loop draw for draw,
exact readouts match the circuit to ``1e-12``, memory stays bounded, and
any program that is not the canonical SWAP test, plus any sweep with a
near-unit fidelity, keeps the circuit path.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.analysis.equiv import verify_swap_test
from repro.core.model import QuClassi
from repro.datasets import generate_synthetic_mnist, load_iris, prepare_task
from repro.hardware import ibmq_london
from repro.quantum import gates as gate_library
from repro.quantum import simulator
from repro.quantum.backend import Backend, IdealBackend, SampledBackend
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.operations import Parameter
from repro.quantum.program import (
    OPTIMIZE_PROGRAMS_ENV,
    StatevectorEngine,
    SweepProgram,
    TilePlan,
)
from repro.quantum.register import ClassicalRegister, QuantumRegister

SHOTS = 1024
IRIS_ROWS = 17
#: Amplitude budgets of the Iris grid's tile plan: one-element collapse
#: chunks, 128-element chunks, and the whole grid in one chunk.
IRIS_BUDGETS = (2**2, 2**10, 2**23)
ABLATION_SHOTS = (128, 512, 2048, 8192)


class Grid:
    """One symbolic discriminator plus the bindings of a whole-grid sweep."""

    def __init__(self, builder, parameter_matrix, features):
        self.builder = builder
        self.circuit = builder.symbolic_discriminator()
        self.parameters = builder.grid_parameters
        self.bindings = builder.grid_bindings(parameter_matrix, features)
        self.rows = parameter_matrix.shape[0]
        self.samples = features.shape[0]

    def sweep(self, backend, tile_plan=None, shots=None):
        return backend.sweep_grid_zero_probabilities(
            self.circuit, self.parameters, self.bindings, shots=shots, tile_plan=tile_plan
        )

    def run_loop(self, backend, shots=None):
        """The reference: bind and ``run`` one circuit per grid element."""
        return Backend.sweep_grid_zero_probabilities(
            backend, self.circuit, self.parameters, self.bindings, shots=shots
        )

    def circuit_readout(self):
        program = SweepProgram.compile(
            self.circuit, bind_floats=False, parameters=self.parameters
        )
        return program.execute(self.bindings, StatevectorEngine())[:, 0]


@pytest.fixture(scope="module")
def iris_model():
    return QuClassi(num_features=4, num_classes=3, architecture="s", seed=0)


@pytest.fixture(scope="module")
def iris_data():
    return prepare_task(load_iris(), n_components=None, rng=0)


@pytest.fixture(scope="module")
def iris_grid(iris_model, iris_data):
    """The Iris 17 x 45 grid: shift-style rows by the whole test split."""
    rng = np.random.default_rng(0)
    rows = rng.uniform(0, np.pi, size=(IRIS_ROWS, iris_model.parameters_per_class))
    return Grid(iris_model.builder, rows, iris_data.x_test)


@pytest.fixture(scope="module")
def iris_loop(iris_grid):
    return iris_grid.run_loop(SampledBackend(shots=SHOTS, seed=0))


@pytest.fixture(scope="module")
def mnist_grid():
    """A 2 x 4 grid of 17-qubit MNIST-16 discriminators."""
    data = prepare_task(
        generate_synthetic_mnist(digits=(3, 6), samples_per_digit=16, rng=0),
        n_components=16,
        rng=0,
    )
    model = QuClassi(num_features=16, num_classes=2, architecture="s", seed=0)
    assert model.num_qubits == 17
    rng = np.random.default_rng(1)
    rows = rng.uniform(0, np.pi, size=(2, model.parameters_per_class))
    return Grid(model.builder, rows, data.x_train[:4])


@pytest.fixture()
def circuit_sweeps(monkeypatch):
    """Counts full-circuit executions (``SweepProgram.execute`` calls)."""
    calls = []
    original = SweepProgram.execute

    def counting(self, *args, **kwargs):
        calls.append(self.name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SweepProgram, "execute", counting)
    return calls


class TestSampledCountsMatchTheRunLoop:
    @pytest.mark.parametrize("budget", IRIS_BUDGETS)
    def test_iris_grid_under_every_tile_budget(
        self, iris_grid, iris_loop, budget, circuit_sweeps
    ):
        plan = TilePlan.for_grid_sweep(
            iris_grid.rows, iris_grid.samples, 2**iris_grid.circuit.num_qubits, budget
        )
        swept = iris_grid.sweep(SampledBackend(shots=SHOTS, seed=0), tile_plan=plan)
        np.testing.assert_array_equal(swept, iris_loop)
        assert circuit_sweeps == []

    @pytest.mark.parametrize("optimize", ["0", "1"])
    def test_iris_grid_with_and_without_fusion(
        self, iris_grid, iris_loop, optimize, monkeypatch, circuit_sweeps
    ):
        monkeypatch.setenv(OPTIMIZE_PROGRAMS_ENV, optimize)
        swept = iris_grid.sweep(SampledBackend(shots=SHOTS, seed=0))
        np.testing.assert_array_equal(swept, iris_loop)
        assert circuit_sweeps == []

    @pytest.mark.parametrize("shots", ABLATION_SHOTS)
    def test_shots_ablation_shot_counts(
        self, iris_model, iris_data, shots, circuit_sweeps
    ):
        grid = Grid(iris_model.builder, iris_model.parameters_, iris_data.x_test[:10])
        swept = grid.sweep(IdealBackend(seed=0), shots=shots)
        looped = grid.run_loop(IdealBackend(seed=0), shots=shots)
        np.testing.assert_array_equal(swept, looped)
        assert circuit_sweeps == []

    def test_mnist16_grid(self, mnist_grid, circuit_sweeps):
        swept = mnist_grid.sweep(SampledBackend(shots=SHOTS, seed=3))
        looped = mnist_grid.run_loop(SampledBackend(shots=SHOTS, seed=3))
        np.testing.assert_array_equal(swept, looped)
        assert circuit_sweeps == []


class TestExactReadout:
    @pytest.mark.parametrize("grid_name", ["iris_grid", "mnist_grid"])
    def test_ideal_backend_matches_the_circuit_program(self, grid_name, request):
        grid = request.getfixturevalue(grid_name)
        exact = grid.sweep(IdealBackend(), shots=None)
        np.testing.assert_allclose(exact, grid.circuit_readout(), rtol=0, atol=1e-12)

    def test_seventeen_qubit_sweep_stays_below_one_full_statevector(self, mnist_grid):
        backend = SampledBackend(shots=SHOTS, seed=0)
        mnist_grid.sweep(backend)  # compile and certify outside the trace
        tracemalloc.start()
        mnist_grid.sweep(backend)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        one_statevector = 2**17 * np.dtype(np.complex128).itemsize
        assert peak < one_statevector


class TestNearUnitFidelityGuard:
    """Trained angles equal to the data angles: F = 1 up to rounding.

    Near ``F = 1`` the collapse can round to ``F >= 1`` and drop outcome
    ``"1"`` where the circuit keeps a tiny probability; the outcome key sets
    then differ and the sampler's RNG stream with them.  The guard sends
    such sweeps to the circuit path, which matches the run loop.
    """

    @pytest.mark.parametrize("delta", [0.0, 1e-9, 3e-8])
    def test_near_unit_grid_matches_the_run_loop(
        self, iris_model, iris_data, delta, circuit_sweeps
    ):
        features = iris_data.x_test[:6]
        trained = iris_model.builder.encoder.angle_matrix(features) + delta
        grid = Grid(iris_model.builder, trained, features)
        swept = grid.sweep(SampledBackend(shots=SHOTS, seed=11))
        looped = grid.run_loop(SampledBackend(shots=SHOTS, seed=11))
        np.testing.assert_array_equal(swept, looped)
        assert len(circuit_sweeps) == 1


def swap_test_circuit(mutation=None):
    """A 5-qubit SWAP-test discriminator, optionally with one defect.

    Ancilla 0; register A = qubits 1, 2; register B = qubits 3, 4.
    """
    angles = [Parameter(f"x{index}") for index in range(4)]
    measured_data = mutation == "measured data qubit"
    circuit = QuantumCircuit(
        QuantumRegister(5, "q"), ClassicalRegister(2 if measured_data else 1, "c")
    )
    circuit.h(0)
    for qubit, angle in zip((1, 2, 3, 4), angles):
        circuit.ry(angle, qubit)
    circuit.cx(1, 2).cx(3, 4)
    if mutation == "cx across registers":
        circuit.cx(2, 3)
    if mutation == "overlapping pairs":
        circuit.cswap(0, 1, 3).cswap(0, 1, 4)
    else:
        circuit.cswap(0, 1, 3)
        if mutation == "rz on ancilla between cswaps":
            circuit.rz(0.3, 0)
        circuit.cswap(0, 2, 4)
    if mutation == "register gate after cswaps":
        circuit.ry(0.2, 1)
    if mutation != "missing final h":
        circuit.h(0)
    circuit.measure(0, 0)
    if measured_data:
        circuit.measure(3, 1)
    return circuit, angles


MUTATIONS = [
    "rz on ancilla between cswaps",
    "measured data qubit",
    "cx across registers",
    "register gate after cswaps",
    "overlapping pairs",
    "missing final h",
]


def compile_small(mutation=None) -> SweepProgram:
    circuit, angles = swap_test_circuit(mutation)
    return SweepProgram.compile(circuit, bind_floats=False, parameters=angles)


def small_sweep(backend_factory, mutation=None, seed=5):
    circuit, angles = swap_test_circuit(mutation)
    bindings = np.random.default_rng(seed).uniform(0, np.pi, size=(12, 4))
    swept = backend_factory().sweep_grid_zero_probabilities(circuit, angles, bindings)
    looped = Backend.sweep_grid_zero_probabilities(
        backend_factory(), circuit, angles, bindings
    )
    return swept, looped


class TestFailClosed:
    def test_canonical_swap_test_certifies_and_collapses(self, circuit_sweeps):
        assert verify_swap_test(compile_small()) == []
        swept, looped = small_sweep(lambda: SampledBackend(shots=SHOTS, seed=2))
        np.testing.assert_array_equal(swept, looped)
        assert circuit_sweeps == []

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_mutated_discriminator_raises_ver405(self, mutation):
        findings = verify_swap_test(compile_small(mutation))
        assert findings
        assert {finding.code for finding in findings} == {"VER405"}

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_mutated_discriminator_keeps_the_circuit_path(self, mutation, circuit_sweeps):
        swept, looped = small_sweep(lambda: SampledBackend(shots=SHOTS, seed=2), mutation)
        np.testing.assert_array_equal(swept, looped)
        assert len(circuit_sweeps) == 1

    def test_gate_names_are_not_trusted(self):
        """A step named ``h`` whose matrix is not H fails the certificate."""
        program = compile_small()
        first = program.steps[0]
        assert first.name == "h" and first.qubits == (0,)
        spoofed = dataclasses.replace(first, matrix=gate_library.gate_matrix("ry", np.pi / 2))
        findings = verify_swap_test(program._with_steps((spoofed,) + program.steps[1:]))
        assert [finding.code for finding in findings] == ["VER405"]
        assert "not a fixed H" in findings[0].message

    def test_noisy_backend_never_collapses(self, circuit_sweeps):
        swept, looped = small_sweep(lambda: ibmq_london(seed=4))
        np.testing.assert_array_equal(swept, looped)
        assert len(circuit_sweeps) == 1

    def test_density_engine_never_collapses(self, circuit_sweeps):
        circuit, angles = swap_test_circuit()
        program = SweepProgram.compile(circuit, bind_floats=False, parameters=angles)
        bindings = np.random.default_rng(6).uniform(0, np.pi, size=(3, 4))
        simulator.DensityMatrixSimulator(seed=0).run_sweep_program(
            program, bindings, shots=SHOTS
        )
        assert len(circuit_sweeps) == 1

    def test_certificate_runs_once_per_program(self, monkeypatch):
        from repro.analysis import equiv

        calls = []
        original = equiv.verify_swap_test
        monkeypatch.setattr(
            equiv, "verify_swap_test", lambda program: calls.append(1) or original(program)
        )
        circuit, angles = swap_test_circuit()
        backend = SampledBackend(shots=SHOTS, seed=0)
        bindings = np.random.default_rng(7).uniform(0, np.pi, size=(2, 4))
        for _ in range(3):
            backend.sweep_grid_zero_probabilities(circuit, angles, bindings)
        assert len(calls) == 1
