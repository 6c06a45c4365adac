"""The certified read-out fold of the density engine (VER406).

Every step after a noisy program's last bind site is a fixed superoperator,
so the whole tail is one fixed linear map ``S`` and ``Tr(E_j S(rho)) =
Tr(S†(E_j) rho)``.  :class:`~repro.quantum.program.DensitySuperoperatorEngine`
folds the tail into per-outcome effects once per program, and each tile
evolves only up to the tail.  The contract is the forward path's: exact
read-outs agree within ``1e-12``, sampled counts match the forward path and
the per-circuit :meth:`~repro.quantum.backend.Backend.run` loop draw for
draw, and every case the fold cannot certify or afford runs the tail
forward.
"""

import numpy as np
import pytest

from repro.analysis import equiv
from repro.analysis.equiv import verify_readout_fold
from repro.analysis.verify import REPRO_VERIFY_ENV
from repro.core.model import QuClassi
from repro.datasets import load_iris, prepare_task
from repro.exceptions import SimulationError
from repro.hardware import ibmq_london
from repro.hardware.calibration import get_calibration
from repro.quantum import program as program_module
from repro.quantum.backend import Backend
from repro.quantum.batched_density import BatchedDensityMatrix
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.noise import NoiseModel, depolarizing_kraus
from repro.quantum.operations import Parameter
from repro.quantum.program import (
    DensitySuperoperatorEngine,
    ReadoutFold,
    SweepProgram,
    TilePlan,
    fold_readout,
)
from repro.quantum.simulator import DensityMatrixSimulator
from repro.quantum.transpiler import TranspileCache

SHOTS = 1024
GRID = 8
#: Amplitude budgets of the Iris noisy grid's tile plan (one element is a
#: 5-qubit density matrix of 4**5 amplitudes): 2-, 3- and 8-element tiles.
#: Each fits the 2 x 4**5 effect stack.
IRIS_BUDGETS = (2 * 4**5, 3 * 4**5, 2**16)


@pytest.fixture(scope="module")
def iris_model():
    return QuClassi(num_features=4, num_classes=3, architecture="s", seed=0)


@pytest.fixture(scope="module")
def iris_grid(iris_model):
    """The Iris 8 x 8 grid: random trained rows by eight test samples."""
    data = prepare_task(load_iris(), n_components=None, rng=0)
    rows = np.random.default_rng(0).uniform(
        0, np.pi, size=(GRID, iris_model.parameters_per_class)
    )
    return iris_model.builder.grid_bindings(rows, data.x_test[:GRID])


def london_noise() -> NoiseModel:
    return get_calibration("ibmq_london").noise_model()


def noisy_grid_program(builder, *, optimize=False, noise=None) -> SweepProgram:
    """The program ``NoisyBackend`` sweeps: the symbolic transpile template's."""
    entry = TranspileCache().symbolic_template(
        builder.symbolic_discriminator(), builder.grid_parameters
    )
    return entry.ensure_program(optimize=optimize, noise_model=noise)


def forward(program, bindings, engine) -> np.ndarray:
    """The reference: every step evolved, then the engine's read-out."""
    return engine.joint_probabilities(
        program.evolve(bindings, engine), program.measured_qubits
    )


def grid_plan(program, budget) -> TilePlan:
    return TilePlan.for_grid_sweep(GRID, GRID, 4**program.num_qubits, budget)


@pytest.fixture()
def fold_reads(monkeypatch):
    """Counts fold read-outs (``BatchedDensityMatrix.effect_expectations``)."""
    calls = []
    original = BatchedDensityMatrix.effect_expectations

    def counting(self, weights):
        calls.append(self.batch_size)
        return original(self, weights)

    monkeypatch.setattr(BatchedDensityMatrix, "effect_expectations", counting)
    return calls


@pytest.fixture()
def forward_reads(monkeypatch):
    """Counts forward read-outs (``DensitySuperoperatorEngine.joint_probabilities``)."""
    calls = []
    original = DensitySuperoperatorEngine.joint_probabilities

    def counting(self, state, measured_qubits):
        calls.append(state.batch_size)
        return original(self, state, measured_qubits)

    monkeypatch.setattr(DensitySuperoperatorEngine, "joint_probabilities", counting)
    return calls


def without_fold(monkeypatch):
    monkeypatch.setattr(
        DensitySuperoperatorEngine, "readout_fold", lambda self, program: None
    )


class TestFoldMatchesTheForwardTail:
    @pytest.mark.parametrize("optimize", [False, True], ids=["unfused", "fused"])
    @pytest.mark.parametrize("budget", IRIS_BUDGETS)
    def test_iris_grid_under_every_tile_budget(
        self, iris_model, iris_grid, budget, optimize, fold_reads
    ):
        noise = london_noise()
        program = noisy_grid_program(iris_model.builder, optimize=optimize, noise=noise)
        engine = DensitySuperoperatorEngine(noise)
        assert engine.readout_fold(program) is not None
        fold_reads.clear()  # the certificate's probe read-out
        plan = grid_plan(program, budget)
        folded = program.execute(iris_grid, engine, tile_plan=plan)
        assert sum(fold_reads) == GRID * GRID
        np.testing.assert_allclose(
            folded, forward(program, iris_grid, engine), rtol=0, atol=1e-12
        )

    def test_tail_starts_after_the_last_bind_site(self, iris_model):
        program = noisy_grid_program(iris_model.builder)
        fold = DensitySuperoperatorEngine(london_noise()).readout_fold(program)
        last_bind = max(
            index for index, step in enumerate(program.steps) if not step.is_fixed
        )
        assert fold.tail_start == last_bind + 1 < len(program.steps)
        assert fold.weights.shape == (2, 4**program.num_qubits)

    def test_untiled_execution_folds(self, iris_model, iris_grid, fold_reads):
        noise = london_noise()
        program = noisy_grid_program(iris_model.builder)
        engine = DensitySuperoperatorEngine(noise)
        assert engine.readout_fold(program) is not None
        fold_reads.clear()  # the certificate's probe read-out
        folded = program.execute(iris_grid, engine)
        assert fold_reads == [GRID * GRID]
        np.testing.assert_allclose(
            folded, forward(program, iris_grid, engine), rtol=0, atol=1e-12
        )


class TestSampledCounts:
    def sweep(self, iris_model, iris_grid, backend):
        builder = iris_model.builder
        return backend.sweep_grid_zero_probabilities(
            builder.symbolic_discriminator(),
            builder.grid_parameters,
            iris_grid,
            shots=SHOTS,
            tile_plan=grid_plan(
                noisy_grid_program(builder), IRIS_BUDGETS[1]
            ),
        )

    def test_fold_matches_the_forward_path(
        self, iris_model, iris_grid, monkeypatch, fold_reads
    ):
        folded = self.sweep(iris_model, iris_grid, ibmq_london(seed=3))
        assert fold_reads
        without_fold(monkeypatch)
        unfolded = self.sweep(iris_model, iris_grid, ibmq_london(seed=3))
        np.testing.assert_array_equal(folded, unfolded)

    def test_fold_matches_the_run_loop(self, iris_model, iris_grid):
        folded = self.sweep(iris_model, iris_grid, ibmq_london(seed=4))
        builder = iris_model.builder
        looped = Backend.sweep_grid_zero_probabilities(
            ibmq_london(seed=4),
            builder.symbolic_discriminator(),
            builder.grid_parameters,
            iris_grid,
            shots=SHOTS,
        )
        np.testing.assert_array_equal(folded, looped)


class TestFoldCache:
    def test_in_place_noise_mutation_refolds(self, iris_model, iris_grid):
        noise = london_noise()
        program = noisy_grid_program(iris_model.builder)
        engine = DensitySuperoperatorEngine(noise)
        before = engine.readout_fold(program)
        program.execute(iris_grid, engine)
        noise.add_all_qubit_error(depolarizing_kraus(0.05, 1), 1)
        after = engine.readout_fold(program)
        assert after is not before
        assert not np.allclose(after.weights, before.weights)
        assert engine.plans_compiled == 2
        np.testing.assert_allclose(
            program.execute(iris_grid, engine),
            forward(program, iris_grid, engine),
            rtol=0,
            atol=1e-12,
        )

    def test_fold_and_certificate_run_once_per_program(
        self, iris_model, iris_grid, monkeypatch
    ):
        folds, certificates = [], []
        original_fold = program_module.fold_readout
        original_certificate = equiv.verify_readout_fold
        monkeypatch.setattr(
            program_module,
            "fold_readout",
            lambda *args: folds.append(1) or original_fold(*args),
        )
        monkeypatch.setattr(
            equiv,
            "verify_readout_fold",
            lambda *args: certificates.append(1) or original_certificate(*args),
        )
        backend = ibmq_london(seed=0)
        builder = iris_model.builder
        for _ in range(3):
            backend.sweep_grid_zero_probabilities(
                builder.symbolic_discriminator(), builder.grid_parameters, iris_grid
            )
        assert folds == [1]
        assert certificates == [1]


def small_circuit(bound_last=False):
    """A 3-qubit SWAP test with one angle per register qubit.

    ``bound_last`` appends a bound rotation on the ancilla right before the
    measurement, so the program has no fixed tail.
    """
    angles = [Parameter(f"x{index}") for index in range(3 if bound_last else 2)]
    circuit = QuantumCircuit(3, 1)
    circuit.h(0).ry(angles[0], 1).ry(angles[1], 2)
    circuit.cswap(0, 1, 2).h(0)
    if bound_last:
        circuit.rz(angles[2], 0)
    circuit.measure(0, 0)
    return circuit, angles


def small_noise() -> NoiseModel:
    noise = NoiseModel()
    noise.add_all_qubit_error(depolarizing_kraus(0.03, 1), 1)
    noise.add_all_qubit_error(depolarizing_kraus(0.06, 3), 3)
    return noise


def compile_small(bound_last=False) -> SweepProgram:
    circuit, angles = small_circuit(bound_last)
    return SweepProgram.compile(circuit, bind_floats=False, parameters=angles)


def small_bindings(program, rows=6, seed=5) -> np.ndarray:
    return np.random.default_rng(seed).uniform(
        0, np.pi, size=(rows, program.num_columns)
    )


class HalvedStep(DensitySuperoperatorEngine):
    """An engine whose plan for one ``target`` step loses half the trace."""

    def __init__(self, noise_model, target):
        super().__init__(noise_model)
        self.target = target

    def _plan_step(self, step):
        kind, superop = super()._plan_step(step)
        return (kind, 0.5 * superop) if step is self.target else (kind, superop)


class TestFailClosed:
    def test_canonical_program_certifies(self):
        program = compile_small()
        plans = DensitySuperoperatorEngine(small_noise()).step_plans(program)
        fold = fold_readout(program, plans)
        assert fold.tail_start == 3
        assert verify_readout_fold(program, plans, fold) == []

    def test_bound_last_step_has_no_tail(self, fold_reads):
        program = compile_small(bound_last=True)
        engine = DensitySuperoperatorEngine(small_noise())
        assert fold_readout(program, engine.step_plans(program)) is None
        assert engine.readout_fold(program) is None
        bindings = small_bindings(program)
        np.testing.assert_array_equal(
            program.execute(bindings, engine), forward(program, bindings, engine)
        )
        assert fold_reads == []

    def test_non_trace_preserving_tail_raises_ver406(self, monkeypatch, fold_reads):
        # The full-level CPTP plan check would reject the hand-built plan
        # before the fold is built (see the next test); VER406 is the gate
        # at the default level.
        monkeypatch.delenv(REPRO_VERIFY_ENV, raising=False)
        program = compile_small()
        engine = HalvedStep(small_noise(), target=program.steps[-1])
        plans = engine.step_plans(program)
        findings = verify_readout_fold(program, plans, fold_readout(program, plans))
        assert {finding.code for finding in findings} == {"VER406"}
        assert "does not preserve trace" in findings[0].message
        assert engine.readout_fold(program) is None
        bindings = small_bindings(program)
        np.testing.assert_array_equal(
            program.execute(bindings, engine), forward(program, bindings, engine)
        )
        assert fold_reads == []

    def test_full_verification_rejects_the_plan_first(self, monkeypatch):
        monkeypatch.setenv(REPRO_VERIFY_ENV, "1")
        program = compile_small()
        engine = HalvedStep(small_noise(), target=program.steps[-1])
        with pytest.raises(SimulationError):
            engine.readout_fold(program)

    def test_parametric_tail_step_raises_ver406(self):
        program = compile_small()
        plans = DensitySuperoperatorEngine(small_noise()).step_plans(program)
        fold = fold_readout(program, plans)
        early = ReadoutFold(tail_start=fold.tail_start - 1, weights=fold.weights)
        findings = verify_readout_fold(program, plans, early)
        assert [finding.code for finding in findings] == ["VER406"]
        assert "parametric plan" in findings[0].message

    def test_swapped_outcomes_fail_the_probes(self):
        """Swapped effects still sum to I and are Hermitian; the probes catch it."""
        program = compile_small()
        plans = DensitySuperoperatorEngine(small_noise()).step_plans(program)
        fold = fold_readout(program, plans)
        swapped = ReadoutFold(fold.tail_start, fold.weights[::-1].copy())
        findings = verify_readout_fold(program, plans, swapped)
        assert [finding.code for finding in findings] == ["VER406"]
        assert "probe states" in findings[0].message

    def test_budget_below_the_effect_stack_runs_forward(
        self, iris_model, iris_grid, monkeypatch, fold_reads
    ):
        noise = london_noise()
        program = noisy_grid_program(iris_model.builder)
        engine = DensitySuperoperatorEngine(noise)
        assert engine.readout_fold(program).weights.size == 2 * 4**program.num_qubits
        fold_reads.clear()  # the certificate's probe read-out
        plan = grid_plan(program, 4**program.num_qubits)
        swept = program.execute(iris_grid, engine, tile_plan=plan)
        assert fold_reads == []
        without_fold(monkeypatch)
        np.testing.assert_array_equal(
            swept, program.execute(iris_grid, engine, tile_plan=plan)
        )

    @pytest.mark.parametrize("shots", [None, SHOTS])
    def test_zero_probability_outcome_runs_the_tail_forward(
        self, shots, monkeypatch, fold_reads, forward_reads
    ):
        """Equal registers under an ideal model: ``P(ancilla = 1) = 0``.

        The fold can clip that outcome to exactly zero where the forward
        tail keeps a rounding-sized probability; the guard sends the tile
        forward so the outcome key sets, and the sampler, match.
        """
        program = compile_small()
        same = np.linspace(0.1, 1.4, 6)
        bindings = np.stack([same, same], axis=1)

        def sweep():
            simulator = DensityMatrixSimulator(NoiseModel.ideal(), seed=9)
            readout = simulator.run_sweep_program(program, bindings, shots=shots)
            return readout.marginal_probabilities(0, 0), readout.probabilities

        guarded, guarded_probabilities = sweep()
        assert fold_reads and forward_reads == [len(bindings)]
        without_fold(monkeypatch)
        unfolded, unfolded_probabilities = sweep()
        np.testing.assert_array_equal(guarded, unfolded)
        np.testing.assert_array_equal(guarded_probabilities, unfolded_probabilities)
