"""Sweep execution of :class:`DensityMatrixSimulator` against its ``run`` loop.

The noisy counterpart of ``test_run_batch.py``: a structure-sharing sweep
runs as one compiled grid program whose precomposed superoperators evolve
:class:`~repro.quantum.batched_density.BatchedDensityMatrix` tiles, and its
counts must be seed-identical (draw for draw) to a loop of
:meth:`DensityMatrixSimulator.run`, under gate noise and readout error alike.
"""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.noise import NoiseModel, ReadoutError, depolarizing_kraus
from repro.quantum.operations import Parameter
from repro.quantum.simulator import DensityMatrixSimulator

from readout_arrays import assert_probabilities_match, counts_rows, probability_rows

ANGLES = [Parameter(f"a{index}") for index in range(4)]


def sweep_circuit(angles, name="sweep") -> QuantumCircuit:
    """SWAP-test-shaped circuit: shared skeleton, per-call rotation angles."""
    qc = QuantumCircuit(3, 1, name=name)
    qc.h(0)
    qc.ry(angles[0], 1).rz(angles[1], 1)
    qc.ry(angles[2], 2).rz(angles[3], 2)
    qc.cswap(0, 1, 2)
    qc.h(0)
    qc.measure(0, 0)
    return qc


def random_rows(count, seed):
    return np.random.default_rng(seed).uniform(0, np.pi, size=(count, 4))


def sweep(simulator, rows, shots=None):
    """One compiled grid sweep of the symbolic circuit over ``rows``."""
    program = simulator._grid_program(sweep_circuit(ANGLES), ANGLES)
    return simulator.run_sweep_program(program, np.asarray(rows, dtype=float), shots=shots)


def loop(simulator, rows, shots):
    return [simulator.run(sweep_circuit(row), shots=shots) for row in rows]


def noisy_model() -> NoiseModel:
    return NoiseModel.from_error_rates(
        0.01, 0.05, readout_error=0.04, t1=50.0, t2=60.0, gate_time=0.1
    )


class TestVectorisedPath:
    def test_exact_probabilities_match_per_circuit_runs(self):
        rows = random_rows(7, seed=0)
        readout = sweep(DensityMatrixSimulator(noisy_model()), rows)
        singles = loop(DensityMatrixSimulator(noisy_model()), rows, None)
        assert_probabilities_match(readout, singles)

    def test_density_matrices_match_per_circuit_runs(self):
        rows = random_rows(4, seed=1)
        simulator = DensityMatrixSimulator(noisy_model())
        program = simulator._grid_program(sweep_circuit(ANGLES), ANGLES)
        state = program.evolve(rows, simulator._program_engine())
        for index, row in enumerate(rows):
            single = DensityMatrixSimulator(noisy_model()).run(sweep_circuit(row), shots=None)
            np.testing.assert_allclose(
                state.density_matrix(index).data, single.density_matrix.data, atol=1e-12
            )

    def test_sampled_counts_seed_match_the_loop(self):
        """One stacked multinomial call must consume the RNG like the loop."""
        rows = random_rows(6, seed=2)
        readout = sweep(DensityMatrixSimulator(noisy_model(), seed=11), rows, shots=500)
        looped = loop(DensityMatrixSimulator(noisy_model(), seed=11), rows, 500)
        np.testing.assert_array_equal(readout.counts, counts_rows(looped, 1))

    def test_seed_match_with_gate_noise_only(self):
        noise = NoiseModel().add_all_qubit_error(depolarizing_kraus(0.02), 1)
        rows = random_rows(5, seed=3)
        readout = sweep(DensityMatrixSimulator(noise, seed=5), rows, shots=256)
        looped = loop(DensityMatrixSimulator(noise, seed=5), rows, 256)
        np.testing.assert_array_equal(readout.counts, counts_rows(looped, 1))

    def test_seed_match_with_readout_error_only(self):
        noise = NoiseModel().add_readout_error(ReadoutError(0.08, 0.03))
        rows = random_rows(5, seed=4)
        readout = sweep(DensityMatrixSimulator(noise, seed=6), rows, shots=256)
        looped = loop(DensityMatrixSimulator(noise, seed=6), rows, 256)
        np.testing.assert_array_equal(readout.counts, counts_rows(looped, 1))
        np.testing.assert_allclose(readout.probabilities, probability_rows(looped, 1))

    def test_ideal_model_matches_loop(self):
        rows = random_rows(4, seed=5)
        readout = sweep(DensityMatrixSimulator(seed=3), rows, shots=128)
        looped = loop(DensityMatrixSimulator(seed=3), rows, 128)
        np.testing.assert_array_equal(readout.counts, counts_rows(looped, 1))

    def test_identical_parameters_share_one_matrix(self):
        rows = np.tile([0.3, 0.7, 0.3, 0.7], (3, 1))
        readout = sweep(DensityMatrixSimulator(noisy_model()), rows)
        single = DensityMatrixSimulator(noisy_model()).run(sweep_circuit(rows[0]), shots=None)
        assert_probabilities_match(readout, [single] * len(rows))

    def test_batched_metadata_marks_the_vectorised_engine(self):
        """Repeat sweeps reuse one compiled program and one noise plan."""
        simulator = DensityMatrixSimulator(noisy_model())
        sweep(simulator, random_rows(2, seed=6))
        sweep(simulator, random_rows(2, seed=7))
        assert simulator.program_cache_stats == {"hits": 1, "misses": 1, "entries": 1}
        assert simulator._program_engine().plans_compiled == 1


class TestFallbacks:
    def test_mixed_structures_fall_back_to_the_loop(self):
        """A second structure compiles its own program; both match ``run``."""
        bell = QuantumCircuit(3, 1, name="bell")
        bell.h(0).cx(0, 1).measure(0, 0)
        simulator = DensityMatrixSimulator(noisy_model())
        sweep(simulator, random_rows(1, seed=8))
        readout = simulator.run_sweep_program(
            simulator._grid_program(bell, []), np.zeros((1, 0)), shots=None
        )
        assert simulator.program_cache_stats["entries"] == 2
        single = DensityMatrixSimulator(noisy_model()).run(bell, shots=None)
        assert_probabilities_match(readout, [single])

    def test_reset_circuits_fall_back_to_the_loop(self):
        """Resets cannot be compiled into a sweep; ``run`` still executes them."""
        qc = QuantumCircuit(2, 1, name="with_reset")
        qc.h(0).reset(0).measure(0, 0)
        simulator = DensityMatrixSimulator(seed=0)
        with pytest.raises(SimulationError):
            simulator._grid_program(qc, [])
        assert simulator.run(qc, shots=64).counts.shots == 64

    def test_fallback_sampling_seed_matches_the_loop(self):
        """Sweeps of two structures share one RNG stream exactly like ``run``."""
        bell = QuantumCircuit(3, 1, name="bell")
        bell.h(0).cx(0, 1).measure(0, 0)
        row = [0.1, 0.2, 0.3, 0.4]
        simulator = DensityMatrixSimulator(noisy_model(), seed=4)
        swept = np.concatenate([
            sweep(simulator, [row], shots=128).counts,
            simulator.run_sweep_program(
                simulator._grid_program(bell, []), np.zeros((1, 0)), shots=128
            ).counts,
        ])
        loop_sim = DensityMatrixSimulator(noisy_model(), seed=4)
        looped = [loop_sim.run(circuit, shots=128) for circuit in (sweep_circuit(row), bell)]
        np.testing.assert_array_equal(swept, counts_rows(looped, 1))


class TestValidation:
    def test_empty_batch_yields_empty_results(self):
        readout = sweep(DensityMatrixSimulator(), np.zeros((0, 4)), shots=64)
        assert readout.probabilities.shape == (0, 2)
        assert readout.counts.shape == (0, 2)

    def test_zero_shots_rejected(self):
        with pytest.raises(SimulationError):
            sweep(DensityMatrixSimulator(), random_rows(2, seed=7), shots=0)

    def test_unbound_parameters_rejected(self):
        theta = Parameter("t")
        qc = QuantumCircuit(1, 1)
        qc.ry(theta, 0).measure(0, 0)
        with pytest.raises(SimulationError):
            DensityMatrixSimulator().run(qc, shots=None)
        simulator = DensityMatrixSimulator()
        program = simulator._grid_program(qc, [theta])
        with pytest.raises(SimulationError):
            simulator.run_sweep_program(program, np.zeros((2, 0)), shots=None)

    def test_shots_without_measurement_rejected(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        simulator = DensityMatrixSimulator()
        with pytest.raises(SimulationError):
            simulator.run_sweep_program(
                simulator._grid_program(qc, []), np.zeros((2, 0)), shots=16
            )

    def test_double_measurement_rejected_in_batch(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0).measure(0, 0).measure(0, 1)
        with pytest.raises(SimulationError):
            DensityMatrixSimulator()._grid_program(qc, [])
