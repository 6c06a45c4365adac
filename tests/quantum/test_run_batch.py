"""Sweep execution of :class:`StatevectorSimulator` against its ``run`` loop.

A structure-sharing sweep runs as one compiled grid program
(``_grid_program`` + ``run_sweep_program``); every element must match a
loop of :meth:`StatevectorSimulator.run` over the bound circuits —
probabilities to float noise, sampled counts draw for draw.
"""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.operations import Parameter
from repro.quantum.program import StatevectorEngine, SweepProgram
from repro.quantum.simulator import StatevectorSimulator

from readout_arrays import assert_probabilities_match, counts_rows

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


class TestVectorisedPath:
    def test_exact_probabilities_match_per_circuit_runs(self):
        rows = random_rows(9, seed=0)
        readout = sweep(StatevectorSimulator(), rows)
        singles = [StatevectorSimulator().run(sweep_circuit(row), shots=None) for row in rows]
        assert_probabilities_match(readout, singles)

    def test_statevectors_match_per_circuit_runs(self):
        rows = random_rows(4, seed=1)
        program = SweepProgram.compile(
            sweep_circuit(ANGLES), bind_floats=False, parameters=ANGLES
        )
        state = program.evolve(rows, StatevectorEngine())
        for index, row in enumerate(rows):
            single = StatevectorSimulator().run(sweep_circuit(row), shots=None)
            np.testing.assert_allclose(
                state.statevector(index).data, single.statevector.data, atol=1e-12
            )

    def test_sampled_counts_seed_match_the_loop(self):
        """One stacked multinomial call must consume the RNG like the loop."""
        rows = random_rows(6, seed=2)
        readout = sweep(StatevectorSimulator(seed=11), rows, shots=500)
        loop_sim = StatevectorSimulator(seed=11)
        looped = [loop_sim.run(sweep_circuit(row), shots=500) for row in rows]
        np.testing.assert_array_equal(readout.counts, counts_rows(looped, 1))

    def test_identical_parameters_share_one_matrix(self):
        """All-equal angles take the shared-matrix branch and stay correct."""
        rows = np.tile([0.3, 0.7, 0.3, 0.7], (3, 1))
        readout = sweep(StatevectorSimulator(), rows)
        single = StatevectorSimulator().run(sweep_circuit(rows[0]), shots=None)
        assert_probabilities_match(readout, [single] * len(rows))

    def test_batched_metadata_marks_the_vectorised_engine(self):
        """Repeat sweeps of one structure reuse one compiled program."""
        simulator = StatevectorSimulator()
        sweep(simulator, random_rows(2, seed=3))
        sweep(simulator, random_rows(2, seed=4))
        assert simulator.program_cache_stats == {"hits": 1, "misses": 1, "entries": 1}


class TestFallbacks:
    def test_mixed_structures_fall_back_to_the_loop(self):
        """A second structure compiles its own program; both match ``run``."""
        bell = QuantumCircuit(3, 1, name="bell")
        bell.h(0).cx(0, 1).measure(0, 0)
        simulator = StatevectorSimulator()
        sweep(simulator, random_rows(1, seed=5))
        readout = simulator.run_sweep_program(
            simulator._grid_program(bell, []), np.zeros((1, 0)), shots=None
        )
        assert simulator.program_cache_stats["entries"] == 2
        single = StatevectorSimulator().run(bell, shots=None)
        assert_probabilities_match(readout, [single])

    def test_reset_circuits_fall_back_to_the_loop(self):
        """Resets cannot be compiled into a sweep; ``run`` still executes them."""
        qc = QuantumCircuit(2, 1, name="with_reset")
        qc.h(0).reset(0).measure(0, 0)
        simulator = StatevectorSimulator(seed=0)
        with pytest.raises(SimulationError):
            simulator._grid_program(qc, [])
        assert simulator.run(qc, shots=64).counts.shots == 64

    def test_fallback_sampling_seed_matches_the_loop(self):
        """Sweeps of two structures share one RNG stream exactly like ``run``."""
        bell = QuantumCircuit(3, 1, name="bell")
        bell.h(0).cx(0, 1).measure(0, 0)
        row = [0.1, 0.2, 0.3, 0.4]
        simulator = StatevectorSimulator(seed=4)
        swept = np.concatenate([
            sweep(simulator, [row], shots=128).counts,
            simulator.run_sweep_program(
                simulator._grid_program(bell, []), np.zeros((1, 0)), shots=128
            ).counts,
        ])
        loop_sim = StatevectorSimulator(seed=4)
        looped = [loop_sim.run(circuit, shots=128) for circuit in (sweep_circuit(row), bell)]
        np.testing.assert_array_equal(swept, counts_rows(looped, 1))


class TestValidation:
    def test_empty_batch_yields_empty_results(self):
        readout = sweep(StatevectorSimulator(), np.zeros((0, 4)))
        assert readout.probabilities.shape == (0, 2)
        assert readout.counts is None
        assert readout.marginal_probabilities(0, 0).shape == (0,)

    def test_zero_shots_rejected(self):
        with pytest.raises(SimulationError):
            sweep(StatevectorSimulator(), random_rows(2, seed=5), shots=0)

    def test_unbound_parameters_rejected(self):
        theta = Parameter("t")
        qc = QuantumCircuit(1, 1)
        qc.ry(theta, 0).measure(0, 0)
        with pytest.raises(SimulationError):
            StatevectorSimulator().run(qc, shots=None)
        simulator = StatevectorSimulator()
        program = simulator._grid_program(qc, [theta])
        with pytest.raises(SimulationError):
            simulator.run_sweep_program(program, np.zeros((2, 0)), shots=None)

    def test_shots_without_measurement_rejected(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        simulator = StatevectorSimulator()
        with pytest.raises(SimulationError):
            simulator.run_sweep_program(
                simulator._grid_program(qc, []), np.zeros((2, 0)), shots=16
            )

    def test_double_measurement_rejected_in_batch(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0).measure(0, 0).measure(0, 1)
        with pytest.raises(SimulationError):
            StatevectorSimulator()._grid_program(qc, [])
