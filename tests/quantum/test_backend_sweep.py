"""Tests for the backends' whole-grid sweep path
(:meth:`~repro.quantum.backend.Backend.sweep_grid_zero_probabilities`)
against the per-circuit reference, :meth:`~repro.quantum.backend.Backend.run`."""

import numpy as np
import pytest

from repro.exceptions import BackendError, SimulationError
from repro.hardware import IBMQBackend
from repro.quantum.backend import IdealBackend, SampledBackend
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.operations import Parameter
from repro.quantum.program import TilePlan
from repro.quantum.register import ClassicalRegister, QuantumRegister

ANGLES = [Parameter(f"a{index}") for index in range(4)]


def discriminator(angles) -> QuantumCircuit:
    """Minimal SWAP-test discriminator: ancilla + two 1-qubit registers."""
    qreg = QuantumRegister(3, "q")
    creg = ClassicalRegister(1, "c")
    circuit = QuantumCircuit(qreg, creg, name="disc")
    circuit.h(0)
    circuit.ry(angles[0], 1).rz(angles[1], 1)
    circuit.ry(angles[2], 2).rz(angles[3], 2)
    circuit.cswap(0, 1, 2)
    circuit.h(0)
    circuit.measure(0, 0)
    return circuit


def sweep(count, seed):
    return np.random.default_rng(seed).uniform(0, np.pi, size=(count, 4))


def grid(backend, rows, **kwargs):
    return backend.sweep_grid_zero_probabilities(
        discriminator(ANGLES), ANGLES, rows, **kwargs
    )


def run_loop(backend, rows, shots=None):
    return np.array(
        [
            backend.run(discriminator(row), shots=shots).marginal_probability(0, value=0)
            for row in rows
        ]
    )


class TestStatevectorBackends:
    def test_ideal_sweep_matches_batch_path_exact(self):
        rows = sweep(6, seed=0)
        swept = grid(IdealBackend(), rows, shots=None)
        np.testing.assert_allclose(swept, run_loop(IdealBackend(), rows), atol=1e-12)

    def test_sampled_sweep_seed_matches_batch_path(self):
        rows = sweep(5, seed=1)
        swept = grid(SampledBackend(shots=400, seed=7), rows)
        looped = run_loop(SampledBackend(shots=400, seed=7), rows)
        np.testing.assert_array_equal(swept, looped)

    def test_tile_plan_does_not_change_draws(self):
        rows = sweep(6, seed=2)
        plan = TilePlan(rows=6, samples=1, row_tile=2, sample_tile=1)
        tiled = grid(SampledBackend(shots=300, seed=5), rows, tile_plan=plan)
        whole = grid(SampledBackend(shots=300, seed=5), rows)
        np.testing.assert_array_equal(tiled, whole)

    def test_empty_sweep(self):
        assert grid(IdealBackend(), np.zeros((0, 4)), shots=None).shape == (0,)

    def test_structure_mismatch_rejected(self):
        """Bindings must match the compiled circuit's columns."""
        with pytest.raises(BackendError):
            grid(IdealBackend(), np.zeros(4), shots=None)
        with pytest.raises(SimulationError):
            grid(IdealBackend(), np.zeros((2, 3)), shots=None)

    def test_shots_validated(self):
        with pytest.raises(BackendError):
            grid(IdealBackend(), sweep(2, seed=4), shots=0)


class TestNoisyBackend:
    def test_sweep_seed_matches_batch_path(self):
        rows = sweep(4, seed=5)
        swept = grid(IBMQBackend("ibmq_london", seed=13), rows, shots=256)
        looped = run_loop(IBMQBackend("ibmq_london", seed=13), rows, shots=256)
        np.testing.assert_array_equal(swept, looped)

    def test_sweep_ledgers_every_element_with_transpile_stats(self):
        backend = IBMQBackend("ibmq_london", seed=1)
        grid(backend, sweep(3, seed=6), shots=64)
        assert backend.ledger.num_jobs == 3
        for record in backend.ledger.records:
            assert record.shots == 64
            assert record.cx_count > 0
            assert record.circuit_name == "disc_basis_routed"
        assert backend.last_transpile_stats["cx_count"] > 0

    def test_sweep_structure_mismatch_rejected(self):
        backend = IBMQBackend("ibmq_london", seed=2)
        with pytest.raises(BackendError):
            grid(backend, np.zeros(4), shots=64)
        with pytest.raises(SimulationError):
            grid(backend, np.zeros((2, 3)), shots=64)
        assert backend.ledger.num_jobs == 0

    def test_sweep_respects_device_width(self):
        wide = QuantumCircuit(9, 1, name="too_wide")
        wide.h(0).measure(0, 0)
        backend = IBMQBackend("ibmq_london", seed=0)
        with pytest.raises(BackendError):
            backend.sweep_grid_zero_probabilities(wide, [], np.zeros((1, 0)), shots=64)

    def test_empty_sweep(self):
        backend = IBMQBackend("ibmq_london", seed=0)
        assert grid(backend, np.zeros((0, 4)), shots=64).shape == (0,)
        assert backend.ledger.num_jobs == 0

    def test_tiled_sweep_seed_matches_whole(self):
        rows = sweep(4, seed=8)
        plan = TilePlan(rows=4, samples=1, row_tile=1, sample_tile=1)
        tiled = grid(IBMQBackend("ibmq_london", seed=21), rows, shots=128, tile_plan=plan)
        whole = grid(IBMQBackend("ibmq_london", seed=21), rows, shots=128)
        np.testing.assert_array_equal(tiled, whole)
