"""Whole-grid SweepProgram path of the SWAP-test estimator.

The route-identity matrix: routing a ``(rows x samples)`` fidelity sweep
through ONE compiled program — encoder angles as bind columns, trained
prefix evolved once per tile and broadcast — must match the per-element
reference loop (:meth:`SwapTestFidelityEstimator.fidelity`, one bound
circuit per element through ``Backend.run``) on every backend, with and
without certified fusion, and under any tile budget: **draw-for-draw
bit-identical** wherever shots are sampled, and to ``1e-12`` for exact
readouts (the compiled einsum path and the per-circuit contraction round
differently at the last ULP).
"""

import numpy as np
import pytest

from repro.core.circuit_builder import DiscriminatorCircuitBuilder
from repro.core.layers import LayerStack
from repro.core.swap_test import AnalyticFidelityEstimator, SwapTestFidelityEstimator
from repro.encoding import DualAngleEncoder, SingleAngleEncoder
from repro.hardware import ibmq_london
from repro.quantum.backend import IdealBackend, SampledBackend
from repro.quantum.program import OPTIMIZE_PROGRAMS_ENV


def make_builder(encoder=None, num_features: int = 4, architecture: str = "s"):
    encoder = encoder if encoder is not None else DualAngleEncoder()
    stack = LayerStack.from_architecture(architecture, encoder.num_qubits(num_features))
    return DiscriminatorCircuitBuilder(stack, encoder, num_features)


@pytest.fixture()
def builder():
    return make_builder()


@pytest.fixture()
def parameter_matrix(builder):
    rng = np.random.default_rng(41)
    return rng.uniform(0, np.pi, size=(3, builder.num_parameters))


@pytest.fixture()
def samples():
    rng = np.random.default_rng(42)
    return rng.uniform(0.05, 0.95, size=(4, 4))


BACKENDS = {
    "analytic": lambda: (IdealBackend(), None),
    "sampled": lambda: (SampledBackend(shots=200, seed=9), 200),
    "noisy": lambda: (ibmq_london(seed=9), 128),
}
#: Budgets spanning one-element tiles up to the whole grid in one tile.
BUDGETS = {
    "tight": lambda builder: 2 ** builder.layout.total_qubits * 4,
    "medium": lambda builder: 2 ** (2 * builder.layout.total_qubits) * 4,
    "roomy": lambda builder: SwapTestFidelityEstimator.DEFAULT_MAX_BATCH_AMPLITUDES,
}


def grid_and_loop(builder, backend_key, budget, parameter_matrix, samples):
    """(grid matrix, per-element loop matrix) from fresh same-seeded backends."""
    backend, shots = BACKENDS[backend_key]()
    grid = SwapTestFidelityEstimator(
        builder, backend=backend, shots=shots, max_batch_amplitudes=budget
    ).fidelity_matrix(parameter_matrix, samples)
    backend, shots = BACKENDS[backend_key]()
    reference = SwapTestFidelityEstimator(builder, backend=backend, shots=shots)
    loop = np.array(
        [[reference.fidelity(row, sample) for sample in samples] for row in parameter_matrix]
    )
    return grid, loop


def assert_route_identity(backend_key, grid, loop):
    if backend_key == "analytic":
        np.testing.assert_allclose(grid, loop, rtol=0, atol=1e-12)
    else:
        np.testing.assert_array_equal(grid, loop)


class TestGridMatchesStreamBitwise:
    @pytest.mark.parametrize("backend_key", sorted(BACKENDS))
    @pytest.mark.parametrize("budget_key", sorted(BUDGETS))
    @pytest.mark.parametrize("optimize", ["0", "1"])
    def test_grid_sweep_is_bit_identical_to_stream(
        self, builder, parameter_matrix, samples, backend_key, budget_key, optimize, monkeypatch
    ):
        """The grid route matches the per-element ``Backend.run`` loop."""
        monkeypatch.setenv(OPTIMIZE_PROGRAMS_ENV, optimize)
        budget = BUDGETS[budget_key](builder)
        grid, loop = grid_and_loop(builder, backend_key, budget, parameter_matrix, samples)
        assert_route_identity(backend_key, grid, loop)

    def test_single_angle_encoder_grid_matches_stream(self, monkeypatch):
        """Single-angle discriminators are 9 qubits: too wide for the noisy device."""
        monkeypatch.delenv(OPTIMIZE_PROGRAMS_ENV, raising=False)
        builder = make_builder(SingleAngleEncoder())
        rng = np.random.default_rng(43)
        matrix = rng.uniform(0, np.pi, size=(2, builder.num_parameters))
        features = rng.uniform(0.05, 0.95, size=(3, 4))
        for backend_key in ("analytic", "sampled"):
            grid, loop = grid_and_loop(builder, backend_key, 2**20, matrix, features)
            assert_route_identity(backend_key, grid, loop)

    def test_fidelities_row_delegates_to_the_grid(self, builder, samples):
        rng = np.random.default_rng(44)
        values = rng.uniform(0, np.pi, builder.num_parameters)
        grid, loop = grid_and_loop(builder, "noisy", 2**23, values[None, :], samples)
        backend, shots = BACKENDS["noisy"]()
        row = SwapTestFidelityEstimator(builder, backend=backend, shots=shots)
        np.testing.assert_array_equal(row.fidelities(values, samples), grid[0])
        np.testing.assert_array_equal(grid, loop)

    def test_empty_grid_short_circuits(self, builder, parameter_matrix):
        estimator = SwapTestFidelityEstimator(builder, backend=IdealBackend(), shots=None)
        empty = estimator.fidelity_matrix(parameter_matrix, np.zeros((0, 4)))
        assert empty.shape == (parameter_matrix.shape[0], 0)
        assert estimator.circuits_executed == 0

    def test_grid_builds_no_per_sample_circuits(self, builder, parameter_matrix, samples):
        estimator = SwapTestFidelityEstimator(builder, backend=IdealBackend(), shots=None)
        estimator.fidelity_matrix(parameter_matrix, samples)
        assert len(builder._data_bound_cache) == 0  # the point of the grid path
        assert estimator.circuits_executed == parameter_matrix.shape[0] * samples.shape[0]


class TestGridBindings:
    def test_row_major_layout_matches_the_stream_order(self, builder, parameter_matrix, samples):
        """Grid rows follow the per-element loop's (row, then sample) order."""
        bindings = builder.grid_bindings(parameter_matrix, samples)
        rows, params = parameter_matrix.shape
        angles = builder.encoder.angle_matrix(samples)
        assert bindings.shape == (rows * samples.shape[0], params + angles.shape[1])
        for row in range(rows):
            for sample in range(samples.shape[0]):
                flat = row * samples.shape[0] + sample
                np.testing.assert_array_equal(bindings[flat, :params], parameter_matrix[row])
                np.testing.assert_array_equal(bindings[flat, params:], angles[sample])

    def test_angle_columns_are_bitwise_the_loop_angles(self, builder, samples):
        from repro.encoding.angle import rotation_angle

        angles = builder.encoder.angle_matrix(samples)
        for row in range(samples.shape[0]):
            for column in range(samples.shape[1]):
                assert angles[row, column] == rotation_angle(samples[row, column])


class TestVectorisedDataStates:
    def test_batched_matrix_matches_per_row_loop(self, builder, samples):
        estimator = AnalyticFidelityEstimator(builder)
        batched = estimator.data_state_matrix(samples)
        loop = np.stack([estimator.data_statevector(row).data for row in samples])
        np.testing.assert_allclose(batched, loop, atol=1e-12)

    def test_non_column_encoder_falls_back_to_the_loop(self, samples):
        class LoopOnlyEncoder(DualAngleEncoder):
            supports_angle_columns = False

        builder = make_builder(LoopOnlyEncoder())
        estimator = AnalyticFidelityEstimator(builder)
        batched = estimator.data_state_matrix(samples)
        loop = np.stack([estimator.data_statevector(row).data for row in samples])
        np.testing.assert_array_equal(batched, loop)
