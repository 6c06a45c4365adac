"""Differential tests of the array-native sweep read-out.

A sweep's :class:`~repro.quantum.simulator.SweepReadout` holds
``(elements, 2**num_clbits)`` arrays.  Every element must equal the
per-circuit dictionary reference built from the same joint distribution:
:func:`~repro.quantum.measurement.exact_clbit_probabilities`, then
:func:`~repro.quantum.measurement.counts_from_probabilities` drawing from an
identically seeded generator, then
:meth:`~repro.quantum.simulator.SimulationResult.marginal_probability`.
Probabilities, counts and marginals are compared for exact equality.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.hardware.ibmq import ibmq_london
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.measurement import counts_from_probabilities, exact_clbit_probabilities
from repro.quantum.operations import Parameter
from repro.quantum.program import SweepProgram
from repro.quantum.simulator import SimulationResult, StatevectorSimulator, _clbit_readout

from readout_arrays import counts_rows, probability_rows


def layout(clbits, num_clbits):
    """A gate-free program measuring qubits ``0..len(clbits)-1`` onto ``clbits``."""
    return SweepProgram(
        num_qubits=len(clbits),
        num_clbits=num_clbits,
        steps=(),
        measured_qubits=range(len(clbits)),
        clbits=clbits,
        num_columns=0,
        parameters=(),
        column_sites=(),
        name="layout",
    )


@st.composite
def readout_cases(draw):
    """A measurement layout, a joint distribution with exact zeros, shots and a seed.

    Clbits are a permuted subset of a wider register, or may repeat.
    """
    width = draw(st.integers(min_value=1, max_value=4))
    num_clbits = draw(st.integers(min_value=width + 1, max_value=width + 2))
    if draw(st.booleans()):
        clbits = draw(st.permutations(range(num_clbits)))[:width]
    else:  # several measurements onto one clbit: the last one wins the bit
        clbits = draw(
            st.lists(st.integers(0, num_clbits - 1), min_size=width, max_size=width)
        )
    elements = draw(st.integers(min_value=1, max_value=6))
    weights = draw(
        st.lists(
            st.lists(
                st.floats(min_value=1e-6, max_value=1.0), min_size=2**width, max_size=2**width
            ),
            min_size=elements,
            max_size=elements,
        )
    )
    # Exact zeros: one pattern shared by every element, or one per element.
    mask_rows = 1 if draw(st.booleans()) else elements
    masks = draw(
        st.lists(
            st.lists(st.booleans(), min_size=2**width, max_size=2**width).filter(any),
            min_size=mask_rows,
            max_size=mask_rows,
        )
    )
    joint = np.where(np.asarray(masks, dtype=bool), np.asarray(weights), 0.0)
    joint = joint / joint.sum(axis=1, keepdims=True)
    shots = draw(st.sampled_from([None, 1, 3, 1024]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return layout(clbits, num_clbits), joint, shots, seed


def dictionary_reference(program, joint, shots, seed):
    """Per-element results built through the dictionary path, plus its generator."""
    rng = np.random.default_rng(seed)
    results = []
    for row in joint:
        probabilities = exact_clbit_probabilities(
            row, program.measured_qubits, program.clbits, program.num_clbits
        )
        counts = (
            counts_from_probabilities(probabilities, shots, rng=rng)
            if shots is not None
            else None
        )
        results.append(SimulationResult("reference", probabilities, counts, shots=shots))
    return results, rng


@settings(max_examples=150, deadline=None)
@given(case=readout_cases())
def test_array_readout_matches_the_dictionary_reference(case):
    program, joint, shots, seed = case
    rng = np.random.default_rng(seed)
    readout = _clbit_readout(joint, program, rng, shots)
    results, reference_rng = dictionary_reference(program, joint, shots, seed)

    np.testing.assert_array_equal(
        readout.probabilities, probability_rows(results, program.num_clbits)
    )
    if shots is None:
        assert readout.counts is None
    else:
        np.testing.assert_array_equal(readout.counts, counts_rows(results, program.num_clbits))
    # Draw for draw: both generators stop at the same point of their stream.
    assert rng.random() == reference_rng.random()
    for clbit in range(program.num_clbits):
        for value in (0, 1):
            np.testing.assert_array_equal(
                readout.marginal_probabilities(clbit, value),
                [result.marginal_probability(clbit, value) for result in results],
            )


def test_exact_marginal_sums_in_key_order():
    """Swapped clbits put the keys out of clbit order; the float sum follows the keys."""
    program = layout((1, 0), 3)
    joint = np.array([[0.1, 0.2, 0.4, 0.0]])
    readout = _clbit_readout(joint, program, np.random.default_rng(0), None)
    (result,), _ = dictionary_reference(program, joint, None, 0)
    assert list(result.probabilities) == ["000", "100", "010"]
    np.testing.assert_array_equal(readout.outcome_order, [[0, 4, 2, 1, 3, 5, 6, 7]])
    # Summed in ascending clbit order the same three terms round differently.
    assert (0.1 + 0.4) + 0.2 != result.marginal_probability(2, 0)
    assert readout.marginal_probabilities(2, 0) == [result.marginal_probability(2, 0)]


def rotation_layout_circuit(angles, name="layout"):
    """Three rotated qubits measured onto permuted clbits of a 4-bit register."""
    qc = QuantumCircuit(3, 4, name=name)
    for qubit, angle in enumerate(angles):
        qc.ry(angle, qubit)
    qc.cx(0, 1)
    qc.measure(0, 2).measure(1, 0).measure(2, 3)
    return qc


def test_mixed_zero_patterns_match_the_run_loop():
    """A zero angle leaves an outcome exactly zero in some elements only."""
    angles = [Parameter(f"a{index}") for index in range(3)]
    rows = np.array(
        [[0.3, 0.9, 1.1], [0.0, 0.9, 1.1], [0.3, 0.0, 0.0], [0.0, 0.0, 0.0], [0.4, 1.2, 2.0]]
    )
    simulator = StatevectorSimulator(seed=21)
    program = simulator._grid_program(rotation_layout_circuit(angles), angles)
    readout = simulator.run_sweep_program(program, rows, shots=257)
    loop_simulator = StatevectorSimulator(seed=21)
    looped = [loop_simulator.run(rotation_layout_circuit(row), shots=257) for row in rows]
    assert readout.outcome_order.shape[0] == len(rows)
    np.testing.assert_array_equal(readout.counts, counts_rows(looped, 4))
    np.testing.assert_array_equal(
        readout.probabilities > 0, probability_rows(looped, 4) > 0
    )
    for clbit in range(4):
        np.testing.assert_array_equal(
            readout.marginal_probabilities(clbit, 1),
            [result.marginal_probability(clbit, 1) for result in looped],
        )


class TestMarginalBounds:
    """Exact and sampled marginals both reject a clbit outside the register."""

    EXACT = {"01": 0.25, "10": 0.75}

    @pytest.mark.parametrize("clbit", [-1, 2])
    def test_simulation_result_exact_mode(self, clbit):
        result = SimulationResult("bounds", dict(self.EXACT))
        with pytest.raises(SimulationError):
            result.marginal_probability(clbit, 1)

    @pytest.mark.parametrize("clbit", [-1, 2])
    @pytest.mark.parametrize("shots", [None, 16])
    def test_sweep_readout_both_modes(self, clbit, shots):
        joint = np.array([[0.0, 0.25, 0.75, 0.0]])
        readout = _clbit_readout(joint, layout((0, 1), 2), np.random.default_rng(0), shots)
        with pytest.raises(SimulationError):
            readout.marginal_probabilities(clbit, 1)

    def test_in_range_exact_marginal_is_unchanged(self):
        assert SimulationResult("bounds", dict(self.EXACT)).marginal_probability(1, 1) == 0.25


def ledger_circuit(angles, name="ledgered"):
    qc = QuantumCircuit(3, 1, name=name)
    qc.h(0)
    qc.ry(angles[0], 1).rz(angles[1], 1)
    qc.ry(angles[2], 2).rz(angles[3], 2)
    qc.cswap(0, 1, 2)
    qc.h(0)
    qc.measure(0, 0)
    return qc


def test_ibmq_grid_sweep_ledgers_like_the_run_loop():
    """Same records (ids, order, names, shots, cx/depth) as a loop of ``run``."""
    angles = [Parameter(f"a{index}") for index in range(4)]
    rows = np.random.default_rng(5).uniform(0, np.pi, size=(7, 4))
    swept = ibmq_london(seed=3)
    zeros = np.concatenate([
        swept.sweep_grid_zero_probabilities(ledger_circuit(angles), angles, rows, shots=96),
        swept.sweep_grid_zero_probabilities(ledger_circuit(angles), angles, rows[:2], shots=32),
    ])
    looped = ibmq_london(seed=3)
    results = [looped.run(ledger_circuit(row), shots=96) for row in rows]
    results += [looped.run(ledger_circuit(row), shots=32) for row in rows[:2]]
    assert swept.ledger.records == looped.ledger.records
    assert [record.job_id for record in swept.ledger.records] == list(range(9))
    np.testing.assert_array_equal(
        zeros, [result.marginal_probability(0, 0) for result in results]
    )
