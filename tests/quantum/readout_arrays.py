"""Dense forms of per-circuit results, for comparison with a ``SweepReadout``.

A sweep read-out holds ``(elements, 2**num_clbits)`` arrays whose column
``j`` is the outcome whose bit string (clbit 0 leftmost) reads ``j``; these
helpers lay a loop of :class:`~repro.quantum.simulator.SimulationResult`
out the same way.
"""

import numpy as np


def counts_rows(results, num_clbits: int) -> np.ndarray:
    """Each result's sampled counts as one int64 row."""
    rows = np.zeros((len(results), 2**num_clbits), dtype=np.int64)
    for row, result in zip(rows, results):
        for key, count in result.counts.data.items():
            row[int(key, 2)] = count
    return rows


def probability_rows(results, num_clbits: int) -> np.ndarray:
    """Each result's exact outcome probabilities as one float row."""
    rows = np.zeros((len(results), 2**num_clbits))
    for row, result in zip(rows, results):
        for key, probability in result.probabilities.items():
            row[int(key, 2)] = probability
    return rows


def assert_probabilities_match(readout, results, atol: float = 1e-12) -> None:
    """Same present outcomes and probabilities within ``atol`` per element."""
    expected = probability_rows(results, readout.num_clbits)
    np.testing.assert_array_equal(readout.probabilities > 0, expected > 0)
    np.testing.assert_allclose(readout.probabilities, expected, rtol=0, atol=atol)
