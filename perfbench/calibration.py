"""Reference kernels that measure how fast the machine runs right now.

On a shared machine the speed one process gets can move by 20-45% over
periods of seconds to minutes (measured on a 2-vCPU Intel Xeon VM, where a
fixed pure-Python loop took 15.8-22.1 ms), and a slow period can cover a
whole run.  Every timed end-to-end quantity is therefore bracketed
by a fixed reference kernel of the same kind of work (numpy only, no
``repro`` code) and reported in *reference seconds*: wall seconds times the
kernel's reference time divided by its measured time around the span.  A
slower program moves the workload and not the kernel; a slower machine moves
both.  The run record keeps the raw wall-clock values next to them.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict

import numpy as np

#: Calibration runs for this share of the timed span it brackets.
SHARE = 0.05


def _dispatch() -> None:
    """Interpreter-bound work: a Python loop plus small gate einsums."""
    state = np.full((8,) + (2,) * 10, 2.0**-5, dtype=complex)
    gate = np.kron(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])).astype(complex)
    gate = gate.reshape(2, 2, 2, 2)
    total = 0
    for index in range(16000):
        total += index * index % 7
    for _ in range(16):
        state = np.einsum("abcd,xcdefghijkl->xabefghijkl", gate, state)


def _density() -> None:
    """Superoperator application on a stack of 5-qubit density matrices:
    axis moves, contiguous copies and small matmuls."""
    qubits = 5
    tensor = np.full((16,) + (2,) * (2 * qubits), 2.0**-5, dtype=complex)
    superop = np.eye(4, dtype=complex) * 0.5 + 0.5
    for _ in range(6):
        for qubit in range(qubits):
            source = (1 + qubit, 1 + qubits + qubit)
            dest = (2 * qubits - 1, 2 * qubits)
            moved = np.moveaxis(tensor, source, dest)
            flat = np.ascontiguousarray(moved).reshape(-1, 4)
            out = np.matmul(flat, superop.T).reshape(moved.shape)
            tensor = np.ascontiguousarray(np.moveaxis(out, dest, source))


#: Kernel name -> (function, wall seconds of one run on the reference machine).
KERNELS: Dict[str, tuple] = {
    "dispatch": (_dispatch, 0.0027),
    "density": (_density, 0.0042),
}


def run_once(kernel: str) -> float:
    function: Callable[[], None] = KERNELS[kernel][0]
    began = time.perf_counter()
    function()
    return time.perf_counter() - began


def speed(kernel: str, span_s: float) -> float:
    """Measured/reference time of ``kernel`` (1.0 = reference speed, larger =
    slower), as the median over ``SHARE * span_s`` of runs (at least one)."""
    samples = [run_once(kernel)]
    deadline = time.perf_counter() + SHARE * span_s
    while time.perf_counter() < deadline:
        samples.append(run_once(kernel))
    return statistics.median(samples) / KERNELS[kernel][1]
