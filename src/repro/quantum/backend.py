"""Execution backends.

A :class:`Backend` is anything that can run a bound circuit and return a
:class:`~repro.quantum.simulator.SimulationResult`.  Three implementations are
provided here:

* :class:`IdealBackend` — exact statevector execution (optionally sampled).
* :class:`SampledBackend` — statevector execution that always samples shots,
  modelling the statistical noise of a perfect but finite-shot device.
* :class:`NoisyBackend` — transpiles onto a device topology, then executes on
  a density-matrix simulator with the device's noise model.  This is the base
  class of the simulated IBM-Q and IonQ machines in :mod:`repro.hardware`.

Two entry points
----------------
Every backend executes through exactly two methods:

* :meth:`Backend.run` — one bound circuit, one full
  :class:`~repro.quantum.simulator.SimulationResult`.  It is the per-circuit
  reference oracle every sweep is tested against.
* :meth:`Backend.sweep_grid_zero_probabilities` — every sweep.  One symbolic
  SWAP-test discriminator plus a ``(rows x samples, columns)`` bindings
  matrix in, ``P(ancilla = 0)`` per grid element out.  The statevector
  backends compile the circuit once into a
  :class:`~repro.quantum.program.SweepProgram`; :class:`NoisyBackend`
  transpiles it once and runs the template's program under the device noise
  model.  Sampled readouts are draw-for-draw identical to looping
  :meth:`Backend.run` over the bound grid elements with the same seed.

On the noise-free backends a sweep whose program is certified (VER405) as
the canonical SWAP test collapses to the overlap of its two registers,
``P(ancilla = 0) = (1 + |<a|b>|^2) / 2``: two ``n``-qubit evolutions per
element instead of one ``2n + 1``-qubit one (see
:meth:`~repro.quantum.simulator.StatevectorSimulator.run_sweep_program`).
:class:`NoisyBackend` never collapses, and :meth:`Backend.run` always
simulates the full circuit.
"""

from __future__ import annotations

import abc
import dataclasses
import time
from typing import Dict, Optional, Sequence

import numpy as np

from repro.exceptions import BackendError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.noise import NoiseModel
from repro.quantum.program import TilePlan
from repro.quantum.simulator import (
    DensityMatrixSimulator,
    SimulationResult,
    StatevectorSimulator,
)
from repro.quantum.topology import CouplingMap
from repro.quantum.transpiler import TranspileCache
from repro.utils.rng import RandomState, ensure_rng


def validate_shots(shots: Optional[int], backend_name: str) -> Optional[int]:
    """Validate a shot count: ``None`` (exact) or a positive integer.

    Every backend funnels its ``shots`` argument through here so that invalid
    requests — most notably ``shots=0``, which previously fell back to a
    default via a falsy-``or`` — fail loudly with a :class:`BackendError`
    instead of silently running a different experiment.
    """
    if shots is None:
        return None
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)):
        raise BackendError(
            f"{backend_name}: shots must be a positive integer or None, got {shots!r}"
        )
    if shots <= 0:
        raise BackendError(
            f"{backend_name}: shots must be positive or None, got {shots}"
        )
    return int(shots)


def _grid_bindings(bindings, backend_name: str) -> np.ndarray:
    """A whole-grid bindings matrix as a 2-D float array (or :class:`BackendError`)."""
    bindings = np.asarray(bindings, dtype=float)
    if bindings.ndim != 2:
        raise BackendError(
            f"{backend_name}: grid bindings must be 2-D (elements, columns), "
            f"got shape {bindings.shape}"
        )
    return bindings


class Backend(abc.ABC):
    """Abstract execution backend."""

    #: Human-readable backend name (used in experiment reports).
    name: str = "backend"

    @abc.abstractmethod
    def run(self, circuit: QuantumCircuit, shots: Optional[int] = None) -> SimulationResult:
        """Execute a fully bound circuit."""

    @property
    def is_noisy(self) -> bool:
        """Whether execution includes a hardware noise model."""
        return False

    def sweep_grid_zero_probabilities(
        self,
        circuit: QuantumCircuit,
        parameters: Sequence,
        bindings,
        shots: Optional[int] = None,
        tile_plan: Optional[TilePlan] = None,
    ) -> np.ndarray:
        """SWAP-test readouts ``P(bit 0 = 0)`` of one whole-grid sweep.

        ``circuit`` is a single *symbolic* representative (trained parameters
        and data-encoder angles unbound), ``parameters`` its binding-column
        order, ``bindings`` the ``(rows x samples, columns)`` value matrix in
        row-major grid order.  The base implementation binds one circuit per
        grid element and loops :meth:`run` (``tile_plan`` is ignored), so a
        backend that only implements :meth:`run` still executes every sweep.
        The shipped backends override it with one compiled program executed
        tile by tile, draw-for-draw identical to that loop.
        """
        bindings = _grid_bindings(bindings, self.name)
        parameters = list(parameters)
        return np.array(
            [
                self.run(
                    circuit.bind_parameters(dict(zip(parameters, row.tolist()))),
                    shots=shots,
                ).marginal_probability(0, value=0)
                for row in bindings
            ],
            dtype=float,
        )


class IdealBackend(Backend):
    """Noise-free statevector execution with exact probabilities."""

    name = "ideal_simulator"

    def __init__(self, seed: RandomState = None) -> None:
        self._simulator = StatevectorSimulator(seed=seed)

    def _resolve_shots(self, shots: Optional[int]) -> Optional[int]:
        return validate_shots(shots, self.name)

    def run(self, circuit: QuantumCircuit, shots: Optional[int] = None) -> SimulationResult:
        return self._simulator.run(circuit, shots=self._resolve_shots(shots))

    def sweep_grid_zero_probabilities(
        self,
        circuit: QuantumCircuit,
        parameters: Sequence,
        bindings,
        shots: Optional[int] = None,
        tile_plan: Optional[TilePlan] = None,
    ) -> np.ndarray:
        """Whole-grid compile-once sweep on the statevector engine."""
        shots = self._resolve_shots(shots)
        bindings = _grid_bindings(bindings, self.name)
        if bindings.shape[0] == 0:
            return np.zeros(0)
        program = self._simulator._grid_program(circuit, tuple(parameters))
        readout = self._simulator.run_sweep_program(
            program, bindings, shots=shots, tile_plan=tile_plan
        )
        return readout.marginal_probabilities(0, 0)


class SampledBackend(IdealBackend):
    """Statevector execution that always samples a finite number of shots."""

    name = "sampled_simulator"

    def __init__(self, shots: int = 1024, seed: RandomState = None) -> None:
        self.shots = validate_shots(shots, self.name)
        if self.shots is None:
            raise BackendError(f"{self.name}: a default shot count is required")
        super().__init__(seed=seed)

    def _resolve_shots(self, shots: Optional[int]) -> int:
        # ``shots=0`` must raise, not silently fall back to the default the
        # way the old ``shots or self.shots`` expression did.
        if shots is None:
            return self.shots
        return validate_shots(shots, self.name)


@dataclasses.dataclass
class DeviceProperties:
    """Static description of a simulated quantum device.

    Attributes
    ----------
    name:
        Provider-style device name (e.g. ``"ibmq_london"``).
    num_qubits:
        Number of physical qubits.
    coupling_map:
        Physical connectivity.
    noise_model:
        Gate/readout error model calibrated for the device.
    basis_gates:
        Native gate set.
    max_shots:
        Largest shot count a single job may request.
    queue_latency_seconds:
        Simulated average queueing delay per job (reported in job metadata,
        mirroring the paper's remark about shared public queues).
    """

    name: str
    num_qubits: int
    coupling_map: CouplingMap
    noise_model: NoiseModel
    basis_gates: tuple = ("rx", "ry", "rz", "h", "cx", "id", "x", "z")
    max_shots: int = 8192
    queue_latency_seconds: float = 0.0


class NoisyBackend(Backend):
    """Device-like backend: transpile, then run under a noise model.

    :meth:`run` transpiles one circuit onto a connected chip region (cached
    per width) through a structure-keyed
    :class:`~repro.quantum.transpiler.TranspileCache`, then simulates its
    density matrix.  :meth:`sweep_grid_zero_probabilities` transpiles the
    symbolic representative once and executes the whole grid from the cached
    template's compiled :class:`~repro.quantum.program.SweepProgram` — gate
    unitaries and noise channels precomposed into per-gate superoperators —
    tiled under a :class:`~repro.quantum.program.TilePlan` memory budget.
    """

    def __init__(
        self,
        properties: DeviceProperties,
        seed: RandomState = None,
        simulate_queue_latency: bool = False,
    ) -> None:
        self.properties = properties
        self.name = properties.name
        #: When True, every job *submission* (one :meth:`run` call, or one
        #: whole grid sweep — a sweep is a single provider job) sleeps
        #: for the device's ``queue_latency_seconds``, modelling the shared
        #: public queue the paper remarks on.  Off by default: figure
        #: reproduction only book-keeps latency.  Sharded sweeps overlap
        #: these waits across backends, which is where multi-backend
        #: scale-out wins on real hardware.
        self.simulate_queue_latency = bool(simulate_queue_latency)
        self._rng = ensure_rng(seed)
        self._simulator = DensityMatrixSimulator(noise_model=properties.noise_model, seed=self._rng)
        #: Statistics of the most recent transpilation (CX count, SWAPs, depth).
        self.last_transpile_stats: Dict[str, int] = {}
        self._transpile_cache = TranspileCache()
        self._region_cache: Dict[int, CouplingMap] = {}

    @property
    def is_noisy(self) -> bool:
        return True

    @property
    def transpile_cache_stats(self) -> Dict[str, int]:
        """Hit/miss statistics of the structure-keyed transpile cache."""
        return self._transpile_cache.stats

    def _local_coupling_map(self, num_qubits: int) -> CouplingMap:
        """Connected chip region for a circuit width (cached per width).

        Place the circuit on a connected region of the chip and only simulate
        that region; simulating every physical qubit of a 15- or 27-qubit
        device as a density matrix would be needlessly intractable.
        """
        cached = self._region_cache.get(num_qubits)
        if cached is None:
            region = self.properties.coupling_map.select_connected_region(num_qubits)
            cached = self.properties.coupling_map.induced_subgraph(region)
            self._region_cache[num_qubits] = cached
        return cached

    def _resolve_shots(self, shots: Optional[int]) -> int:
        """Validate a shot request against the device's per-job limit."""
        shots = validate_shots(shots, self.name)
        shots = shots if shots is not None else 1024
        if shots > self.properties.max_shots:
            raise BackendError(
                f"{self.name} supports at most {self.properties.max_shots} shots per job, "
                f"requested {shots}"
            )
        return shots

    @staticmethod
    def _transpile_stats(transpiled) -> Dict[str, int]:
        """Summary statistics of one transpilation, as reported in metadata."""
        return {
            "cx_count": transpiled.cx_count,
            "inserted_swaps": transpiled.inserted_swaps,
            "added_cx": transpiled.added_cx,
            "depth": transpiled.depth,
        }

    def _transpile(self, circuit: QuantumCircuit):
        """Transpile one circuit onto the selected chip region (cache-amortised).

        Updates ``last_transpile_stats`` so repeated calls report the most
        recently transpiled circuit.
        """
        if circuit.num_qubits > self.properties.num_qubits:
            raise BackendError(
                f"{self.name} has {self.properties.num_qubits} qubits, circuit needs "
                f"{circuit.num_qubits}"
            )
        local_map = self._local_coupling_map(circuit.num_qubits)
        transpiled = self._transpile_cache.transpile(circuit, local_map)
        self.last_transpile_stats = self._transpile_stats(transpiled)
        return transpiled

    def _attach_metadata(self, result: SimulationResult, transpile_stats: Dict[str, int]) -> None:
        result.metadata.update(
            {
                "backend": self.name,
                "transpile": dict(transpile_stats),
                "queue_latency_seconds": self.properties.queue_latency_seconds,
            }
        )

    def _queue_wait(self) -> None:
        """Sleep out the simulated queue for one job submission (opt-in)."""
        if self.simulate_queue_latency and self.properties.queue_latency_seconds > 0:
            time.sleep(self.properties.queue_latency_seconds)

    def run(self, circuit: QuantumCircuit, shots: Optional[int] = None) -> SimulationResult:
        shots = self._resolve_shots(shots)
        self._queue_wait()
        transpiled = self._transpile(circuit)
        result = self._simulator.run(transpiled.circuit, shots=shots)
        self._attach_metadata(result, self.last_transpile_stats)
        self._record_job(result)
        return result

    def sweep_grid_zero_probabilities(
        self,
        circuit: QuantumCircuit,
        parameters: Sequence,
        bindings,
        shots: Optional[int] = None,
        tile_plan: Optional[TilePlan] = None,
    ) -> np.ndarray:
        """Whole-grid compile-once sweep under the device noise model.

        The symbolic representative transpiles **once** through
        :meth:`~repro.quantum.transpiler.TranspileCache.symbolic_template`
        (no slot twin — the circuit's own parameters are the slots) and the
        cached template's compiled program executes the whole bindings grid
        tile by tile.  No per-sample circuit is constructed, bound or
        transpiled anywhere; one sweep is one provider job submission (a
        single queue wait), with every grid element still ledgered
        individually so job accounting matches a loop of :meth:`run`.
        """
        shots = self._resolve_shots(shots)
        bindings = _grid_bindings(bindings, self.name)
        if bindings.shape[0] == 0:
            return np.zeros(0)
        if circuit.num_qubits > self.properties.num_qubits:
            raise BackendError(
                f"{self.name} has {self.properties.num_qubits} qubits, circuit "
                f"needs {circuit.num_qubits}"
            )
        self._queue_wait()
        local_map = self._local_coupling_map(circuit.num_qubits)
        entry = self._transpile_cache.symbolic_template(
            circuit, parameters, local_map
        )
        program = entry.ensure_program(
            noise_model=getattr(self._simulator, "noise_model", None)
        )
        stats = self._transpile_stats(entry.result)
        self.last_transpile_stats = stats
        readout = self._simulator.run_sweep_program(
            program, bindings, shots=shots, tile_plan=tile_plan
        )
        # Every element is one ledgered job; the ledger reads only the name,
        # the shots and the transpile stats, so all elements share one
        # summary result (no per-element probabilities or counts).
        summary = SimulationResult(
            circuit_name=f"{circuit.name}_basis_routed",
            probabilities={},
            shots=shots,
            metadata={
                "engine": self._simulator.name,
                "noisy": not self.properties.noise_model.is_ideal,
                "batched": True,
                "batch_size": int(bindings.shape[0]),
                "program_sweep": True,
                "grid_sweep": True,
            },
        )
        self._attach_metadata(summary, stats)
        for _ in range(bindings.shape[0]):
            self._record_job(summary)
        return readout.marginal_probabilities(0, 0)

    def _record_job(self, result: SimulationResult) -> None:
        """Per-job accounting hook, called once per executed circuit.

        The base class keeps no job records; the simulated providers in
        :mod:`repro.hardware` override this to append to their
        :class:`~repro.hardware.job.JobLedger`, so single runs and grid
        sweeps share one accounting path.  A grid sweep calls it once per
        element with one shared summary result: name, shots and metadata,
        with empty ``probabilities`` and no ``counts``.
        """
