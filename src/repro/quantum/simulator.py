"""Circuit simulators.

Two execution engines are provided:

* :class:`StatevectorSimulator` — pure-state evolution; supports exact
  probability read-out (``shots=None``) or multinomial shot sampling.  This is
  the engine behind all "simulator" results in the paper's figures.
* :class:`DensityMatrixSimulator` — mixed-state evolution with a
  :class:`~repro.quantum.noise.NoiseModel`; the engine behind the simulated
  IBM-Q / IonQ hardware backends (Figs 11 and 12).

Both return a :class:`SimulationResult` holding the final state, exact
probabilities of the measured classical bits, and (when shots are requested)
a :class:`~repro.quantum.measurement.Counts` histogram.

Both engines also execute whole-grid sweeps through
``run_sweep_program``, the engine half of
:meth:`~repro.quantum.backend.Backend.sweep_grid_zero_probabilities`: a
compiled :class:`~repro.quantum.program.SweepProgram` (cached per symbolic
circuit structure) streams a bindings matrix tile by tile under a
:class:`~repro.quantum.program.TilePlan`, keeping only each element's
read-out, never per-element states or results.  On the mixed-state engine
every gate's unitary and noise channels are *precomposed* into a single
superoperator when the program is first planned, and the fixed tail after
the last bind site is folded into per-outcome effect operators (certified by
VER406), so each tile stops at the tail and reads its distribution with one
matmul; see :class:`~repro.quantum.program.ReadoutFold`.
:meth:`DensityMatrixSimulator.run` evolves every gate and stays the oracle.

A sweep's read-out is a :class:`SweepReadout` of arrays, never one
dictionary or :class:`~repro.quantum.measurement.Counts` per element:

* ``probabilities`` — ``(elements, 2**num_clbits)`` float64, column ``j``
  the outcome whose classical bit string (clbit 0 leftmost) reads ``j``.
  The joint distribution over the measured qubits is re-indexed through
  the column map :attr:`~repro.quantum.program.SweepProgram.clbit_columns`,
  built once per program; non-positive entries are dropped and entries
  landing on one column accumulate in measured-qubit index order, as
  :func:`~repro.quantum.measurement.exact_clbit_probabilities` does for
  one circuit.
* ``counts`` — ``(elements, 2**num_clbits)`` int64 shot counts, or ``None``.
  Each element draws over its present outcomes in *key order*: first
  appearance in measured-qubit index order, the key order of the
  per-circuit dictionary, which is not always ascending clbit order.  When
  every element has the same positive-outcome pattern, one stacked
  multinomial call draws the whole sweep; elements whose zero patterns
  differ draw one by one on their own present subsets.  Either way
  the generator is consumed exactly like a loop of
  :meth:`StatevectorSimulator.run` / :meth:`DensityMatrixSimulator.run`, so
  sampled counts match that loop draw for draw under a shared seed.
* marginals — an integer column sum over the counts divided by the shots,
  or, without shots, a sequential sum of probabilities in key order; both
  bit-identical to :meth:`SimulationResult.marginal_probability`.

On the pure-state engine a program that VER405 certifies as the canonical
SWAP test does not simulate all ``2n + 1`` qubits: its two registers
evolve as ``n``-qubit programs (:func:`swap_test_registers`) and the
ancilla read-out is ``[(1 + F) / 2, (1 - F) / 2]`` with ``F`` their overlap.
The read-out and sampling that follow are the circuit path's.  Sweeps with
a near-unit fidelity (:data:`~repro.quantum.program.COLLAPSE_MIN_P1`, the
bound the read-out fold's guard shares), uncertified programs and the
mixed-state engine run the full circuit.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from repro import arrays
from repro.exceptions import SimulationError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.density_matrix import DensityMatrix
from repro.quantum.measurement import (
    Counts,
    counts_from_probabilities,
    exact_clbit_probabilities,
    normalize_outcome_probabilities,
)
from repro.quantum.noise import NoiseModel, apply_readout_error
from repro.quantum.program import (
    COLLAPSE_MIN_P1,
    DensitySuperoperatorEngine,
    GateStep,
    StatevectorEngine,
    SweepProgram,
    TilePlan,
    check_deferred_measurement,
    resolve_optimization,
)
from repro.quantum.statevector import Statevector
from repro.quantum.transpiler import circuit_structure_key
from repro.utils.cache import LRUCache
from repro.utils.rng import RandomState, ensure_rng


@dataclasses.dataclass
class SimulationResult:
    """Outcome of simulating one circuit.

    Attributes
    ----------
    circuit_name:
        Name of the executed circuit.
    probabilities:
        Exact probabilities over the measured classical bits, indexed by the
        classical bit string (bit 0 first).  Empty when the circuit has no
        measurements.
    counts:
        Sampled histogram; ``None`` when ``shots`` was ``None``.
    statevector:
        Final pure state (statevector engine only, measurement-free circuits).
    density_matrix:
        Final mixed state (density-matrix engine only).
    shots:
        Number of shots sampled, or ``None`` for exact execution.
    metadata:
        Engine- and backend-specific extras (noise model name, queue delay...).
    """

    circuit_name: str
    probabilities: Dict[str, float]
    counts: Optional[Counts] = None
    statevector: Optional[Statevector] = None
    density_matrix: Optional[DensityMatrix] = None
    shots: Optional[int] = None
    metadata: Dict[str, object] = dataclasses.field(default_factory=dict)

    def probability_of(self, bitstring: str) -> float:
        """Probability of a classical outcome, preferring sampled counts."""
        if self.counts is not None:
            return self.counts.probability(bitstring)
        return self.probabilities.get(bitstring, 0.0)

    def marginal_probability(self, clbit: int, value: int = 1) -> float:
        """Probability that classical bit ``clbit`` reads ``value``."""
        if self.counts is not None:
            return self.counts.marginal_probability(clbit, value)
        num_bits = len(next(iter(self.probabilities), ""))
        if clbit < 0 or clbit >= num_bits:
            raise SimulationError(
                f"bit index {clbit} out of range for {num_bits}-bit outcomes"
            )
        total = 0.0
        for key, prob in self.probabilities.items():
            if int(key[clbit]) == value:
                total += prob
        return total


#: Deferred-measurement validation — shared with the compiled-program path
#: (see :func:`repro.quantum.program.check_deferred_measurement`).
_check_deferred_measurement = check_deferred_measurement


@dataclasses.dataclass
class SweepReadout:
    """Read-out of one tiled program execution, as ``(elements, 2**num_clbits)`` arrays.

    Column ``j`` of each array is the classical-register outcome whose bit
    string (clbit 0 leftmost) reads ``j`` in binary, as in
    :meth:`~repro.quantum.measurement.Counts.to_array`.  Produced by the
    simulators' ``run_sweep_program`` methods; a tiled sweep never
    materialises per-element states, dictionaries or
    :class:`~repro.quantum.measurement.Counts`.

    Attributes
    ----------
    probabilities:
        Exact outcome probabilities; an outcome whose every source
        probability is non-positive reads ``0.0``, the outcomes
        :func:`~repro.quantum.measurement.exact_clbit_probabilities` drops.
    counts:
        Sampled int64 counts, or ``None`` for exact execution.
    num_clbits:
        Width of the classical register.
    outcome_order:
        The columns in *key order*: present outcomes in order of first
        appearance in measured-qubit index order (the key order of the
        per-circuit dictionary), then absent columns in ascending order.
        One row shared by every element when all elements have the same
        positive-outcome pattern, else one row per element.  Exact
        marginals sum in this order, so they match the per-circuit
        dictionary sum bit for bit.
    """

    probabilities: np.ndarray
    counts: Optional[np.ndarray]
    num_clbits: int
    outcome_order: np.ndarray

    def marginal_probabilities(self, clbit: int = 0, value: int = 0) -> np.ndarray:
        """Per-element ``P(clbit == value)``, preferring sampled counts.

        Bit-identical to :meth:`SimulationResult.marginal_probability` per
        element: with counts, an integer column sum over the shots; without,
        a sequential sum of the matching probabilities in key order.
        """
        if clbit < 0 or clbit >= self.num_clbits:
            raise SimulationError(
                f"bit index {clbit} out of range for {self.num_clbits}-bit outcomes"
            )
        columns = np.arange(2**self.num_clbits)
        matches = ((columns >> (self.num_clbits - 1 - clbit)) & 1) == value
        if self.counts is not None:
            return self.counts[:, matches].sum(axis=1) / self.counts.sum(axis=1)
        matched = np.where(matches, self.probabilities, 0.0)
        ordered = np.take_along_axis(matched, self.outcome_order, axis=1)
        # cumsum accumulates strictly left to right, like the dictionary sum.
        return np.cumsum(ordered, axis=1)[:, -1]


def _sample_counts(
    rng: np.random.Generator,
    probabilities: np.ndarray,
    order: np.ndarray,
    present: np.ndarray,
    shots: int,
) -> np.ndarray:
    """Sample every element's counts, consuming ``rng`` like the ``run`` loop.

    Each element draws over its present outcomes in key order (the first
    ``present`` columns of its ``order`` row), the category order
    :func:`~repro.quantum.measurement.counts_from_probabilities` uses for
    that element's dictionary.  One ``order`` row means every element has
    the same positive-outcome pattern (a SWAP-test sweep yields the
    ``0``/``1`` pair): one stacked multinomial call draws them all, and
    NumPy consumes the bit generator row by row, so the draws equal
    sequential per-element calls.  Otherwise each element draws on its own
    present subset.
    """
    counts = np.zeros(probabilities.shape, dtype=np.int64)
    if order.shape[0] == 1:
        keys = order[0, : present[0]]
        pvals = normalize_outcome_probabilities(probabilities[:, keys])
        counts[:, keys] = rng.multinomial(shots, pvals)
        return counts
    for element, row in enumerate(probabilities):
        keys = order[element, : present[element]]
        counts[element, keys] = arrays.multinomial(
            rng, shots, normalize_outcome_probabilities(row[keys])
        )
    return counts


def _clbit_readout(
    joint: np.ndarray,
    program: SweepProgram,
    rng: np.random.Generator,
    shots: Optional[int],
) -> SweepReadout:
    """Re-index a sweep's joint distribution into clbit order and sample it.

    Array form of :func:`~repro.quantum.measurement.exact_clbit_probabilities`
    followed by :func:`~repro.quantum.measurement.counts_from_probabilities`
    per element: non-positive entries are dropped, entries landing on one
    column accumulate in measured-qubit index order, and the draws are the
    per-element loop's.
    """
    columns = program.clbit_columns
    elements, outcomes = joint.shape
    keep = ~(joint <= 0.0)
    kept = np.where(keep, joint, 0.0).astype(float)
    probabilities = np.zeros((elements, 2**program.num_clbits))
    for index, column in enumerate(columns):
        probabilities[:, column] += kept[:, index]
    # Elements with one positive-outcome pattern share one key order: the
    # columns by their first kept measured-qubit index, absent ones last.
    patterns = keep[:1] if (keep == keep[:1]).all() else keep
    first = np.full((patterns.shape[0], probabilities.shape[1]), outcomes)
    np.minimum.at(
        first, (slice(None), columns), np.where(patterns, np.arange(outcomes), outcomes)
    )
    order = np.argsort(first, axis=1, kind="stable")
    counts = None
    if shots is not None:
        present = (first < outcomes).sum(axis=1)
        counts = _sample_counts(rng, probabilities, order, present, shots)
    return SweepReadout(probabilities, counts, program.num_clbits, order)


def swap_test_registers(
    program: SweepProgram,
) -> Optional[Tuple[SweepProgram, SweepProgram]]:
    """Registers A and B of a VER405-certified SWAP test, or ``None``.

    Each register becomes an ``n``-qubit program with the same bind
    columns, its qubits renumbered in cswap-pair order so that ``a_i`` and
    ``b_i`` both become qubit ``i``.  Any VER405 finding returns ``None``.
    """
    from repro.analysis.equiv import verify_swap_test

    if verify_swap_test(program):
        return None
    ancilla = program.measured_qubits[0]
    pairs = [
        step.qubits[1:]
        for step in program.steps
        if ancilla in step.qubits and len(step.qubits) == 3
    ]

    def register(order: Sequence[int], label: str) -> SweepProgram:
        position = {qubit: index for index, qubit in enumerate(order)}

        def remap(step: GateStep) -> GateStep:
            return dataclasses.replace(
                step,
                qubits=tuple(position[qubit] for qubit in step.qubits),
                fused_from=(
                    tuple(remap(source) for source in step.fused_from)
                    if step.fused_from
                    else step.fused_from
                ),
            )

        return SweepProgram(
            num_qubits=len(order),
            num_clbits=0,
            steps=[
                remap(step)
                for step in program.steps
                if set(step.qubits) <= position.keys()
            ],
            measured_qubits=(),
            clbits=(),
            num_columns=program.num_columns,
            parameters=program.parameters,
            column_sites=program.column_sites,
            name=f"{program.name}:{label}",
        )

    return (
        register([a for a, _ in pairs], "register_a"),
        register([b for _, b in pairs], "register_b"),
    )


def _collapsed_joint(
    registers: Tuple[SweepProgram, SweepProgram],
    bindings: np.ndarray,
    tile_plan: Optional[TilePlan],
) -> Optional[np.ndarray]:
    """``[(1 + F) / 2, (1 - F) / 2]`` per element, or ``None`` under the guard.

    Both registers evolve chunk by chunk; a chunk holds at most
    ``tile_plan.max_amplitudes // (2 * 2**n)`` elements, so the pair of
    register stacks stays inside the plan's budget.
    """
    register_a, register_b = registers
    total = bindings.shape[0]
    chunk = total
    if tile_plan is not None and tile_plan.max_amplitudes is not None:
        chunk = tile_plan.max_amplitudes // (2 * 2**register_a.num_qubits)
    engine = StatevectorEngine()
    fidelity = np.empty(total, dtype=float)
    for (start, stop, states_a), (_, _, states_b) in zip(
        register_a.evolve_chunks(bindings, engine, chunk),
        register_b.evolve_chunks(bindings, engine, chunk),
    ):
        fidelity[start:stop] = states_a.elementwise_fidelities(states_b)
    joint = np.stack([(1.0 + fidelity) / 2.0, (1.0 - fidelity) / 2.0], axis=1)
    if np.any(joint[:, 1] < COLLAPSE_MIN_P1):
        return None
    return joint


def _execute_sweep_readout(
    program: SweepProgram,
    bindings: np.ndarray,
    engine,
    rng: np.random.Generator,
    shots: Optional[int],
    tile_plan: Optional[TilePlan],
    registers: Optional[Tuple[SweepProgram, SweepProgram]] = None,
) -> SweepReadout:
    """Run one compiled sweep and sample its read-out (both engines).

    ``registers`` (statevector engine only) are the two halves of a
    certified SWAP test: the joint read-out then comes from their overlap
    unless the :data:`COLLAPSE_MIN_P1` guard sends the sweep back to the
    circuit.  Either way :func:`_clbit_readout` follows, so the sweep
    consumes the RNG draw-for-draw like the per-circuit ``run`` loop.
    """
    bindings = np.asarray(bindings, dtype=float)
    if bindings.shape[0] == 0:
        empty = np.zeros((0, 2 ** len(program.measured_qubits)))
        return _clbit_readout(empty, program, rng, shots)
    if not program.measured_qubits:
        raise SimulationError("cannot read out a sweep program without measurements")
    if tile_plan is not None and tile_plan.total_elements != bindings.shape[0]:
        raise SimulationError(
            f"{program.name}: tile plan covers {tile_plan.total_elements} "
            f"elements but the bindings have {bindings.shape[0]} rows"
        )
    joint = None
    if registers is not None:
        joint = _collapsed_joint(registers, bindings, tile_plan)
    if joint is None:
        joint = program.execute(bindings, engine, tile_plan=tile_plan)
    return _clbit_readout(joint, program, rng, shots)


class _SweepProgramCacheMixin:
    """Structure-keyed compile-once cache shared by both simulators.

    Each cache entry keeps the *source* compile of a circuit structure plus,
    when plan-time fusion is enabled (``optimize_programs=True`` on the
    simulator or ``REPRO_OPTIMIZE_PROGRAMS=1``), the certified optimised
    variant for the simulator's current noise model — re-derived from the
    cached source (never recompiled) when the model instance or its mutation
    version changes.
    """

    PROGRAM_CACHE_SIZE = 64

    def _init_program_cache(self, optimize_programs: Optional[bool] = None) -> None:
        self._program_cache = LRUCache(self.PROGRAM_CACHE_SIZE)
        self._program_cache_hits = 0
        self._program_cache_misses = 0
        #: Three-state fusion knob: ``None`` defers to the environment.
        self._optimize_programs = optimize_programs

    def _program_noise_model(self):
        """Noise model the fusion legality oracle consults (engine-specific)."""
        return None

    @property
    def program_cache_stats(self) -> Dict[str, int]:
        """Hit/miss statistics of the compiled-sweep-program cache."""
        return {
            "hits": self._program_cache_hits,
            "misses": self._program_cache_misses,
            "entries": len(self._program_cache),
        }

    def _grid_program(
        self, reference: QuantumCircuit, parameters: Sequence
    ) -> SweepProgram:
        """Compile (once per structure) the program of a *symbolic* grid sweep.

        ``reference`` carries genuine symbolic parameters (trained angles
        and data-encoder sites); ``parameters`` fixes the binding-column
        order, so it is part of the cache key.
        """
        key = (
            circuit_structure_key(reference),
            tuple(param.name for param in parameters),
        )
        entry = self._program_cache.get(key)
        if entry is None:
            entry = {
                "source": SweepProgram.compile(
                    reference,
                    bind_floats=False,
                    parameters=parameters,
                    name=f"{self.name}:grid({reference.name})",
                )
            }
            self._program_cache.put(key, entry)
            self._program_cache_misses += 1  # repro: noqa REP101 -- instrumentation counter; simulators are rebuilt per shard from specs, never shared across workers
        else:
            self._program_cache_hits += 1  # repro: noqa REP101 -- instrumentation counter; simulators are rebuilt per shard from specs, never shared across workers
        if not resolve_optimization(self._optimize_programs):
            return entry["source"]
        noise = self._program_noise_model()
        version = getattr(noise, "version", 0)
        cached = entry.get("optimized")
        if cached is None or cached[0] is not noise or cached[1] != version:
            entry["optimized"] = (
                noise,
                version,
                entry["source"].optimized(noise_model=noise),
            )
        return entry["optimized"][2]


class StatevectorSimulator(_SweepProgramCacheMixin):
    """Exact pure-state simulator.

    Parameters
    ----------
    seed:
        Seed for shot sampling (exact probabilities are deterministic).
    optimize_programs:
        Three-state plan-time fusion knob for the cached grid programs:
        ``True``/``False`` force it, ``None`` (default) defers to
        ``REPRO_OPTIMIZE_PROGRAMS``.  Fused programs are certified
        equivalent (VER4xx) before they execute.
    """

    name = "statevector_simulator"

    def __init__(
        self, seed: RandomState = None, optimize_programs: Optional[bool] = None
    ) -> None:
        self._rng = ensure_rng(seed)
        self._init_program_cache(optimize_programs)
        #: Per-program :func:`swap_test_registers` result (``None`` when the
        #: program is not a certified SWAP test), dropped with the program.
        self._swap_registers: "WeakKeyDictionary[SweepProgram, Optional[tuple]]" = (
            WeakKeyDictionary()
        )

    def run(
        self,
        circuit: QuantumCircuit,
        shots: Optional[int] = None,
        initial_state: Optional[Statevector] = None,
    ) -> SimulationResult:
        """Execute ``circuit`` and return a :class:`SimulationResult`.

        Measurements are deferred: the simulator evolves all unitary gates,
        computes the exact joint distribution of the measured qubits, and
        (optionally) samples ``shots`` outcomes from it.  Mid-circuit resets
        of *unmeasured-so-far* qubits are applied by projective sampling.
        Circuits that deferral cannot represent — a gate or reset on an
        already-measured qubit, or measuring the same qubit twice — raise
        :class:`~repro.exceptions.SimulationError`.
        """
        if circuit.num_parameters:
            unbound = [p.name for p in circuit.parameters]
            raise SimulationError(f"circuit has unbound parameters: {unbound}")
        state = initial_state.copy() if initial_state is not None else Statevector(circuit.num_qubits)
        if state.num_qubits != circuit.num_qubits:
            raise SimulationError(
                f"initial state has {state.num_qubits} qubits, circuit has {circuit.num_qubits}"
            )

        measured_qubits: List[int] = []
        measured_set: set = set()
        clbits: List[int] = []
        for instruction in circuit.instructions:
            if instruction.name == "barrier":
                continue
            _check_deferred_measurement(instruction, measured_set, self.name)
            if instruction.is_measurement:
                measured_qubits.extend(instruction.qubits)
                measured_set.update(instruction.qubits)
                clbits.extend(instruction.clbits)
                continue
            if instruction.name == "reset":
                state.reset(instruction.qubits[0], rng=self._rng)
                continue
            state.apply_instruction(instruction)

        probabilities: Dict[str, float] = {}
        counts: Optional[Counts] = None
        if measured_qubits:
            joint = state.probabilities(measured_qubits)
            probabilities = exact_clbit_probabilities(
                joint, measured_qubits, clbits, circuit.num_clbits
            )
            if shots is not None:
                counts = counts_from_probabilities(
                    probabilities, shots, rng=self._rng, num_bits=circuit.num_clbits
                )
        elif shots is not None:
            raise SimulationError("cannot sample shots from a circuit without measurements")

        return SimulationResult(
            circuit_name=circuit.name,
            probabilities=probabilities,
            counts=counts,
            statevector=state,
            shots=shots,
            metadata={"engine": self.name},
        )

    def statevector(self, circuit: QuantumCircuit) -> Statevector:
        """Convenience: final statevector of a measurement-free circuit."""
        stripped = circuit.remove_final_measurements()
        return self.run(stripped).statevector

    def run_sweep_program(
        self,
        program: SweepProgram,
        bindings: np.ndarray,
        shots: Optional[int] = None,
        tile_plan: Optional[TilePlan] = None,
    ) -> SweepReadout:
        """Execute a compiled sweep tile by tile, keeping only read-outs.

        The memory-bounded hot path behind
        :meth:`~repro.quantum.backend.Backend.sweep_grid_zero_probabilities`:
        per-element statevectors are dropped as each tile completes, and
        shot sampling consumes the RNG exactly like a loop of :meth:`run`.
        A program VER405 certifies as the canonical SWAP test collapses to
        the overlap of its two ``n``-qubit registers (see
        :func:`swap_test_registers`); every other program, and any sweep the
        :data:`COLLAPSE_MIN_P1` guard rejects, runs the full circuit.
        """
        if shots is not None and shots <= 0:
            raise SimulationError(f"shots must be positive or None, got {shots}")
        if program not in self._swap_registers:
            self._swap_registers[program] = swap_test_registers(program)
        return _execute_sweep_readout(
            program,
            bindings,
            StatevectorEngine(),
            self._rng,
            shots,
            tile_plan,
            registers=self._swap_registers[program],
        )


class DensityMatrixSimulator(_SweepProgramCacheMixin):
    """Mixed-state simulator with optional gate and readout noise.

    :meth:`run` evolves one :class:`DensityMatrix`, applying each gate's
    noise channels after it.  :meth:`run_sweep_program` executes a compiled
    sweep as :class:`~repro.quantum.batched_density.BatchedDensityMatrix`
    tiles with every gate's unitary and channels precomposed into one
    superoperator.
    """

    name = "density_matrix_simulator"

    def __init__(
        self,
        noise_model: Optional[NoiseModel] = None,
        seed: RandomState = None,
        optimize_programs: Optional[bool] = None,
    ) -> None:
        self.noise_model = noise_model if noise_model is not None else NoiseModel.ideal()
        self._rng = ensure_rng(seed)
        self._init_program_cache(optimize_programs)
        self._engine: Optional[DensitySuperoperatorEngine] = None

    def _program_noise_model(self) -> NoiseModel:
        """Fusion legality consults the simulator's live noise model."""
        return self.noise_model

    def _program_engine(self) -> DensitySuperoperatorEngine:
        """The precomposing superoperator engine for the *current* noise model.

        ``noise_model`` is a public attribute callers may swap; the engine
        (and with it every memoised per-program superoperator plan) is
        rebuilt whenever the model instance changes.
        """
        if self._engine is None or self._engine.noise_model is not self.noise_model:
            self._engine = DensitySuperoperatorEngine(self.noise_model)
        return self._engine

    def run(
        self,
        circuit: QuantumCircuit,
        shots: Optional[int] = 1024,
        initial_state: Optional[DensityMatrix] = None,
    ) -> SimulationResult:
        """Execute ``circuit`` under the configured noise model."""
        if circuit.num_parameters:
            unbound = [p.name for p in circuit.parameters]
            raise SimulationError(f"circuit has unbound parameters: {unbound}")
        state = initial_state.copy() if initial_state is not None else DensityMatrix(circuit.num_qubits)
        if state.num_qubits != circuit.num_qubits:
            raise SimulationError(
                f"initial state has {state.num_qubits} qubits, circuit has {circuit.num_qubits}"
            )

        measured_qubits: List[int] = []
        measured_set: set = set()
        clbits: List[int] = []
        channel_plans: Dict[Tuple[str, int], list] = {}
        for instruction in circuit.instructions:
            if instruction.name == "barrier":
                continue
            _check_deferred_measurement(instruction, measured_set, self.name)
            if instruction.is_measurement:
                measured_qubits.extend(instruction.qubits)
                measured_set.update(instruction.qubits)
                clbits.extend(instruction.clbits)
                continue
            if instruction.name == "reset":
                state.reset(instruction.qubits[0], rng=self._rng)
                continue
            state.apply_instruction(instruction)
            for channel, width in self._gate_channel_plan(
                channel_plans, instruction.name, instruction.num_qubits
            ):
                if width == instruction.num_qubits:
                    state.apply_kraus(channel, instruction.qubits)
                else:
                    for qubit in instruction.qubits:
                        state.apply_kraus(channel, (qubit,))

        probabilities: Dict[str, float] = {}
        counts: Optional[Counts] = None
        if measured_qubits:
            joint = state.probabilities(measured_qubits)
            joint = self._apply_readout_error(joint, measured_qubits)
            probabilities = exact_clbit_probabilities(
                joint, measured_qubits, clbits, circuit.num_clbits
            )
            if shots is not None:
                counts = counts_from_probabilities(
                    probabilities, shots, rng=self._rng, num_bits=circuit.num_clbits
                )
        elif shots is not None:
            raise SimulationError("cannot sample shots from a circuit without measurements")

        return SimulationResult(
            circuit_name=circuit.name,
            probabilities=probabilities,
            counts=counts,
            density_matrix=state,
            shots=shots,
            metadata={"engine": self.name, "noisy": not self.noise_model.is_ideal},
        )

    def _gate_channel_plan(
        self,
        plans: Dict[Tuple[str, int], list],
        gate_name: str,
        gate_qubits: int,
    ) -> list:
        """Noise channels for one gate position, resolved and width-checked once.

        ``plans`` memoises the per-(gate name, qubit count) lookup for the
        duration of one :meth:`run` call, hoisting the ``gate_channels`` list
        assembly and the channel-width computation out of the per-gate loop.
        Each entry pairs a channel's Kraus operators with its qubit width.
        """
        key = (gate_name, gate_qubits)
        plan = plans.get(key)
        if plan is None:
            plan = []
            for channel in self.noise_model.gate_channels(gate_name, gate_qubits):
                channel_width = int(np.log2(np.asarray(channel[0]).shape[0]))
                if channel_width not in (gate_qubits, 1):
                    raise SimulationError(
                        f"noise channel width {channel_width} incompatible with gate "
                        f"'{gate_name}' on {gate_qubits} qubit(s)"
                    )
                plan.append((channel, channel_width))
            plans[key] = plan
        return plan

    def _apply_readout_error(
        self, joint: np.ndarray, measured_qubits: Sequence[int]
    ) -> np.ndarray:
        """Convolve outcome distributions with per-qubit readout error.

        Delegates to :func:`repro.quantum.noise.apply_readout_error`, the
        single implementation shared with the compiled-program density
        engine so both read-out paths stay bit-identical.
        """
        return apply_readout_error(joint, measured_qubits, self.noise_model)

    def run_sweep_program(
        self,
        program: SweepProgram,
        bindings: np.ndarray,
        shots: Optional[int] = 1024,
        tile_plan: Optional[TilePlan] = None,
    ) -> SweepReadout:
        """Execute a compiled noisy sweep tile by tile, keeping only read-outs.

        Every gate applies its precomposed superoperator (unitary and noise
        folded together at plan time — no per-gate channel resolution), the
        readout-error convolution and classical-bit re-indexing are the
        helpers :meth:`run` uses, and shot sampling consumes the RNG exactly
        like a loop of :meth:`run`.  Per-element density matrices are never
        materialised, so peak memory is the largest tile's
        ``tile x 4**n`` stack rather than the whole sweep's.  Tiles stop at
        the program's certified read-out fold when it fits the tile plan
        (see :meth:`~repro.quantum.program.SweepProgram.execute`).
        """
        if shots is not None and shots <= 0:
            raise SimulationError(f"shots must be positive or None, got {shots}")
        return _execute_sweep_readout(
            program, bindings, self._program_engine(), self._rng, shots, tile_plan
        )
