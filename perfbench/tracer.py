"""Span tracing around the public calls into each layer of ``repro``.

The benchmark's traced run installs thin wrappers (see :func:`install`) at
the names callers look functions up by, records one span per call (name,
start, end, parent, and a few per-call counts) in memory, and removes the
wrappers again afterwards.  Nothing in ``repro`` itself is changed; with the
wrappers removed, the library runs exactly as it does untraced.

:func:`layer_metrics` turns the spans of one traced scope into the per-layer
metrics listed in ``perfbench/layers.json``.  A layer's *self* time is its
spans' durations minus the part their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence

NAME, START, END, PARENT, ATTRS = range(5)

#: Span names of the estimator layer.
ESTIMATOR_SPANS = (
    "estimator.fidelity_matrix",
    "estimator.data_state_matrix",
    "estimator.trained_statevectors",
)
BACKEND_SPANS = ("backend.grid", "backend.fallback")
#: ``verify_shared_prefix`` calls ``shared_prefix_length`` itself.
CERT_SPANS = ("cert.verify", "cert.prefix")
KERNEL_SPANS = ("kernel.sv", "kernel.dm")


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index, attrs]`` per span, in open order.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.program_cache = _ProgramCacheDeltas()

    def open(self, name: str, attrs: Optional[dict] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, attrs or {}])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} was innermost")

    def innermost(self) -> Optional[str]:
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def descendants(self, root: int) -> List[int]:
        """Indices of every span opened inside span ``root`` (spans nest)."""
        end = self.spans[root][END]
        out = []
        for index in range(root + 1, len(self.spans)):
            if self.spans[index][START] > end:
                break
            out.append(index)
        return out

    def write_chrome_trace(self, path: str) -> None:
        """Write every span as Chrome trace events (``chrome://tracing``)."""
        origin = self.spans[0][START] if self.spans else 0.0
        events = [
            {
                "name": span[NAME],
                "ph": "X",
                "pid": 0,
                "tid": 0,
                "ts": (span[START] - origin) * 1e6,
                "dur": (span[END] - span[START]) * 1e6,
                "args": {"parent": span[PARENT], **span[ATTRS]},
            }
            for span in self.spans
            if span[END] is not None
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events}, handle)


# --------------------------------------------------------------------------- #
# Wrappers
# --------------------------------------------------------------------------- #

#: ``before(args, kwargs) -> state`` runs before the call; ``after(state,
#: args, result) -> attrs`` after it and sets the span's attributes.
Hook = Optional[Callable]


def _wrap(tracer: Tracer, name: str, fn: Callable, before: Hook = None,
          after: Hook = None, inside: Optional[str] = None) -> Callable:
    """Wrap ``fn`` so every call records a span named ``name``.

    ``inside`` restricts recording to calls made while a span of that name
    is innermost (used for the array kernels, which other layers also call).
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if inside is not None and tracer.innermost() != inside:
            return fn(*args, **kwargs)
        state = before(args, kwargs) if before is not None else None
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            tracer.spans[index][ATTRS] = after(state, args, result)
        return result

    return wrapper


class _Patches:
    """Installed wrappers and the originals they replaced."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[tuple] = []

    def patch(self, owner, attribute: str, name: str, before: Hook = None,
              after: Hook = None, inside: Optional[str] = None) -> None:
        raw = owner.__dict__[attribute]
        if isinstance(raw, classmethod):
            replacement = classmethod(_wrap(self.tracer, name, raw.__func__, before, after, inside))
        else:
            replacement = _wrap(self.tracer, name, raw, before, after, inside)
        self._saved.append((owner, attribute, raw))
        setattr(owner, attribute, replacement)

    def patch_overrides(self, classes: Sequence[type], attribute: str, name: str,
                        before: Hook = None, after: Hook = None) -> None:
        """Wrap ``attribute`` on every class in ``classes`` that defines it."""
        for cls in classes:
            if attribute in cls.__dict__:
                self.patch(cls, attribute, name, before, after)

    def restore(self) -> None:
        for owner, attribute, raw in reversed(self._saved):
            setattr(owner, attribute, raw)
        self._saved.clear()


def _subclasses(root: type) -> List[type]:
    out, pending = [], [root]
    while pending:
        cls = pending.pop()
        out.append(cls)
        pending.extend(cls.__subclasses__())
    return out


def _kernel_bytes(factor: int):
    """Bytes one kernel call reads plus writes: the whole state stack twice."""

    def before(args, _kwargs):
        from repro import arrays

        state = args[0]
        return 2 * state.batch_size * factor**state.num_qubits * arrays.complex_itemsize()

    return before


def _attrs_from_state(state, _args, _result):
    return {"bytes": state}


def _fidelity_elements(_state, _args, result):
    return {"elements": int(result.shape[0] * result.shape[1]) if result.ndim == 2 else int(result.size)}


def _rows(_state, _args, result):
    return {"rows": int(result.shape[0])}


def _transpile_before(args, _kwargs):
    cache = args[0]
    return cache.hits, cache.misses


def _transpile_after(state, args, _result):
    cache = args[0]
    return {"hits": cache.hits - state[0], "misses": cache.misses - state[1]}


class _ProgramCacheDeltas:
    """Program-cache hits/misses attributed to each ``run_sweep_program`` call.

    The cache lookup happens in the backend just before it calls
    ``run_sweep_program``; each call reports how far the simulator's public
    ``program_cache_stats`` moved since the previous call on that simulator.
    """

    def __init__(self) -> None:
        #: Simulators seen so far, with their stats at the last traced call.
        self._seen: List[list] = []

    def resync(self) -> None:
        """Forget the cache traffic of untraced work (wrappers removed)."""
        for entry in self._seen:
            stats = entry[0].program_cache_stats
            entry[1] = (stats["hits"], stats["misses"])

    def before(self, args, kwargs):
        simulator = args[0]
        bindings = args[2] if len(args) > 2 else kwargs["bindings"]
        stats = simulator.program_cache_stats
        entry = next((item for item in self._seen if item[0] is simulator), None)
        if entry is None:
            entry = [simulator, (0, 0)]
            self._seen.append(entry)
        last = entry[1]
        entry[1] = (stats["hits"], stats["misses"])
        return {
            "cache_hits": stats["hits"] - last[0],
            "cache_misses": stats["misses"] - last[1],
            "elements": int(len(bindings)),
        }


def install(tracer: Tracer, captured: Optional[dict] = None) -> _Patches:
    """Install every layer wrapper; returns the handle that removes them."""
    from repro import arrays
    from repro.analysis import equiv
    from repro.core.circuit_builder import DiscriminatorCircuitBuilder
    from repro.core.gradient import GradientRule
    from repro.core.swap_test import AnalyticFidelityEstimator, FidelityEstimator
    from repro.core.trainer import Trainer
    from repro.encoding.base import DataEncoder
    import repro.hardware  # noqa: F401  (defines the IBMQ / IonQ backend subclasses)
    from repro.hardware.job import JobLedger
    from repro.quantum import gates, simulator
    from repro.quantum.backend import Backend
    from repro.quantum.batched import BatchedStatevector
    from repro.quantum.batched_density import BatchedDensityMatrix
    from repro.quantum.program import SweepProgram
    from repro.quantum.transpiler import TranspileCache

    captured = captured if captured is not None else {}
    patches = _Patches(tracer)
    keep = lambda state, _args, _result: state  # noqa: E731

    patches.patch(Trainer, "fit", "trainer.fit")
    patches.patch_overrides(_subclasses(GradientRule), "gradient_batched", "gradient")
    patches.patch_overrides(
        _subclasses(FidelityEstimator), "fidelity_matrix", "estimator.fidelity_matrix",
        after=_fidelity_elements,
    )
    patches.patch(AnalyticFidelityEstimator, "data_state_matrix", "estimator.data_state_matrix")
    patches.patch(AnalyticFidelityEstimator, "trained_statevectors", "estimator.trained_statevectors")
    patches.patch_overrides(_subclasses(DataEncoder), "angle_matrix", "encoding.angle_matrix")
    patches.patch(DiscriminatorCircuitBuilder, "grid_bindings", "builder.grid_bindings", after=_rows)

    backends = _subclasses(Backend)
    patches.patch_overrides(backends, "sweep_grid_zero_probabilities", "backend.grid")
    for fallback in (
        "sweep_zero_probabilities",
        "ancilla_zero_probability",
        "ancilla_zero_probabilities",
        "run_batch",
    ):
        patches.patch_overrides(backends, fallback, "backend.fallback")
    patches.patch(
        TranspileCache, "symbolic_template", "transpile.symbolic_template",
        before=_transpile_before, after=_transpile_after,
    )

    deltas = tracer.program_cache
    deltas.resync()
    for engine in (simulator.StatevectorSimulator, simulator.DensityMatrixSimulator):
        patches.patch(engine, "run_sweep_program", "simulator.run_sweep_program",
                      before=deltas.before, after=keep)
    patches.patch(simulator, "exact_clbit_probabilities", "readout.exact")
    patches.patch(simulator.SweepReadout, "marginal_probabilities", "readout.marginal")

    def execute_before(args, kwargs):
        program, bindings, plan = args[0], args[1], kwargs.get("tile_plan")
        captured.update(program=program, bindings=bindings, plan=plan)
        tiles = plan.num_tiles if plan is not None else 1
        return {"tiles": tiles, "elements": len(bindings), "program": program.name}

    patches.patch(SweepProgram, "compile", "program.compile")
    patches.patch(SweepProgram, "execute", "program.execute", before=execute_before, after=keep)
    patches.patch(
        SweepProgram, "evolve", "program.evolve",
        before=lambda args, _kwargs: {"program": args[0].name}, after=keep,
    )
    patches.patch(gates, "gate_matrix_batch", "gates.batch")

    patches.patch(BatchedStatevector, "apply_matrix", "kernel.sv",
                  before=_kernel_bytes(2), after=_attrs_from_state)
    patches.patch(arrays, "einsum", "kernel.sv.einsum", inside="kernel.sv")
    for method in ("apply_superoperator", "apply_matrix"):
        patches.patch(BatchedDensityMatrix, method, "kernel.dm",
                      before=_kernel_bytes(4), after=_attrs_from_state)
    patches.patch(arrays, "matmul", "kernel.dm.matmul", inside="kernel.dm")

    patches.patch(equiv, "shared_prefix_length", "cert.prefix")
    patches.patch(equiv, "verify_shared_prefix", "cert.verify")
    patches.patch(JobLedger, "record", "ledger.record")
    return patches


@contextlib.contextmanager
def installed(tracer: Tracer, captured: Optional[dict] = None) -> Iterator[_Patches]:
    """Context manager around :func:`install` that always restores."""
    patches = install(tracer, captured)
    try:
        yield patches
    finally:
        patches.restore()


# --------------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------------- #


def _has_ancestor(spans, index: int, names: Sequence[str]) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] in names:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(tracer: Tracer, roots: Sequence[int]) -> Dict[str, float]:
    """Per-layer totals over the spans opened inside the ``roots`` spans."""
    spans = tracer.spans
    scope = [index for root in roots for index in tracer.descendants(root)]
    duration = {index: spans[index][END] - spans[index][START] for index in scope}
    child_time: Dict[int, float] = {}
    for index in scope:
        parent = spans[index][PARENT]
        child_time[parent] = child_time.get(parent, 0.0) + duration[index]

    calls: Dict[str, int] = {}
    total: Dict[str, float] = {}
    self_time: Dict[str, float] = {}
    for index in scope:
        name = spans[index][NAME]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + duration[index]
        self_time[name] = self_time.get(name, 0.0) + duration[index] - child_time.get(index, 0.0)

    def attr_sum(name: str, key: str, where: Callable[[int], bool] = lambda _i: True) -> float:
        return sum(
            spans[index][ATTRS].get(key, 0)
            for index in scope
            if spans[index][NAME] == name and where(index)
        )

    def count(name: str) -> int:
        return calls.get(name, 0)

    def seconds(name: str) -> float:
        return total.get(name, 0.0)

    def own(names: Sequence[str]) -> float:
        return sum(self_time.get(name, 0.0) for name in names)

    metrics: Dict[str, float] = {}
    metrics["trainer.self_s"] = own(["trainer.fit"])
    metrics["gradient.calls"] = count("gradient")
    metrics["gradient.self_s"] = own(["gradient"])

    outer_estimator = lambda i: not _has_ancestor(spans, i, ESTIMATOR_SPANS)  # noqa: E731
    metrics["estimator.calls"] = sum(
        1 for index in scope
        if spans[index][NAME] in ESTIMATOR_SPANS and outer_estimator(index)
    )
    metrics["estimator.elements"] = attr_sum("estimator.fidelity_matrix", "elements", outer_estimator)
    metrics["estimator.self_s"] = own(ESTIMATOR_SPANS)
    data_calls = count("estimator.data_state_matrix")
    data_evolves = sum(
        1 for index in scope
        if spans[index][NAME] == "program.evolve"
        and spans[index][ATTRS].get("program") == "data_state"
    )
    metrics["analytic.data_cache_hit_ratio"] = 1.0 - data_evolves / data_calls if data_calls else 0.0

    metrics["encoding.calls"] = count("encoding.angle_matrix")
    metrics["encoding.s"] = seconds("encoding.angle_matrix")
    metrics["builder.bindings_rows"] = attr_sum("builder.grid_bindings", "rows")
    metrics["builder.bindings_s"] = seconds("builder.grid_bindings")

    metrics["backend.grid_sweeps"] = sum(
        1 for index in scope
        if spans[index][NAME] == "backend.grid" and not _has_ancestor(spans, index, BACKEND_SPANS)
    )
    metrics["backend.fallback_calls"] = sum(
        1 for index in scope
        if spans[index][NAME] == "backend.fallback" and not _has_ancestor(spans, index, BACKEND_SPANS)
    )
    metrics["backend.self_s"] = own(BACKEND_SPANS)

    metrics["transpile.hits"] = attr_sum("transpile.symbolic_template", "hits")
    metrics["transpile.misses"] = attr_sum("transpile.symbolic_template", "misses")
    metrics["transpile.s"] = seconds("transpile.symbolic_template")

    metrics["simulator.program_cache.hits"] = attr_sum("simulator.run_sweep_program", "cache_hits")
    metrics["simulator.program_cache.misses"] = attr_sum("simulator.run_sweep_program", "cache_misses")
    metrics["readout.elements"] = attr_sum("simulator.run_sweep_program", "elements")
    metrics["readout.exact_s"] = seconds("readout.exact")
    # run_sweep_program minus its execute and exact read-out children: the
    # stacked multinomial draw and the result assembly.
    metrics["readout.sample_s"] = own(["simulator.run_sweep_program"])
    metrics["readout.marginal_s"] = seconds("readout.marginal")

    metrics["program.compiles"] = count("program.compile")
    metrics["program.compile_s"] = seconds("program.compile")
    tiles = attr_sum("program.execute", "tiles")
    metrics["program.tiles"] = tiles
    metrics["program.tile_elements"] = attr_sum("program.execute", "elements") / tiles if tiles else 0.0
    program_spans = ("program.execute", "program.evolve")
    kernel_in_program = sum(
        duration[index] for index in scope
        if spans[index][NAME] in KERNEL_SPANS and _has_ancestor(spans, index, program_spans)
    )
    metrics["program.self_s"] = (
        sum(duration[index] for index in scope
            if spans[index][NAME] in program_spans
            and not _has_ancestor(spans, index, program_spans))
        - kernel_in_program
    )

    metrics["gates.calls"] = count("gates.batch")
    metrics["gates.s"] = seconds("gates.batch")

    for kind in ("sv", "dm"):
        name = f"kernel.{kind}"
        metrics[f"{name}.calls"] = count(name)
        metrics[f"{name}.s"] = seconds(name)
        metrics[f"{name}.bytes"] = attr_sum(name, "bytes")
        metrics[f"{name}.gbps"] = (
            metrics[f"{name}.bytes"] / metrics[f"{name}.s"] / 1e9 if metrics[f"{name}.s"] else 0.0
        )
    metrics["kernel.sv.einsum_s"] = seconds("kernel.sv.einsum")
    metrics["kernel.dm.matmul_s"] = seconds("kernel.dm.matmul")
    metrics["kernel.dm.layout_s"] = metrics["kernel.dm.s"] - metrics["kernel.dm.matmul_s"]

    metrics["cert.calls"] = count("cert.verify")
    metrics["cert.s"] = sum(
        duration[index] for index in scope
        if spans[index][NAME] in CERT_SPANS and not _has_ancestor(spans, index, CERT_SPANS)
    )
    metrics["ledger.records"] = count("ledger.record")
    metrics["ledger.s"] = seconds("ledger.record")
    metrics["trace.spans"] = len(scope)
    return metrics


def uncovered_fraction(tracer: Tracer, root: int) -> float:
    """Share of span ``root``'s wall time that no layer span covers."""
    spans = tracer.spans
    wall = spans[root][END] - spans[root][START]
    covered = sum(
        spans[index][END] - spans[index][START]
        for index in tracer.descendants(root)
        if spans[index][PARENT] == root
    )
    return (wall - covered) / wall if wall > 0 else 0.0
