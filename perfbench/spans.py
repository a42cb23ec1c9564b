"""In-memory span recorder and the layer table of the traced run.

The traced run measures each layer from the outside: :func:`install`
replaces the attribute a caller looks up (a module global such as
``repro.simulation.batch.height_lower_bound`` or a class attribute such
as ``PlacementService.place``) with a wrapper that records one span per
call.  Nothing under ``src/`` changes, and the untraced runs never load
this module.

A span is ``(layer, parent, start_ns, end_ns)``; a layer's self time is
the summed duration of its spans minus the part their child spans
cover.
"""

from __future__ import annotations

import functools
import inspect
import time
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    """Records spans in memory; :meth:`write` dumps them when the run ends."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self.spans: List[Optional[Tuple[int, int, int, int]]] = []
        self._stack: List[int] = []
        #: per-call observations made by ``after`` hooks (backend names,
        #: sampled instances), read after the traced phase
        self.notes: Dict[str, list] = {}

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def wrap(self, layer: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` with one span per call; ``after(tracer, args, result)`` runs
        once the span has ended."""
        lid = self._layer_id(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (lid, parent, start, clock())
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def wrap_iter(self, layer: str, fn: Callable) -> Callable:
        """Generator function ``fn`` with one span per item it produces."""
        lid = self._layer_id(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                idx = len(spans)
                spans.append(None)
                stack.append(idx)
                parent = stack[-2] if len(stack) > 1 else -1
                start = clock()
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    spans[idx] = (lid, parent, start, clock())
                    stack.pop()
                yield value

        return traced

    def note(self, key: str, value) -> None:
        self.notes.setdefault(key, []).append(value)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``calls`` (outermost spans only), ``total_s``, ``self_s``."""
        child_ns = [0] * len(self.spans)
        for lid, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Dict[str, Dict[str, float]] = {
            layer: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for layer in self.layers
        }
        for idx, (lid, parent, start, end) in enumerate(self.spans):
            row = out[self.layers[lid]]
            row["self_s"] += (end - start - child_ns[idx]) / 1e9
            # a layer re-entered from inside itself is one call, timed once
            if parent < 0 or self.spans[parent][0] != lid:
                row["calls"] += 1
                row["total_s"] += (end - start) / 1e9
        return out

    def write(self, path: str) -> None:
        """One ``index parent layer start_ns end_ns`` line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tlayer\tstart_ns\tend_ns\n")
            for idx, (lid, parent, start, end) in enumerate(self.spans):
                fh.write(f"{idx}\t{parent}\t{self.layers[lid]}\t{start}\t{end}\n")


def _patch(owner, attr: str, wrapper_factory: Callable[[Callable], Callable]) -> None:
    original = inspect.getattr_static(owner, attr)
    if isinstance(original, property):
        setattr(owner, attr, property(wrapper_factory(original.fget)))
    else:
        setattr(owner, attr, wrapper_factory(original))


def _note_instance(tracer: Tracer, args, instance) -> None:
    tracer.note("instances", instance)


def _note_backend(tracer: Tracer, args, result) -> None:
    engine = args[0]
    runs = len(result) if isinstance(result, list) else 1
    tracer.note("replay_backends", (engine.backend, runs))


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the four workloads reach.

    Layers are named after the module that owns the code; a layer's
    self time excludes every wrapped layer it calls into.
    """
    import repro.analysis.sweep as sweep_mod
    import repro.experiments.figure4 as figure4_mod
    import repro.simulation.batch as batch_mod
    import repro.simulation.parallel as parallel_mod
    import repro.verify.generators as generators
    import repro.verify.harness as harness
    from repro.algorithms.base import AnyFitAlgorithm
    from repro.simulation.fastpath import FastEngine
    from repro.streaming.engine import StreamBin
    from repro.streaming.service import PlacementService
    from repro.workloads.base import WorkloadGenerator

    def patch(owner, attr, layer, after=None):
        _patch(owner, attr, lambda fn: tracer.wrap(layer, fn, after))

    # instance generation: every generator class that defines sample(),
    # and the verify corpus recipes that hold pre-bound sample methods
    pending = list(WorkloadGenerator.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "sample" in vars(cls) and not inspect.isabstract(cls):
            patch(cls, "sample", "workloads.sample", _note_instance)
    recipes = generators.CORPUS_RECIPES
    for k, (name, build) in enumerate(recipes):
        if isinstance(getattr(build, "__self__", None), WorkloadGenerator):
            recipes[k] = (name, tracer.wrap("workloads.sample", build, _note_instance))

    # sweep path, outermost first
    patch(figure4_mod, "sweep_cell", "analysis.sweep_cell")
    patch(sweep_mod, "summarize", "analysis.summarize")
    patch(parallel_mod, "parallel_sweep", "parallel.parallel_sweep")
    patch(batch_mod.BatchRunner, "run_units", "batch.run_units")
    patch(batch_mod, "height_lower_bound", "optimum.lower_bound")
    patch(batch_mod, "ReplayContext", "fastpath.context")
    for attr in ("run", "run_assignment", "run_trials"):
        patch(FastEngine, attr, "fastpath.replay", _note_backend)

    # service path
    patch(PlacementService, "place", "service.place")
    patch(PlacementService, "depart", "service.depart")
    patch(PlacementService, "stats", "service.stats")
    patch(PlacementService, "cost", "service.stats")
    patch(AnyFitAlgorithm, "dispatch", "algorithms.dispatch")
    patch(AnyFitAlgorithm, "notify_departure", "algorithms.notify_departure")
    patch(StreamBin, "pack", "streaming.pack")
    patch(StreamBin, "remove", "streaming.remove")

    # verify harness: the names run_verify looks up in its own module
    for attr, layer in (
        ("run", "engine.run"),
        ("compare_with_reference", "verify.reference"),
        ("audit_instance", "verify.invariants"),
        ("audit_run", "verify.invariants"),
        ("cost_check", "verify.invariants"),
        ("compare_with_fastpath", "verify.fastpath_oracle"),
        ("compare_with_streaming", "verify.streaming_oracle"),
        ("compare_with_repacking", "verify.repacking_oracle"),
        ("repacking_budget_check", "verify.repack_audit"),
        ("compare_with_batch", "verify.batch_oracle"),
        ("instrumented_equality_check", "verify.instrumented"),
        ("sweep_equality_check", "verify.sweep_resume"),
        ("resume_equality_check", "verify.sweep_resume"),
        ("must_exceed_report", "adversaries.must_exceed"),
        ("mutation_smoke_test", "verify.mutation"),
    ):
        patch(harness, attr, layer)
    _patch(harness, "corpus", lambda fn: tracer.wrap_iter("verify.corpus", fn))
