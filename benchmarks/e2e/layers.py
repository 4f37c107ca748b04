"""Outside-in layer tracing for the end-to-end benchmark.

The simulator is not instrumented for this benchmark.  Instead, a
:class:`Tracer` replaces public entry points of each layer -- methods at
class level, functions at module level -- with timing wrappers for the
duration of a traced pass, then puts the originals back.

* Every wrapped call adds to its entry point's call count and *self
  time*: its duration minus the duration of the wrapped calls nested
  inside it.  Summed over a layer's entry points this is the layer's own
  cost, with no double counting of the layers it calls.
* Entry points marked ``span`` (the runner: sweeps and cells) also
  become spans with parent ids, exported in Chrome trace-event format.
* ``before`` hooks see the arguments of a call; they let
  :class:`SimulatorCounters` collect the objects whose public counters
  (detector events, trace-store hits) are read once tracing ends.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

#: Every layer, in report order.
LAYERS = (
    "uarch.pipeline", "uarch.trace", "core.sensor", "core.detector",
    "core.tuning", "baselines", "power.supply", "core.kernel",
    "trace.store", "sim.simulation", "sim.runner",
)

#: Layers whose entry points run once per simulated cycle; they also get
#: a per-call cost metric.
PER_CYCLE_LAYERS = (
    "uarch.pipeline",
    "core.sensor",
    "core.detector",
    "core.tuning",
    "baselines",
    "power.supply",
)


@dataclass
class EntryPoint:
    """One wrapped callable: ``owner.attribute``, attributed to ``layer``."""

    owner: object
    attribute: str
    layer: str
    span: bool = False
    before: Optional[Callable[[tuple], None]] = None

    @property
    def name(self) -> str:
        return f"{self.owner.__name__}.{self.attribute}"


class Tracer:
    """Counts calls and self time per entry point while installed."""

    def __init__(self, entry_points, clock=time.perf_counter):
        self.entry_points = list(entry_points)
        self.clock = clock
        self.epoch = clock()
        self.epoch_unix = time.time()
        #: per entry point: [calls, self seconds, calls with no nested call]
        self.stats: Dict[str, list] = {
            point.name: [0, 0.0, 0] for point in self.entry_points
        }
        #: finished spans: name, cat, start/dur (s since epoch), ids, args
        self.spans: List[dict] = []
        self._frames: List[float] = []  # nested seconds of each open call
        self._open_spans: List[int] = []
        self._span_count = 0
        self._saved: List[tuple] = []

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        for point in self.entry_points:
            raw = point.owner.__dict__.get(point.attribute)
            if raw is None:
                raise AttributeError(f"{point.name} is not defined there")
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self._wrap(raw.__func__, point))
            else:
                patched = self._wrap(raw, point)
            self._saved.append((point.owner, point.attribute, raw))
            setattr(point.owner, point.attribute, patched)
        try:
            yield self
        finally:
            while self._saved:
                owner, attribute, raw = self._saved.pop()
                setattr(owner, attribute, raw)

    @contextlib.contextmanager
    def span(self, name: str):
        """A harness-level span (workload, pass) around the block."""
        span_id = self._open()
        start = self.clock()
        try:
            yield
        finally:
            self._close(span_id, name, "harness", start, {})

    # ------------------------------------------------------------------
    def _open(self) -> int:
        self._span_count += 1
        self._open_spans.append(self._span_count)
        return self._span_count

    def _close(self, span_id, name, cat, start, args: dict) -> None:
        end = self.clock()
        self._open_spans.pop()
        self.spans.append({
            "name": name,
            "cat": cat,
            "start": start - self.epoch,
            "dur": end - start,
            "id": span_id,
            "parent": self._open_spans[-1] if self._open_spans else None,
            "args": args,
        })

    def _wrap(self, fn, point: EntryPoint):
        frames = self._frames
        clock = self.clock
        stat = self.stats[point.name]
        before = point.before

        # Per-cycle entry points take this path millions of times per
        # pass, so the accounting is inlined rather than shared.
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frames.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = frames.pop()
                stat[0] += 1
                stat[1] += elapsed - nested
                if nested == 0.0:
                    stat[2] += 1
                if frames:
                    frames[-1] += elapsed

        if point.span:
            timed = wrapper

            def wrapper(*args, **kwargs):
                span_id = self._open()
                start = clock()
                try:
                    return timed(*args, **kwargs)
                finally:
                    self._close(
                        span_id, point.name, point.layer, start,
                        _span_args(args, kwargs),
                    )

        return wrapper

    # ------------------------------------------------------------------
    def layer_totals(self) -> Dict[str, dict]:
        """Calls and self seconds per layer, over everything traced."""
        totals: Dict[str, dict] = {}
        for point in self.entry_points:
            calls, self_s, _ = self.stats[point.name]
            layer = totals.setdefault(point.layer, {"calls": 0, "self_s": 0.0})
            layer["calls"] += calls
            layer["self_s"] += self_s
        return totals

    def leaf_calls(self, name: str) -> int:
        """Calls of ``name`` that made no nested wrapped call."""
        return self.stats[name][2]


def _span_args(args, kwargs) -> dict:
    """Benchmark and seed of a runner call, when it names them."""
    out = {}
    if len(args) > 1 and isinstance(args[1], str):
        out["benchmark"] = args[1]
    if "seed" in kwargs:
        out["seed"] = kwargs["seed"]
    return out


class SimulatorCounters:
    """Work counts read from public attributes of objects the calls used.

    The wrappers only collect references (a controller per simulation, a
    store per runner); the counters those objects keep themselves are
    read once, in :meth:`totals`, so the hot path stays untouched.
    """

    def __init__(self):
        self.controllers: list = []
        self.stores: Dict[int, tuple] = {}
        self.kernel_cycles = 0

    def on_simulation(self, args) -> None:
        self.controllers.append(args[0].controller)

    def on_store(self, args) -> None:
        store = args[0]
        if id(store) not in self.stores:
            self.stores[id(store)] = (store, dict(store.stats))

    def on_kernel_trace(self, args) -> None:
        self.kernel_cycles += len(args[1])

    def on_kernel_batch(self, args) -> None:
        self.kernel_cycles += sum(len(trace) for trace in args[1])

    def totals(self) -> Dict[str, int]:
        out = {
            "core.detector.events": 0,
            "core.detector.comparisons": 0,
            "core.tuning.first_level_engagements": 0,
            "core.kernel.cycles": self.kernel_cycles,
            "trace.store.hits": 0,
            "trace.store.misses": 0,
            "trace.store.guard_failures": 0,
        }
        for controller in self.controllers:
            detector = getattr(controller, "detector", None)
            if detector is not None:
                out["core.detector.events"] += detector.total_events
                out["core.detector.comparisons"] += detector.comparisons
            out["core.tuning.first_level_engagements"] += getattr(
                controller, "first_level_engagements", 0
            )
        for store, before in self.stores.values():
            for stat in ("hits", "misses", "guard_failures"):
                out[f"trace.store.{stat}"] += store.stats[stat] - before[stat]
        return out


def simulator_entry_points(counters: SimulatorCounters) -> List[EntryPoint]:
    """The public entry points of every simulator layer, by layer name."""
    from repro.baselines import convolution, damping, voltage_threshold
    from repro.core import detector, kernel, sensor, tuning
    from repro.power import supply
    from repro.sim import runner, simulation
    from repro.trace import store
    from repro.uarch import pipeline, processor

    points = [
        EntryPoint(pipeline.Pipeline, "step", "uarch.pipeline"),
        EntryPoint(processor.Processor, "from_profile", "uarch.trace"),
        EntryPoint(sensor.CurrentSensor, "read", "core.sensor"),
        EntryPoint(detector.ResonanceDetector, "observe", "core.detector"),
        EntryPoint(supply.PowerSupply, "step", "power.supply"),
        EntryPoint(kernel, "run_supply", "core.kernel",
                   before=counters.on_kernel_trace),
        EntryPoint(kernel, "run_supply_batch", "core.kernel",
                   before=counters.on_kernel_batch),
        EntryPoint(kernel, "run_detector", "core.kernel",
                   before=counters.on_kernel_trace),
        EntryPoint(store.TraceStore, "load", "trace.store",
                   before=counters.on_store),
        EntryPoint(store.TraceStore, "save", "trace.store"),
        EntryPoint(store.TraceStore, "contains", "trace.store"),
        EntryPoint(simulation.Simulation, "run", "sim.simulation",
                   before=counters.on_simulation),
        EntryPoint(simulation, "run_batch", "sim.simulation"),
    ]
    for controller in (
        tuning.ResonanceTuningController,
        voltage_threshold.VoltageThresholdController,
        damping.PipelineDampingController,
        convolution.ConvolutionController,
    ):
        layer = (
            "core.tuning" if controller is tuning.ResonanceTuningController
            else "baselines"
        )
        points += [
            EntryPoint(controller, "directives", layer),
            EntryPoint(controller, "observe", layer),
        ]
    points += [
        EntryPoint(runner.BenchmarkRunner, attribute, "sim.runner", span=True)
        for attribute in (
            "sweep", "run_base", "run_technique", "prefetch_base_batch"
        )
    ]
    return points
