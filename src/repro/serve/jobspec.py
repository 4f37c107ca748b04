"""Sweep-job specifications: the validated unit of work the service runs.

A job spec is the JSON body of ``POST /jobs``, parsed and range-checked
*before* anything is queued or persisted, so a bad submission costs one
400 response and nothing else.  The spec deliberately mirrors the
``repro compare`` CLI surface -- same technique names, same knob defaults
-- and reuses the CLI's module-level controller builders, so a spec both
pickles cleanly to pool workers and produces byte-identical aggregates to
the equivalent direct :meth:`BenchmarkRunner.sweep` call (the property the
chaos harness's golden-convergence invariants assert).
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.config import TuningConfig
from repro.errors import JobSpecError
from repro.uarch.workloads import SPEC2K

__all__ = ["JobSpec", "TECHNIQUES", "controller_factory"]

#: Technique name -> (builder qualname in repro.cli, parameter table).
#: Each parameter row is (spec key, builder kwarg, default); defaults
#: match the ``repro compare`` flags so a spec with no params behaves
#: exactly like the bare CLI command.  An integer default marks a param
#: that must be integral.
TECHNIQUES: Dict[str, Tuple[str, Tuple[Tuple[str, str, object], ...]]] = {
    "tuning": ("_build_tuning", (
        ("response_time", "response_time", 100),
    )),
    "voltage-threshold": ("_build_voltage_threshold", (
        ("threshold_mv", "threshold_mv", 30.0),
        ("noise_mv", "noise_mv", 0.0),
        ("delay", "delay_cycles", 0),
    )),
    "damping": ("_build_damping", (
        ("delta_amps", "delta_amps", 13.0),
    )),
    "convolution": ("_build_convolution", (
        ("estimate_gain", "estimate_gain", 1.0),
    )),
}

_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: Grid ceilings: a single submission may not exceed these (per-tenant
#: *cell* budgets are enforced separately by admission control).
_MAX_BENCHMARKS = 64
_MAX_SEEDS = 64
_MAX_WORKERS = 16


def _reject(message: str) -> None:
    raise JobSpecError(message)


def _as_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _reject(f"{name} must be an integer, got {value!r}")
    return value


def _is_finite_number(value) -> bool:
    """A JSON number (not a bool) that is neither NaN nor infinite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond float range
        return False


def _as_number(value, name: str) -> float:
    if not _is_finite_number(value):
        _reject(f"{name} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class JobSpec:
    """One validated sweep-job submission.

    Everything needed to reproduce the sweep lives here (and therefore in
    the durable job record): after a crash the service rebuilds the exact
    factory and grid from the persisted spec and resumes from the sweep
    checkpoint.
    """

    technique: str
    benchmarks: Tuple[str, ...]
    seeds: Tuple[Optional[int], ...] = (None,)
    n_cycles: int = 2_000
    warmup_cycles: int = 200
    params: Dict[str, object] = field(default_factory=dict)
    tenant: str = "default"
    #: extra attempts per failing cell (deterministically re-seeded)
    max_retries: int = 0
    #: job must *finish* within this many seconds of submission; a queued
    #: job whose deadline lapses before dispatch fails as DeadlineExceeded
    #: instead of burning compute nobody is waiting for.  None = no limit.
    deadline_s: Optional[float] = None
    #: artificial per-cell pacing (seconds slept after each completed
    #: cell).  Production jobs leave it 0; the chaos harness uses it to
    #: hold the kill-window open deterministically on fast grids.
    pace_s: float = 0.0
    #: worker processes: more than one fans the cells out to the local
    #: process pool; 1 = in-process.  Both yield byte-identical aggregates.
    workers: int = 1

    def __post_init__(self) -> None:
        if self.technique not in TECHNIQUES:
            _reject(
                f"unknown technique {self.technique!r}"
                f" (expected one of {sorted(TECHNIQUES)})"
            )
        if not self.benchmarks:
            _reject("benchmarks must be a non-empty list")
        if len(self.benchmarks) > _MAX_BENCHMARKS:
            _reject(
                f"too many benchmarks ({len(self.benchmarks)} >"
                f" {_MAX_BENCHMARKS})"
            )
        unknown = [b for b in self.benchmarks if b not in SPEC2K]
        if unknown:
            _reject(
                f"unknown benchmarks {unknown!r}"
                f" (expected a subset of {sorted(SPEC2K)})"
            )
        if not self.seeds:
            _reject("seeds must be non-empty when given")
        if len(self.seeds) > _MAX_SEEDS:
            _reject(f"too many seeds ({len(self.seeds)} > {_MAX_SEEDS})")
        for seed in self.seeds:
            if seed is not None and (
                isinstance(seed, bool) or not isinstance(seed, int)
            ):
                _reject(f"seeds must be integers or null, got {seed!r}")
        if self.n_cycles <= 0:
            _reject(f"n_cycles must be positive, got {self.n_cycles!r}")
        if self.warmup_cycles < 0:
            _reject(
                f"warmup_cycles must be non-negative,"
                f" got {self.warmup_cycles!r}"
            )
        if self.max_retries < 0:
            _reject(
                f"max_retries must be non-negative, got {self.max_retries!r}"
            )
        if not _TENANT_RE.match(self.tenant):
            _reject(
                f"tenant must match {_TENANT_RE.pattern},"
                f" got {self.tenant!r}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            _reject(
                f"deadline_s must be positive when set,"
                f" got {self.deadline_s!r}"
            )
        if self.pace_s < 0 or self.pace_s > 5.0:
            _reject(f"pace_s must be within [0, 5], got {self.pace_s!r}")
        if (
            isinstance(self.workers, bool)
            or not isinstance(self.workers, int)
            or not 1 <= self.workers <= _MAX_WORKERS
        ):
            _reject(
                f"workers must be an integer in [1, {_MAX_WORKERS}],"
                f" got {self.workers!r}"
            )
        _, param_table = TECHNIQUES[self.technique]
        known = {key for key, _, _ in param_table}
        extra = sorted(set(self.params) - known)
        if extra:
            _reject(
                f"unknown params {extra!r} for technique"
                f" {self.technique!r} (expected a subset of {sorted(known)})"
            )
        for key, _, default in param_table:
            value = self.params.get(key, default)
            if not _is_finite_number(value):
                _reject(f"param {key} must be a finite number, got {value!r}")
            if isinstance(default, int) and not float(value).is_integer():
                _reject(f"param {key} must be an integer, got {value!r}")

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: object) -> "JobSpec":
        """Parse and validate an untrusted JSON object into a spec."""
        if not isinstance(data, dict):
            _reject(f"job spec must be a JSON object, got {type(data).__name__}")
        allowed = {
            "technique", "benchmarks", "seeds", "n_cycles", "warmup_cycles",
            "params", "tenant", "max_retries", "deadline_s", "pace_s",
            "backend", "workers",
        }
        extra = sorted(set(data) - allowed)
        if extra:
            _reject(
                f"unknown job-spec fields {extra!r}"
                f" (expected a subset of {sorted(allowed)})"
            )
        if "technique" not in data:
            _reject("job spec requires a technique")
        technique = data["technique"]
        if not isinstance(technique, str):
            _reject(f"technique must be a string, got {technique!r}")
        benchmarks = data.get("benchmarks")
        if benchmarks is None:
            _reject("job spec requires a benchmarks list")
        if not isinstance(benchmarks, (list, tuple)) or not all(
            isinstance(b, str) for b in benchmarks
        ):
            _reject(f"benchmarks must be a list of strings, got {benchmarks!r}")
        seeds = data.get("seeds", [None])
        if not isinstance(seeds, (list, tuple)):
            _reject(f"seeds must be a list, got {seeds!r}")
        params = data.get("params", {})
        if not isinstance(params, dict):
            _reject(f"params must be an object, got {params!r}")
        deadline_s = data.get("deadline_s")
        kwargs = dict(
            technique=technique,
            benchmarks=tuple(benchmarks),
            seeds=tuple(seeds),
            n_cycles=_as_int(data.get("n_cycles", 2_000), "n_cycles"),
            warmup_cycles=_as_int(
                data.get("warmup_cycles", 200), "warmup_cycles"
            ),
            params=dict(params),
            max_retries=_as_int(data.get("max_retries", 0), "max_retries"),
            deadline_s=(
                None if deadline_s is None
                else _as_number(deadline_s, "deadline_s")
            ),
            pace_s=_as_number(data.get("pace_s", 0.0), "pace_s"),
        )
        # Records persisted while specs still named a backend carry one.
        # ``workers`` alone picks the backend now, and every local choice
        # gave byte-identical aggregates, so those values are ignored.
        backend = data.get("backend", "auto")
        if backend not in ("auto", "sequential", "pool"):
            _reject(
                f"backend must be 'auto', 'sequential' or 'pool' (the"
                f" backend follows workers), got {backend!r}"
            )
        kwargs["workers"] = _as_int(data.get("workers", 1), "workers")
        tenant = data.get("tenant", "default")
        if not isinstance(tenant, str):
            _reject(f"tenant must be a string, got {tenant!r}")
        kwargs["tenant"] = tenant
        return cls(**kwargs)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["benchmarks"] = list(self.benchmarks)
        data["seeds"] = list(self.seeds)
        return data

    # ------------------------------------------------------------------
    # Execution surface
    # ------------------------------------------------------------------
    @property
    def n_cells(self) -> int:
        return len(self.benchmarks) * len(self.seeds)


def controller_factory(spec: JobSpec):
    """The picklable controller factory this spec describes.

    Built as ``functools.partial`` over the CLI's module-level builders,
    exactly as ``repro compare`` builds its factories: same defaults, same
    pickling behaviour, and -- critically for the golden-convergence
    invariants -- the same technique name and controller construction as a
    direct runner invocation with the same knobs.
    """
    # Function-level import: repro.cli imports this package for `serve`.
    from repro import cli as _cli

    builder_name, param_table = TECHNIQUES[spec.technique]
    builder = getattr(_cli, builder_name)
    # JobSpec validation already admitted every value: finite numbers,
    # integral where the default is an integer.
    kwargs = {
        kwarg: spec.params.get(spec_key, default)
        for spec_key, kwarg, default in param_table
    }
    if spec.technique == "tuning":
        return functools.partial(
            _cli._build_tuning,
            tuning=TuningConfig(
                initial_response_time=int(kwargs["response_time"])
            ),
        )
    if spec.technique == "voltage-threshold":
        kwargs["threshold_volts"] = kwargs.pop("threshold_mv") * 1e-3
        kwargs["noise_volts"] = kwargs.pop("noise_mv") * 1e-3
        kwargs["delay_cycles"] = int(kwargs["delay_cycles"])
    return functools.partial(builder, **kwargs)
