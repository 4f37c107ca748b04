"""Wattch-like activity-based power model (Section 4.1).

Current is power divided by supply voltage, so the model works directly in
amps.  Each microarchitectural event (dispatch, issue to a functional unit,
cache access, commit) contributes a per-access current; multi-cycle
operations spread their current over the cycles they occupy, as the paper's
Wattch extension spreads per-event current over pipeline stages.  Aggressive
clock gating is modelled by a low idle base current: a fully idle processor
draws ``min_current_amps`` (ungateable global clock plus leakage, Table 1's
35 A) and a saturated one reaches ``max_current_amps`` (105 A).

The calibration works backwards from Table 1: relative per-event weights are
scaled so that sustained full-width execution with the most power-hungry
feasible instruction mix draws exactly the configured peak.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import ProcessorConfig
from repro.errors import ConfigurationError
from repro.uarch.cache import CacheAccess, longest_latency
from repro.uarch.isa import OpClass

__all__ = ["EnergyWeights", "PowerModel"]


def _default_fu_weights() -> dict:
    return {
        int(OpClass.INT_ALU): 0.9,
        int(OpClass.INT_MUL): 1.8,
        int(OpClass.FP_ALU): 1.6,
        int(OpClass.FP_MUL): 2.4,
        int(OpClass.BRANCH): 0.9,
    }


@dataclass(frozen=True)
class EnergyWeights:
    """Relative per-event current contributions (scaled at calibration).

    The absolute values are arbitrary units; only their ratios matter, since
    :class:`PowerModel` rescales them to hit the configured current range.
    """

    dispatch: float = 1.0          # fetch + decode + rename, per instruction
    issue: float = 0.8             # wakeup/select + register read, per issue
    commit: float = 0.5            # ROB retire + register write, per commit
    l1_access: float = 2.0         # per cache access, spread over L1 latency
    l2_access: float = 8.0         # per L2 access, spread over L2 latency
    memory_access: float = 16.0    # per memory access, spread over its latency
    rob_occupancy: float = 0.01    # per occupied ROB entry (gated remnants)
    fu: dict = field(default_factory=_default_fu_weights)

    def fu_weight(self, op_class: int) -> float:
        return self.fu.get(op_class, 0.0)


class PowerModel:
    """Accumulates per-cycle activity into a per-cycle current in amps."""

    def __init__(self, config: ProcessorConfig, weights: "EnergyWeights | None" = None):
        self.config = config
        self.weights = weights or EnergyWeights()
        # Ring of spread current still owed to future cycles, one slot per
        # cycle.  No spread outlasts the slowest operation, so a ring that
        # long never wraps onto itself (94 slots for Table 1).
        self._horizon = longest_latency(config)
        self._pending = [0.0] * self._horizon
        self._slot = 0
        # Per-event values the accumulation loop would otherwise recompute
        # (one IEEE division each, so precomputing keeps every bit).
        self._fu_weight = [self.weights.fu_weight(op) for op in range(len(OpClass))]
        self._cache_spreads = tuple(
            (units / cycles, cycles)
            for units, cycles in (
                (self.weights.l1_access, config.l1_hit_cycles),
                (self.weights.l2_access, config.l2_hit_cycles),
                (self.weights.memory_access, config.memory_cycles),
            )
        )
        self._immediate = 0.0
        self._base = config.min_current_amps
        self._scale = self._calibrate_scale()
        self.total_energy_joules = 0.0
        self.phantom_energy_joules = 0.0
        self._vdd = 1.0  # set by the simulation when it knows the supply
        self._cycle_seconds = 1e-10

    # ------------------------------------------------------------------
    # calibration
    # ------------------------------------------------------------------
    def _peak_activity_units(self) -> float:
        """Activity units of sustained full-width, max-power execution.

        In steady state, spread current equals its full per-access value per
        cycle at a sustained rate, so the peak mix is: every issue slot
        filled with the most power-hungry feasible operations (cache ports
        saturated with loads, then FP multiplies, FP adds, integer
        multiplies, integer ALU ops up to their pool sizes), with dispatch
        and commit at full width and the ROB full.
        """
        config = self.config
        weights = self.weights
        slots = config.issue_width
        units = slots * weights.issue
        units += config.fetch_width * weights.dispatch
        units += config.commit_width * weights.commit
        units += config.rob_entries * weights.rob_occupancy

        pool = [
            (weights.l1_access, config.cache_ports),
            (weights.fu_weight(int(OpClass.FP_MUL)), config.fp_muls),
            (weights.fu_weight(int(OpClass.FP_ALU)), config.fp_alus),
            (weights.fu_weight(int(OpClass.INT_MUL)), config.int_muls),
            (weights.fu_weight(int(OpClass.INT_ALU)), config.int_alus),
        ]
        pool.sort(reverse=True)
        remaining = slots
        for weight, capacity in pool:
            take = min(remaining, capacity)
            units += take * weight
            remaining -= take
            if remaining == 0:
                break
        return units

    def _calibrate_scale(self) -> float:
        span = self.config.max_current_amps - self.config.min_current_amps
        peak = self._peak_activity_units()
        if peak <= 0:
            raise ConfigurationError("power weights produce no activity current")
        return span / peak

    @property
    def amps_per_unit(self) -> float:
        return self._scale

    def attach_supply(self, vdd_volts: float, cycle_seconds: float) -> None:
        """Let the model convert amps to joules for energy accounting."""
        self._vdd = vdd_volts
        self._cycle_seconds = cycle_seconds

    # ------------------------------------------------------------------
    # per-cycle accumulation
    # ------------------------------------------------------------------
    def add_dispatch(self, count: int) -> None:
        self._immediate += count * self.weights.dispatch

    def add_issue(self, op_class: int, latency: int) -> None:
        """Issue energy lands now; FU energy spreads over the latency."""
        self._immediate += self.weights.issue
        fu = self._fu_weight[op_class]
        if fu:
            duration = max(1, min(latency, self._horizon))
            self._spread(fu / duration, duration)

    def add_cache_access(self, access: CacheAccess) -> None:
        l1, l2, memory = self._cache_spreads
        self._spread(*l1)
        if access.touches_l2:
            self._spread(*l2)
        if access.touches_memory:
            self._spread(*memory)

    def add_commit(self, count: int) -> None:
        self._immediate += count * self.weights.commit

    def add_occupancy(self, rob_count: int) -> None:
        self._immediate += rob_count * self.weights.rob_occupancy

    def _spread(self, per_cycle: float, duration: int) -> None:
        """Add ``per_cycle`` to the open cycle and the ``duration - 1`` after.

        Each slot gets exactly one addition per spread, in call order:
        float addition is not associative, so the order of the additions
        a slot receives is part of the model's output.
        """
        pending = self._pending
        start = self._slot
        end = start + duration
        horizon = self._horizon
        if end > horizon:
            for slot in range(end - horizon):
                pending[slot] += per_cycle
            end = horizon
        for slot in range(start, end):
            pending[slot] += per_cycle

    def preview_current(self) -> float:
        """Current the open cycle would draw if closed now, without phantoms.

        Used to size phantom padding: the second-level response (and the
        [10] baseline's phantom firing) tops activity current up to a floor.
        """
        return self._base + self._scale * (self._immediate + self._pending[self._slot])

    def end_cycle(self, phantom_amps: float = 0.0) -> float:
        """Close the cycle and return its total current in amps.

        ``phantom_amps`` is extra current from phantom operations (second
        level response or the [10] baseline); it is accounted separately in
        :attr:`phantom_energy_joules`.
        """
        slot = self._slot
        activity = self._immediate + self._pending[slot]
        self._pending[slot] = 0.0
        self._immediate = 0.0
        slot += 1
        self._slot = 0 if slot == self._horizon else slot
        current = self._base + self._scale * activity + phantom_amps
        self.total_energy_joules += current * self._vdd * self._cycle_seconds
        self.phantom_energy_joules += phantom_amps * self._vdd * self._cycle_seconds
        return current

    # ------------------------------------------------------------------
    # a-priori estimates for the pipeline-damping baseline (ref [14])
    # ------------------------------------------------------------------
    def apriori_issue_estimate(self, op_class: int) -> float:
        """Per-issue current estimate in 0.5 A units, as damping assumes.

        Ref [14] works from a-priori per-instruction-class estimates where
        each estimate unit is worth 0.5 A; we quantize the true per-issue
        current contribution accordingly.
        """
        units = self.weights.issue
        if op_class in (int(OpClass.LOAD), int(OpClass.STORE)):
            units += self.weights.l1_access
        else:
            units += self.weights.fu_weight(op_class)
        amps = units * self._scale
        return max(0.5, round(amps * 2.0) / 2.0)

    @property
    def idle_current_amps(self) -> float:
        return self._base
