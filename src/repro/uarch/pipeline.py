"""Cycle-level out-of-order pipeline (Table 1 configuration).

An 8-wide out-of-order core executing a synthetic trace: in-order dispatch
into a 128-entry reorder buffer (and load/store queue), dataflow-driven
issue limited by issue width, functional-unit pools and cache ports,
full-latency execution, and in-order commit.  Mispredicted branches stall
the frontend until they resolve plus a redirect penalty.

The scheduler is event-driven rather than scan-based: consumers are woken by
producer-completion events, so per-cycle work is proportional to actual
activity instead of window size (the paper's SimpleScalar-derived simulator
scans; the results are equivalent, the speed is what makes a pure-Python
reproduction feasible).  Completions and wake-ups are keyed by cycle, and
no event lands further ahead than the slowest operation's latency, so both
sit in timing wheels: one list of sequence numbers per future cycle.  Only
the instructions ready to issue sit in a heap, because issue picks the
oldest first.

Control hooks (:class:`ControlDirectives`) expose exactly the levers the
paper's techniques use: issue-width and cache-port clamps plus issue stalling
with a phantom current floor (resonance tuning), fetch/issue stalling and
phantom firing (the [10] baseline), and per-cycle issued-current-estimate
bounds (pipeline damping).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.config import ProcessorConfig
from repro.errors import SimulationError
from repro.uarch.branch import BranchUnit
from repro.uarch.cache import CacheHierarchy, longest_latency
from repro.uarch.isa import EXECUTION_LATENCY, FU_FOR_OP, OpClass
from repro.uarch.power_model import PowerModel
from repro.uarch.trace import MAX_DEP_DISTANCE, SyntheticTrace

__all__ = ["ControlDirectives", "CycleStats", "Pipeline", "NO_CONTROL"]

#: Sliding dependency window; must exceed ROB size plus the maximum
#: producer-consumer distance so producer slots are never reused while a
#: consumer can still look them up.
_WINDOW = 512
_WINDOW_MASK = _WINDOW - 1
_UNFINISHED = 1 << 60
#: Bound on how deep issue selection scans past resource-blocked entries.
_SCAN_FACTOR = 4

_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_BRANCH = int(OpClass.BRANCH)
#: Execution latency by op class (memory ops take the cache's instead).
_EXEC_LATENCY = [EXECUTION_LATENCY.get(OpClass(op), 0) for op in range(len(OpClass))]
_IS_MEM = [OpClass(op).is_memory for op in range(len(OpClass))]
#: Issue-slot pools, indexed by the pool number of each op class.
_POOLS = sorted(set(FU_FOR_OP.values()))
_POOL_OF_OP = [_POOLS.index(FU_FOR_OP[OpClass(op)]) for op in range(len(OpClass))]
_PORT_POOL = _POOLS.index("cache_port")


@dataclass(frozen=True)
class ControlDirectives:
    """Per-cycle levers a noise controller may pull (all default inactive)."""

    issue_width_limit: Optional[int] = None
    cache_ports_limit: Optional[int] = None
    stall_issue: bool = False
    stall_fetch: bool = False
    current_floor_amps: float = 0.0
    issue_estimate_bounds: Optional[Tuple[float, float]] = None


NO_CONTROL = ControlDirectives()


@dataclass
class CycleStats:
    """What happened in one cycle (consumed by controllers and metrics)."""

    __slots__ = (
        "cycle",
        "current_amps",
        "phantom_amps",
        "dispatched",
        "issued",
        "committed",
        "issued_estimate_amps",
        "rob_occupancy",
    )

    cycle: int
    current_amps: float
    phantom_amps: float
    dispatched: int
    issued: int
    committed: int
    issued_estimate_amps: float
    rob_occupancy: int


class Pipeline:
    """Executes one synthetic trace cycle by cycle."""

    def __init__(
        self,
        trace: SyntheticTrace,
        config: ProcessorConfig,
        power: Optional[PowerModel] = None,
        cache: Optional[CacheHierarchy] = None,
    ):
        if _WINDOW < config.rob_entries + MAX_DEP_DISTANCE:
            raise SimulationError("dependency window smaller than ROB + max distance")
        self.trace = trace
        self.config = config
        self.power = power or PowerModel(config)
        self.cache = cache or CacheHierarchy(config)
        self.branch_unit = BranchUnit(config)
        #: issue slots of each pool per cycle (cache ports may be clamped)
        capacity = {
            "int_alu": config.int_alus,
            "int_mul": config.int_muls,
            "fp_alu": config.fp_alus,
            "fp_mul": config.fp_muls,
            "cache_port": config.cache_ports,
        }
        self._pool_capacity = [capacity[pool] for pool in _POOLS]

        # Trace columns as plain lists: scalar indexing is much faster than
        # numpy element access in the per-cycle loop.
        self._op = trace.op_class.tolist()
        self._dep1 = trace.dep1.tolist()
        self._dep2 = trace.dep2.tolist()
        self._mem_level = trace.mem_level.tolist()
        self._mispredict = trace.mispredict.tolist()
        self._icache_miss = trace.icache_miss.tolist()
        self._n_trace = len(trace)

        # Sliding window state, indexed by sequence number modulo _WINDOW.
        self._finish = [0] * _WINDOW
        self._npend = [0] * _WINDOW
        self._base_rc = [0] * _WINDOW
        self._consumers = [[] for _ in range(_WINDOW)]

        # Timing wheels, indexed by cycle modulo their length: sequence
        # numbers that finish (_completions) or become ready to issue
        # (_pending_ready) in that cycle.  Events land at most the slowest
        # latency ahead, so a wheel one slot longer never aliases.
        self._wheel_size = longest_latency(config) + 1
        self._completions = [[] for _ in range(self._wheel_size)]
        self._pending_ready = [[] for _ in range(self._wheel_size)]
        self._ready_now = []  # heap of seq: issue picks the oldest first

        self.cycle = 0
        self.seq_dispatch = 0
        self.seq_commit = 0
        self.rob_count = 0
        self.lsq_count = 0
        self._icache_stall_until = 0
        self._outstanding_misses = 0
        self.icache_stalls = 0
        self.mshr_stall_cycles = 0
        self.total_committed = 0
        self.total_issued = 0
        self.total_dispatched = 0
        self._estimates = [
            self.power.apriori_issue_estimate(op) for op in range(len(OpClass))
        ]

    # ------------------------------------------------------------------
    def step(self, directives: ControlDirectives = NO_CONTROL) -> CycleStats:
        """Advance one cycle under the given control directives."""
        cycle = self.cycle
        self._process_completions(cycle)
        dispatched = 0 if directives.stall_fetch else self._dispatch(cycle)
        issued, issued_estimate = self._issue(cycle, directives)
        committed = self._commit(cycle)

        power = self.power
        if dispatched:
            power.add_dispatch(dispatched)
        if committed:
            power.add_commit(committed)
        power.add_occupancy(self.rob_count)

        floor = directives.current_floor_amps
        if floor > 0.0:
            activity = power.preview_current()
            phantom = max(0.0, floor - activity)
        else:
            phantom = 0.0
        if directives.issue_estimate_bounds is not None:
            low = directives.issue_estimate_bounds[0]
            if issued_estimate < low:
                phantom += low - issued_estimate
                issued_estimate = low
        current = power.end_cycle(phantom)

        self.total_committed += committed
        self.total_issued += issued
        self.total_dispatched += dispatched
        self.cycle = cycle + 1
        return CycleStats(
            cycle, current, phantom, dispatched, issued, committed,
            issued_estimate, self.rob_count,
        )

    # ------------------------------------------------------------------
    def _process_completions(self, cycle: int) -> None:
        """Retire this cycle's completions and wake their consumers.

        Within a cycle the order does not matter: each completion only
        takes a max, decrements a count or appends to a wheel slot.
        """
        done = self._completions[cycle % self._wheel_size]
        if not done:
            return
        op_list = self._op
        n_trace = self._n_trace
        consumers = self._consumers
        npend = self._npend
        base_rc = self._base_rc
        pending_ready = self._pending_ready
        wheel_size = self._wheel_size
        for seq in done:
            index = seq % n_trace
            op = op_list[index]
            if op == _BRANCH:
                if self._mispredict[index]:
                    self.branch_unit.on_resolve(seq, cycle)
            elif op == _LOAD and self._mem_level[index] >= 1:
                self._outstanding_misses -= 1
            waiters = consumers[seq & _WINDOW_MASK]
            if waiters:
                for consumer in waiters:
                    cw = consumer & _WINDOW_MASK
                    if base_rc[cw] < cycle:
                        base_rc[cw] = cycle
                    npend[cw] -= 1
                    if npend[cw] == 0:
                        pending_ready[base_rc[cw] % wheel_size].append(consumer)
                waiters.clear()
        done.clear()

    # ------------------------------------------------------------------
    def _dispatch(self, cycle: int) -> int:
        if cycle < self._icache_stall_until:
            return 0
        branch_unit = self.branch_unit
        # Only a mispredicted branch dispatched below can close fetch
        # mid-cycle, and the loop stops right after one.
        if not branch_unit.fetch_allowed(cycle):
            return 0
        config = self.config
        limit = min(config.fetch_width, config.rob_entries - self.rob_count)
        if limit <= 0:
            return 0
        finish = self._finish
        npend = self._npend
        base_rc = self._base_rc
        consumers = self._consumers
        op_list = self._op
        dep1 = self._dep1
        dep2 = self._dep2
        icache_miss = self._icache_miss
        n_trace = self._n_trace
        lsq_entries = config.lsq_entries
        next_cycle = cycle + 1
        wake = self._pending_ready[next_cycle % self._wheel_size]
        dispatched = 0
        seq = self.seq_dispatch

        while dispatched < limit:
            index = seq % n_trace
            if icache_miss[index]:
                if dispatched > 0:
                    break  # the missing block starts next cycle's stall
                self._icache_stall_until = cycle + config.icache_miss_penalty
                self.icache_stalls += 1
            op = op_list[index]
            if _IS_MEM[op]:
                if self.lsq_count >= lsq_entries:
                    break
                self.lsq_count += 1
            w = seq & _WINDOW_MASK
            finish[w] = _UNFINISHED
            ready_cycle = next_cycle
            pending = 0
            distance = dep1[index]
            if distance and seq >= distance:
                pw = (seq - distance) & _WINDOW_MASK
                producer_finish = finish[pw]
                if producer_finish == _UNFINISHED:
                    consumers[pw].append(seq)
                    pending = 1
                elif producer_finish > ready_cycle:
                    ready_cycle = producer_finish
            distance = dep2[index]
            if distance and seq >= distance:
                pw = (seq - distance) & _WINDOW_MASK
                producer_finish = finish[pw]
                if producer_finish == _UNFINISHED:
                    consumers[pw].append(seq)
                    pending += 1
                elif producer_finish > ready_cycle:
                    ready_cycle = producer_finish
            if pending:
                npend[w] = pending
                base_rc[w] = ready_cycle
            elif ready_cycle == next_cycle:
                wake.append(seq)
            else:
                self._pending_ready[ready_cycle % self._wheel_size].append(seq)
            dispatched += 1
            seq += 1
            if op == _BRANCH and self._mispredict[index]:
                branch_unit.on_dispatch_mispredict(seq - 1)
                break  # fetch stops behind the mispredicted branch

        self.rob_count += dispatched
        self.seq_dispatch = seq
        return dispatched

    # ------------------------------------------------------------------
    def _issue(self, cycle: int, directives: ControlDirectives):
        ready_now = self._ready_now
        woken = self._pending_ready[cycle % self._wheel_size]
        if woken:
            for seq in woken:
                heapq.heappush(ready_now, seq)
            woken.clear()

        if directives.stall_issue:
            return 0, 0.0
        width = self.config.issue_width
        if directives.issue_width_limit is not None:
            width = max(0, min(width, directives.issue_width_limit))
        if width == 0 or not ready_now:
            return 0, 0.0

        bounds = directives.issue_estimate_bounds
        estimate_cap = bounds[1] if bounds is not None else None

        # Issue slots left this cycle in each pool.
        free = self._pool_capacity.copy()
        if directives.cache_ports_limit is not None:
            free[_PORT_POOL] = max(
                0, min(directives.cache_ports_limit, free[_PORT_POOL])
            )

        op_list = self._op
        mem_levels = self._mem_level
        finish = self._finish
        estimates = self._estimates
        power = self.power
        cache_access = self.cache.access
        completions = self._completions
        wheel_size = self._wheel_size
        n_trace = self._n_trace
        mshr_entries = self.config.mshr_entries
        heappop = heapq.heappop

        issued = 0
        issued_estimate = 0.0
        blocked = []
        scans = 0
        max_scans = width * _SCAN_FACTOR

        while ready_now and issued < width and scans < max_scans:
            seq = heappop(ready_now)
            scans += 1
            index = seq % n_trace
            op = op_list[index]
            estimate = estimates[op]
            if estimate_cap is not None and issued_estimate + estimate > estimate_cap:
                blocked.append(seq)
                break  # damping bound reached: nothing else may issue
            is_mem = _IS_MEM[op]
            if is_mem:
                is_miss = op == _LOAD and mem_levels[index] >= 1
                if is_miss and self._outstanding_misses >= mshr_entries:
                    blocked.append(seq)
                    self.mshr_stall_cycles += 1
                    continue
            pool = _POOL_OF_OP[op]
            if not free[pool]:
                blocked.append(seq)
                continue
            free[pool] -= 1
            if is_mem:
                access = cache_access(mem_levels[index], op == _STORE)
                latency = access.latency
                power.add_cache_access(access)
                if is_miss:
                    self._outstanding_misses += 1
            else:
                latency = _EXEC_LATENCY[op]
            finish_cycle = cycle + latency
            finish[seq & _WINDOW_MASK] = finish_cycle
            completions[finish_cycle % wheel_size].append(seq)
            power.add_issue(op, latency)
            issued += 1
            issued_estimate += estimate

        for seq in blocked:
            heapq.heappush(ready_now, seq)
        return issued, issued_estimate

    # ------------------------------------------------------------------
    def _commit(self, cycle: int) -> int:
        finish = self._finish
        op_list = self._op
        n_trace = self._n_trace
        first = seq = self.seq_commit
        last = min(seq + self.config.commit_width, self.seq_dispatch)
        while seq < last:
            if finish[seq & _WINDOW_MASK] > cycle:
                break
            if _IS_MEM[op_list[seq % n_trace]]:
                self.lsq_count -= 1
            seq += 1
        self.seq_commit = seq
        committed = seq - first
        self.rob_count -= committed
        return committed

    # ------------------------------------------------------------------
    @property
    def ipc(self) -> float:
        """Committed instructions per cycle so far."""
        if self.cycle == 0:
            return 0.0
        return self.total_committed / self.cycle

    def run(self, n_cycles: int, directives: ControlDirectives = NO_CONTROL):
        """Run ``n_cycles`` under fixed directives; returns final stats."""
        stats = None
        for _ in range(n_cycles):
            stats = self.step(directives)
        return stats
