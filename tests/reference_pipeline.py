"""Self-contained reference for the differential pipeline test.

This is the heap-scheduled pipeline the simulator ran before its
per-cycle path moved to timing wheels, kept verbatim in behaviour: three
heaps (``_completions`` and ``_pending_ready`` keyed by cycle,
``_ready_now`` by sequence number), functional-unit pools and cache ports
counted by their own small arbiters, a cache model that builds a record
per access, and a power model that spreads current over a fixed 256-slot
numpy ring.  ``tests/test_pipeline_differential.py`` steps it in lockstep
with :class:`repro.uarch.pipeline.Pipeline` and requires identical
results every cycle.

Only the branch unit, the a-priori current estimates and the power
model's calibration constants come from :mod:`repro.uarch`; the reference
reads them through public attributes.  Its ring never wraps as long as
the slowest access takes fewer than 256 cycles, so the differential keeps
``l1 + l2 + memory`` latency under that.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.uarch import BranchUnit, MemLevel, OpClass, PowerModel
from repro.uarch.isa import EXECUTION_LATENCY
from repro.uarch.pipeline import NO_CONTROL, CycleStats
from repro.uarch.trace import MAX_DEP_DISTANCE

_WINDOW = 512
_UNFINISHED = 1 << 60
_SCAN_FACTOR = 4
_HORIZON = 256

_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_BRANCH = int(OpClass.BRANCH)
_EXEC_LATENCY = {int(op): lat for op, lat in EXECUTION_LATENCY.items()}
_POOL_FOR_OP = {
    int(OpClass.INT_ALU): "int_alu",
    int(OpClass.INT_MUL): "int_mul",
    int(OpClass.FP_ALU): "fp_alu",
    int(OpClass.FP_MUL): "fp_mul",
    int(OpClass.BRANCH): "int_alu",
}


@dataclass(frozen=True)
class ReferenceAccess:
    latency: int
    touches_l2: bool
    touches_memory: bool


class ReferenceCache:
    """Level -> latency, with a fresh record and counters per access."""

    def __init__(self, config):
        self._latency = {
            int(MemLevel.L1): config.l1_hit_cycles,
            int(MemLevel.L2): config.l1_hit_cycles + config.l2_hit_cycles,
            int(MemLevel.MEMORY): (
                config.l1_hit_cycles + config.l2_hit_cycles + config.memory_cycles
            ),
        }
        self.l1_accesses = 0
        self.l2_accesses = 0
        self.memory_accesses = 0

    def access(self, mem_level, is_store):
        if mem_level not in self._latency:
            raise SimulationError(f"not a memory operation (level {mem_level})")
        self.l1_accesses += 1
        touches_l2 = mem_level >= int(MemLevel.L2)
        touches_memory = mem_level >= int(MemLevel.MEMORY)
        if touches_l2:
            self.l2_accesses += 1
        if touches_memory:
            self.memory_accesses += 1
        latency = 1 if is_store else self._latency[mem_level]
        return ReferenceAccess(latency, touches_l2, touches_memory)


class ReferencePowerModel:
    """Per-event current accumulation into a fixed numpy ring."""

    def __init__(self, config, vdd_volts=1.0, cycle_seconds=1e-10):
        calibrated = PowerModel(config)
        self.config = config
        self.weights = calibrated.weights
        self._scale = calibrated.amps_per_unit
        self._base = calibrated.idle_current_amps
        self._pending = np.zeros(_HORIZON)
        self._slot = 0
        self._immediate = 0.0
        self._vdd = vdd_volts
        self._cycle_seconds = cycle_seconds
        self.total_energy_joules = 0.0
        self.phantom_energy_joules = 0.0

    def add_dispatch(self, count):
        self._immediate += count * self.weights.dispatch

    def add_issue(self, op_class, latency):
        self._immediate += self.weights.issue
        fu = self.weights.fu_weight(op_class)
        if fu:
            self._spread(fu, max(1, min(latency, _HORIZON)))

    def add_cache_access(self, access):
        config = self.config
        self._spread(self.weights.l1_access, config.l1_hit_cycles)
        if access.touches_l2:
            self._spread(self.weights.l2_access, config.l2_hit_cycles)
        if access.touches_memory:
            self._spread(self.weights.memory_access, config.memory_cycles)

    def add_commit(self, count):
        self._immediate += count * self.weights.commit

    def add_occupancy(self, rob_count):
        self._immediate += rob_count * self.weights.rob_occupancy

    def _spread(self, units, duration):
        per_cycle = units / duration
        slot = self._slot
        for offset in range(duration):
            self._pending[(slot + offset) % _HORIZON] += per_cycle

    def preview_current(self):
        return self._base + self._scale * (self._immediate + self._pending[self._slot])

    def end_cycle(self, phantom_amps=0.0):
        slot = self._slot
        activity = self._immediate + self._pending[slot]
        self._pending[slot] = 0.0
        self._immediate = 0.0
        self._slot = (slot + 1) % _HORIZON
        current = self._base + self._scale * activity + phantom_amps
        self.total_energy_joules += current * self._vdd * self._cycle_seconds
        self.phantom_energy_joules += phantom_amps * self._vdd * self._cycle_seconds
        return current

    def apriori_issue_estimate(self, op_class):
        units = self.weights.issue
        if op_class in (_LOAD, _STORE):
            units += self.weights.l1_access
        else:
            units += self.weights.fu_weight(op_class)
        amps = units * self._scale
        return max(0.5, round(amps * 2.0) / 2.0)


class ReferenceFunctionalUnits:
    def __init__(self, config):
        self._capacity = {
            "int_alu": config.int_alus,
            "int_mul": config.int_muls,
            "fp_alu": config.fp_alus,
            "fp_mul": config.fp_muls,
        }
        self._used = dict.fromkeys(self._capacity, 0)

    def new_cycle(self):
        for key in self._used:
            self._used[key] = 0

    def try_claim(self, op_class):
        pool = _POOL_FOR_OP.get(op_class)
        if pool is None:
            return True
        if self._used[pool] >= self._capacity[pool]:
            return False
        self._used[pool] += 1
        return True


class ReferenceCachePorts:
    def __init__(self, config):
        self.capacity = config.cache_ports
        self._limit = config.cache_ports
        self._used = 0

    def new_cycle(self, limit=None):
        self._used = 0
        self._limit = (
            self.capacity if limit is None else max(0, min(limit, self.capacity))
        )

    def try_claim(self):
        if self._used >= self._limit:
            return False
        self._used += 1
        return True


class ReferencePipeline:
    """The heap-scheduled pipeline, one cycle per :meth:`step`."""

    def __init__(self, trace, config, vdd_volts=1.0, cycle_seconds=1e-10):
        if _WINDOW < config.rob_entries + MAX_DEP_DISTANCE:
            raise SimulationError("dependency window smaller than ROB + max distance")
        self.config = config
        self.power = ReferencePowerModel(config, vdd_volts, cycle_seconds)
        self.cache = ReferenceCache(config)
        self.branch_unit = BranchUnit(config)
        self._fus = ReferenceFunctionalUnits(config)
        self._ports = ReferenceCachePorts(config)

        self._op = trace.op_class.tolist()
        self._dep1 = trace.dep1.tolist()
        self._dep2 = trace.dep2.tolist()
        self._mem_level = trace.mem_level.tolist()
        self._mispredict = trace.mispredict.tolist()
        self._icache_miss = trace.icache_miss.tolist()
        self._n_trace = len(trace)

        self._finish = [0] * _WINDOW
        self._npend = [0] * _WINDOW
        self._base_rc = [0] * _WINDOW
        self._consumers = [[] for _ in range(_WINDOW)]

        self._pending_ready = []  # (ready_cycle, seq)
        self._ready_now = []      # seq
        self._completions = []    # (finish_cycle, seq)

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
        self._estimates = {
            op: self.power.apriori_issue_estimate(op) for op in range(7)
        }

    def step(self, directives=NO_CONTROL):
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
            cycle=cycle,
            current_amps=current,
            phantom_amps=phantom,
            dispatched=dispatched,
            issued=issued,
            committed=committed,
            issued_estimate_amps=issued_estimate,
            rob_occupancy=self.rob_count,
        )

    def _process_completions(self, cycle):
        completions = self._completions
        consumers = self._consumers
        npend = self._npend
        base_rc = self._base_rc
        pending_ready = self._pending_ready
        while completions and completions[0][0] <= cycle:
            finish_cycle, seq = heapq.heappop(completions)
            w = seq % _WINDOW
            index = seq % self._n_trace
            if self._op[index] == _BRANCH and self._mispredict[index]:
                self.branch_unit.on_resolve(seq, finish_cycle)
            elif self._op[index] == _LOAD and self._mem_level[index] >= 1:
                self._outstanding_misses -= 1
            waiters = consumers[w]
            if waiters:
                for consumer in waiters:
                    cw = consumer % _WINDOW
                    if base_rc[cw] < finish_cycle:
                        base_rc[cw] = finish_cycle
                    npend[cw] -= 1
                    if npend[cw] == 0:
                        heapq.heappush(pending_ready, (base_rc[cw], consumer))
                consumers[w] = []

    def _dispatch(self, cycle):
        config = self.config
        branch_unit = self.branch_unit
        finish = self._finish
        npend = self._npend
        base_rc = self._base_rc
        consumers = self._consumers
        op_list = self._op
        n_trace = self._n_trace
        dispatched = 0
        seq = self.seq_dispatch
        if cycle < self._icache_stall_until:
            return 0

        while (
            dispatched < config.fetch_width
            and self.rob_count < config.rob_entries
            and branch_unit.fetch_allowed(cycle)
        ):
            index = seq % n_trace
            op = op_list[index]
            if self._icache_miss[index] and dispatched > 0:
                break
            if self._icache_miss[index]:
                self._icache_stall_until = cycle + config.icache_miss_penalty
                self.icache_stalls += 1
            is_mem = op == _LOAD or op == _STORE
            if is_mem and self.lsq_count >= config.lsq_entries:
                break
            w = seq % _WINDOW
            finish[w] = _UNFINISHED
            ready_cycle = cycle + 1
            pending = 0
            for distance in (self._dep1[index], self._dep2[index]):
                if distance:
                    producer = seq - distance
                    if producer >= 0:
                        pw = producer % _WINDOW
                        producer_finish = finish[pw]
                        if producer_finish == _UNFINISHED:
                            consumers[pw].append(seq)
                            pending += 1
                        elif producer_finish > ready_cycle:
                            ready_cycle = producer_finish
            if pending:
                npend[w] = pending
                base_rc[w] = ready_cycle
            else:
                heapq.heappush(self._pending_ready, (ready_cycle, seq))
            if is_mem:
                self.lsq_count += 1
            if op == _BRANCH and self._mispredict[index]:
                branch_unit.on_dispatch_mispredict(seq)
            self.rob_count += 1
            dispatched += 1
            seq += 1

        self.seq_dispatch = seq
        return dispatched

    def _issue(self, cycle, directives):
        pending_ready = self._pending_ready
        ready_now = self._ready_now
        while pending_ready and pending_ready[0][0] <= cycle:
            _, seq = heapq.heappop(pending_ready)
            heapq.heappush(ready_now, seq)

        if directives.stall_issue:
            return 0, 0.0
        width = self.config.issue_width
        if directives.issue_width_limit is not None:
            width = max(0, min(width, directives.issue_width_limit))
        if width == 0 or not ready_now:
            return 0, 0.0

        bounds = directives.issue_estimate_bounds
        estimate_cap = bounds[1] if bounds is not None else None

        fus = self._fus
        ports = self._ports
        fus.new_cycle()
        ports.new_cycle(directives.cache_ports_limit)

        op_list = self._op
        mem_levels = self._mem_level
        finish = self._finish
        estimates = self._estimates
        power = self.power
        completions = self._completions
        n_trace = self._n_trace

        issued = 0
        issued_estimate = 0.0
        blocked = []
        scans = 0
        max_scans = width * _SCAN_FACTOR

        while ready_now and issued < width and scans < max_scans:
            seq = heapq.heappop(ready_now)
            scans += 1
            index = seq % n_trace
            op = op_list[index]
            estimate = estimates[op]
            if estimate_cap is not None and issued_estimate + estimate > estimate_cap:
                blocked.append(seq)
                break
            if op == _LOAD or op == _STORE:
                is_miss = op == _LOAD and mem_levels[index] >= 1
                if is_miss and self._outstanding_misses >= self.config.mshr_entries:
                    blocked.append(seq)
                    self.mshr_stall_cycles += 1
                    continue
                if not ports.try_claim():
                    blocked.append(seq)
                    continue
                access = self.cache.access(mem_levels[index], op == _STORE)
                latency = access.latency
                power.add_cache_access(access)
                if is_miss:
                    self._outstanding_misses += 1
            else:
                if not fus.try_claim(op):
                    blocked.append(seq)
                    continue
                latency = _EXEC_LATENCY[op]
            finish_cycle = cycle + latency
            finish[seq % _WINDOW] = finish_cycle
            heapq.heappush(completions, (finish_cycle, seq))
            power.add_issue(op, latency)
            issued += 1
            issued_estimate += estimate

        for seq in blocked:
            heapq.heappush(ready_now, seq)
        return issued, issued_estimate

    def _commit(self, cycle):
        config = self.config
        finish = self._finish
        op_list = self._op
        n_trace = self._n_trace
        committed = 0
        seq = self.seq_commit
        while committed < config.commit_width and seq < self.seq_dispatch:
            w = seq % _WINDOW
            if finish[w] > cycle:
                break
            op = op_list[seq % n_trace]
            if op == _LOAD or op == _STORE:
                self.lsq_count -= 1
            self.rob_count -= 1
            committed += 1
            seq += 1
        self.seq_commit = seq
        return committed
