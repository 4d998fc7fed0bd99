"""Top-level GPU engine: ties SMs, the memory subsystem and the scheme
stack together and runs the measurement window.

As in the paper's methodology (§2.3), kernels are modelled as an
endless stream of thread blocks for the duration of the window
(equivalent to "a kernel will restart if it completes before 2M
cycles"), and per-kernel IPC is measured over the whole window.
"""

from __future__ import annotations

import itertools
import os
from typing import Dict, List, Optional, Sequence, Set, Union

from repro.config import GPUConfig
from repro.core.arbiter import SchemeConfig
from repro.mem.subsystem import MemorySubsystem, PooledMemorySubsystem
from repro.obs.collector import ObsLike, resolve_obs
from repro.sim.sm import StreamingMultiprocessor
from repro.sim.stats import KernelStats, RunResult, TimelineRecorder
from repro.sim.wheel import EventWheel
from repro.workloads import trace as ktrace
from repro.workloads.kernel import InstructionStream, KernelProfile, ReplayStream

#: address-space stride separating kernel instances (in lines).
KERNEL_REGION_LINES = 1 << 40

#: fast-loop cycles between drops of the event wheel's past entries.
WHEEL_PRUNE_CYCLES = 1024


class KernelLaunch:
    """One kernel instance in a run: profile + per-SM TB limits +
    private address region + deterministic stream seeding."""

    def __init__(self, slot: int, profile: KernelProfile,
                 tb_limits: Sequence[int], seed: int = 0):
        self.slot = slot
        self.profile = profile
        self.tb_limits = list(tb_limits)
        self.seed = seed
        self.base_line = slot * KERNEL_REGION_LINES
        self.pattern = profile.pattern_factory()
        self._warp_counter = itertools.count()
        self._stream_seed = seed * 7919 + slot
        # Compiled trace for this (profile, seed), shared process-
        # wide; None when the profile is untraceable or tracing is
        # disabled (REPRO_NO_TRACE=1) — then streams fall back to live
        # RNG generation.  Replay is bit-identical either way, so both
        # the fast and the reference loop replay the same arrays.
        self.trace = ktrace.get_trace(profile, self._stream_seed)

    def next_warp_index(self) -> int:
        return next(self._warp_counter)

    def new_stream(self, warp_index: int):
        # Streams rebase their region-local lines by base_line as they
        # receive them, so every descriptor they hand the SM is already
        # in global line space (one rebase per compiled prefix, not per
        # issue).  A replay starts on the warp's compiled prefix and
        # asks the trace to extend it as it goes.
        trace = self.trace
        if trace is not None:
            return ReplayStream(trace, warp_index, base_line=self.base_line)
        return InstructionStream(self.profile, self.pattern, warp_index,
                                 seed=self._stream_seed,
                                 base_line=self.base_line)


def make_launches(
    profiles: Sequence[KernelProfile],
    tb_limits: Sequence[Union[int, Sequence[int]]],
    config: GPUConfig,
    sm_masks: Optional[Sequence[Optional[Set[int]]]] = None,
    seed: int = 0,
) -> List[KernelLaunch]:
    """Build launches from per-kernel TB limits.

    ``tb_limits[i]`` is either a single per-SM limit or a per-SM list.
    ``sm_masks[i]`` (optional) restricts kernel *i* to a subset of SMs
    (spatial multitasking); on masked-out SMs the limit is forced to 0.
    """
    if len(profiles) != len(tb_limits):
        raise ValueError("one TB limit per kernel required")
    launches = []
    for slot, (profile, limit) in enumerate(zip(profiles, tb_limits)):
        if isinstance(limit, int):
            per_sm = [limit] * config.num_sms
        else:
            per_sm = list(limit)
            if len(per_sm) != config.num_sms:
                raise ValueError("per-SM limit list length must equal num_sms")
        if sm_masks is not None and sm_masks[slot] is not None:
            mask = sm_masks[slot]
            per_sm = [lim if sm in mask else 0 for sm, lim in enumerate(per_sm)]
        launches.append(KernelLaunch(slot, profile, per_sm, seed))
    return launches


class GPU:
    """A configured GPU ready to simulate one measurement window.

    ``reference=True`` (or the ``REPRO_REFERENCE_LOOP=1`` environment
    variable) disables the cycle-loop fast paths — scheduler sleep
    hints and the memory-subsystem idle skip — forcing the reference
    per-cycle scan everywhere.  Both modes produce bit-identical
    results; the perf suite asserts this on every run.

    ``obs`` enables the observability layer (``True``, an
    :class:`~repro.obs.ObsOptions`, or a prepared
    :class:`~repro.obs.Observability`).  Observing never changes which
    loop or memory path runs: the fast loop charges the cycles it
    skips to the stall taxonomy when each skip ends, so its stall
    tables, phase records and adaptation log equal the reference
    loop's exactly, and simulated results stay bit-identical to an
    unobserved run (docs/PERF.md §8).

    ``pooled`` selects the struct-of-arrays memory path (slot-pooled
    requests, array-backed L1D/MSHR tag stores, ring DRAM queues).
    Default (None): follow the loop mode — pooled on the fast loop,
    the reference object path on the reference loop — overridable via
    ``REPRO_POOLED_MEM=1``/``0``.  Both paths are bit-identical; the
    perf suite and tests/test_pooled_identity.py assert it.
    """

    def __init__(self, config: GPUConfig, launches: List[KernelLaunch],
                 scheme: Optional[SchemeConfig] = None,
                 timeline_interval: Optional[int] = None,
                 reference: Optional[bool] = None,
                 obs: ObsLike = None,
                 pooled: Optional[bool] = None):
        if not launches:
            raise ValueError("need at least one kernel launch")
        self.obs = resolve_obs(obs)
        if reference is None:
            reference = os.environ.get("REPRO_REFERENCE_LOOP", "") == "1"
        self.reference = reference
        if pooled is None:
            env = os.environ.get("REPRO_POOLED_MEM", "")
            if env in ("0", "1"):
                pooled = env == "1"
            else:
                pooled = not reference
        self.pooled = pooled
        self.config = config
        self.launches = launches
        self.scheme = scheme or SchemeConfig()
        #: the unified event wheel: every component posts its future
        #: activity cycles here, so the fast loop's leap target is one
        #: amortised O(1) query instead of a scan over schedulers, SMs,
        #: the event heap and the DRAM channels.
        self.wheel = EventWheel()
        mem_cls = PooledMemorySubsystem if pooled else MemorySubsystem
        # The backend's hooks only trace request lifetimes: it carries
        # the collector only when a Chrome trace records them.
        tracing = self.obs is not None and self.obs.trace is not None
        self.memory = mem_cls(config, fastpath=not reference,
                              obs=self.obs if tracing else None,
                              wheel=self.wheel)
        self.timeline = (TimelineRecorder(timeline_interval)
                         if timeline_interval else None)
        self.kernel_stats: Dict[int, KernelStats] = {
            launch.slot: KernelStats() for launch in launches
        }
        self.sms: List[StreamingMultiprocessor] = []
        shared_scheme_state: Dict[str, object] = {}
        for sm_id in range(config.num_sms):
            l1 = self.memory.l1s[sm_id]
            bundle = self.scheme.build(len(launches), config, l1.tags,
                                       shared=shared_scheme_state,
                                       sm_id=sm_id)
            self.sms.append(StreamingMultiprocessor(
                sm_id, config, l1, launches, bundle,
                self.kernel_stats, self.timeline, fastpath=not reference,
                obs=self.obs, wheel=self.wheel,
                pool=self.memory.pool if pooled else None))
        self.cycles_run = 0
        if self.obs is not None:
            self.obs.attach(self)

    def set_tb_limit(self, sm_id: int, slot: int, limit: int) -> None:
        """Reconfigure one kernel's TB cap on one SM at runtime
        (dynamic Warped-Slicer; resident TBs above the new cap drain
        naturally — no preemption)."""
        if limit < 0:
            raise ValueError("limit must be non-negative")
        sm = self.sms[sm_id]
        sm.kstate[slot].tb_limit = limit
        # A raised cap can unblock TB launches on this SM.
        sm._launch_blocked = False
        sm._sleep_until = 0

    def snapshot_insts(self) -> Dict[int, int]:
        """Per-kernel instruction counters (for window measurements)."""
        return {slot: stats.warp_insts
                for slot, stats in self.kernel_stats.items()}

    def run(self, max_cycles: int) -> RunResult:
        """Simulate ``max_cycles`` core cycles and collect results.

        With a phase sampler the window is split into spans that end at
        the sampler's interval boundaries; each span end settles every
        deferred debt (:meth:`_settle`) before the sample is taken.
        Both loops resume exactly, so the split run equals the unsplit
        one."""
        if max_cycles < 1:
            raise ValueError("max_cycles must be positive")
        run_span = self._run_reference if self.reference else self._run_fast
        cycle = self.cycles_run
        end = cycle + max_cycles
        sampler = self.obs.sampler if self.obs is not None else None
        if sampler is None:
            run_span(cycle, end)
        else:
            interval = sampler.interval
            while cycle < end:
                stop = min(end, (cycle // interval + 1) * interval)
                run_span(cycle, stop)
                cycle = stop
                self.cycles_run = stop
                self._settle()
                sampler.on_cycle(stop - 1, self)
        self.cycles_run = end
        return self._collect()

    def _run_reference(self, start: int, end: int) -> None:
        """Cycles ``[start, end)`` on the reference per-cycle loop."""
        memory_tick = self.memory.tick
        sm_ticks = [sm.tick for sm in self.sms]
        for cycle in range(start, end):
            memory_tick(cycle)
            for sm_tick in sm_ticks:
                sm_tick(cycle)

    def _run_fast(self, cycle: int, end: int) -> None:
        """Cycles ``[cycle, end)`` on the fast loop.

        Latency-shadow leap: when every SM sleeps past the current
        cycle and the backend queues are drained, nothing can happen
        until the earliest posted wheel event — jump there directly.
        SM sleeps, scheduler wakes, scheduled memory events and DRAM
        service completions all post their cycles into the wheel, so
        the leap target is one amortised-O(1) query instead of a scan
        over every component.  The backend accounts for the leapt
        cycles in one batch (skip_cycles, a provable no-op replay);
        each SM's tick catches up its rotation state from the cycle
        gap.  The sleep scan early-exits on the first awake SM, so
        saturated phases pay almost nothing for the check.  Stale
        wheel entries (events that resolved early) at worst stop the
        leap at one inert cycle.  The check runs before each cycle
        rather than after the previous one, so a span that starts
        mid-leap (a resumed run, a phase boundary) continues the leap
        instead of ticking its first cycle.

        Every :data:`WHEEL_PRUNE_CYCLES` cycles the loop drops the
        wheel's past entries, which otherwise leave only through a
        leap: a run that rarely leaps would keep one entry per cycle."""
        # Bind the per-cycle callees to locals: the loop body is pure
        # dispatch, so attribute lookups would be a measurable share.
        memory_tick = self.memory.tick
        sm_ticks = [sm.tick for sm in self.sms]
        sms = self.sms
        leapable = self.memory.leapable
        skip_cycles = self.memory.skip_cycles
        wheel_next = self.wheel.next_after
        while cycle < end:
            stop = min(end, cycle - cycle % WHEEL_PRUNE_CYCLES
                       + WHEEL_PRUNE_CYCLES)
            while cycle < stop:
                for sm in sms:
                    if sm._sleep_until <= cycle:
                        break
                else:
                    if leapable():
                        target = wheel_next(cycle - 1)
                        if target > end:
                            target = end
                        if target > cycle:
                            skip_cycles(target - cycle)
                            cycle = target
                            continue
                memory_tick(cycle)
                for sm_tick in sm_ticks:
                    sm_tick(cycle)
                cycle += 1
            wheel_next(cycle - 1)  # drops every entry already ticked

    def _settle(self) -> None:
        """Settle every SM's deferred debts up to ``cycles_run`` (see
        StreamingMultiprocessor.settle), so stats and stall-table reads
        see exactly the reference loop's state."""
        end = self.cycles_run
        for sm in self.sms:
            sm.settle(end)

    def _collect(self) -> RunResult:
        self._settle()
        cfg = self.config
        cycles = self.cycles_run
        slots = [launch.slot for launch in self.launches]
        accesses = {s: 0 for s in slots}
        hits = {s: 0 for s in slots}
        misses = {s: 0 for s in slots}
        rsfails = {s: 0 for s in slots}
        for l1 in self.memory.l1s:
            for s in slots:
                accesses[s] += l1.stats.accesses.get(s, 0)
                hits[s] += l1.stats.hits.get(s, 0)
                misses[s] += l1.stats.misses.get(s, 0)
                rsfails[s] += l1.stats.rsfails.get(s, 0)
        result = RunResult(
            cycles=cycles,
            kernel_names=[launch.profile.name for launch in self.launches],
            kernels=self.kernel_stats,
            l1d_accesses=accesses,
            l1d_hits=hits,
            l1d_misses=misses,
            l1d_rsfails=rsfails,
            lsu_stall_cycles=sum(sm.lsu.stall_cycles for sm in self.sms),
            lsu_busy_cycles=sum(sm.lsu.busy_cycles for sm in self.sms),
            alu_busy=sum(sm.alu_busy for sm in self.sms),
            sfu_busy=sum(sm.sfu_busy for sm in self.sms),
            alu_slots=cycles * cfg.alu_units * cfg.num_sms,
            sfu_slots=cycles * cfg.sfu_units * cfg.num_sms,
            timeline=self.timeline,
            dram_row_hit_rate=self.memory.dram.row_hit_rate(),
            num_sms=cfg.num_sms,
            l2_accesses=sum(self.memory.l2_stats.accesses.values())
                        + sum(self.memory.l2_stats.writes.values()),
            l2_misses=sum(self.memory.l2_stats.misses.values()),
            dram_accesses=self.memory.dram.total_serviced(),
            icnt_flits=self.memory.icnt.req_flits_sent
                       + self.memory.icnt.rsp_flits_sent,
        )
        if self.obs is not None:
            result.obs = self.obs.report(self)
        return result
