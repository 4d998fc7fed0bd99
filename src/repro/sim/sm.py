"""The Streaming Multiprocessor: issue logic, execution units, TB
residency, and the scheme hooks.

Per cycle each SM:

1. launches at most one pending thread block (respecting the CKE
   layer's per-kernel TB limits and the Table 1 static resources);
2. lets every warp scheduler select a candidate; compute candidates
   issue immediately (per-scheduler ALU port, shared SFU port), memory
   candidates compete for the single LSU issue slot, arbitrated by the
   configured BMI policy and gated by the MIL limiter and the SMK
   quota gate;
3. ticks the LSU (one L1D request, or a stall).

The SM reports all scheme-relevant events (requests, reservation
failures, in-flight counts) to its :class:`~repro.core.SchemeBundle`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import GPUConfig
from repro.core.arbiter import SchemeBundle
from repro.core.bmi import MemIssuePolicy, UnmanagedIssue
from repro.core.mil import MemInstLimiter, NoLimit
from repro.mem.cache import L1DCache
from repro.obs.stalls import (
    ISSUED,
    KERNEL_NONE,
    STALL_BMI_LOSS,
    STALL_EXEC_PORT,
    STALL_LSU_FULL,
    STALL_MIL_CAPPED,
    STALL_NO_WARP,
    STALL_OTHER,
    STALL_SCOREBOARD,
    STALL_SMK_GATE,
)
from repro.sim.lsu import LoadStoreUnit
from repro.sim.scheduler import NEVER, WarpScheduler
from repro.sim.stats import KernelStats, TimelineRecorder
from repro.sim.warp import MemInst, ThreadBlock, Warp
from repro.workloads.kernel import OP_ALU, OP_SFU, OP_STORE

#: ``_obs_bursts`` entry of a scheduler with no armed burst.
_NO_BURST = (KERNEL_NONE, -1)


class SMKernelState:
    """Per-SM runtime state for one resident kernel."""

    __slots__ = ("tb_limit", "tb_count", "inflight_minsts", "resident_warps")

    def __init__(self, tb_limit: int):
        self.tb_limit = tb_limit
        self.tb_count = 0
        self.inflight_minsts = 0
        self.resident_warps = 0


class StreamingMultiprocessor:
    """One SM instance."""

    def __init__(self, sm_id: int, config: GPUConfig, l1: L1DCache,
                 launches: List, bundle: SchemeBundle,
                 kernel_stats: Dict[int, KernelStats],
                 timeline: Optional[TimelineRecorder] = None,
                 fastpath: bool = True, obs=None, wheel=None, pool=None):
        self.sm_id = sm_id
        self.config = config
        self.l1 = l1
        self.launches = launches
        self.bundle = bundle
        self.kernel_stats = kernel_stats
        self.timeline = timeline
        #: observability collector (None = zero-cost sentinel checks).
        self._obs = obs
        #: engine event wheel (None for standalone SMs): sleep
        #: decisions and external wakes post their cycles here so the
        #: engine's cycle leap sees a global next-event time.
        self._wheel = wheel
        #: per-tick scratch for stall attribution: scheduler id ->
        #: issuing kernel, and scheduler id -> kernel that lost the
        #: BMI arbitration without a compute fallback.
        self._obs_issued: Dict[int, int] = {}
        self._obs_lost: Dict[int, int] = {}
        nsched = config.schedulers_per_sm
        #: per scheduler, ``(kernel, last cycle)`` of its armed issue
        #: autopilot burst: burst steps bypass _issue_compute, so stall
        #: attribution reads their issue slots from this ledger.
        self._obs_bursts = [_NO_BURST] * nsched
        #: per scheduler, ``(memo episode, kernel of its first ready
        #: warp)``: a GTO scheduler held by the memory-stall memo
        #: charges ``lsu_full`` to that kernel for the whole episode.
        self._obs_memos = [(0, KERNEL_NONE)] * nsched
        #: per scheduler, the current run of identical issue-slot
        #: outcomes ``[kernel, reason, cycles]`` not yet paid into the
        #: stall table (see _obs_account).
        self._obs_runs = [[KERNEL_NONE, None, 0] for _ in range(nsched)]
        #: ``(scheduler, memo episode, run)`` for every scheduler when
        #: all of them were memo-held last cycle (else None): the
        #: steady memory-pipeline stall, whose cycles just extend the
        #: runs while every episode holds.
        self._obs_steady = None

        self.lsu = LoadStoreUnit(sm_id, l1, width=config.lsu_width)
        self.lsu._obs = obs
        # Shared request pool: selects the LSU's struct-of-arrays tick
        # (``l1`` is then a PooledL1DCache).  None keeps the object path.
        self.lsu.pool = pool
        # Bind the resolved tick implementation once — the per-cycle
        # call in tick() then skips the pool dispatch check.
        self._lsu_tick = (self.lsu._tick_pooled if pool is not None
                          else self.lsu.tick)
        # The stall-replay memo is a fast-loop trick; the reference
        # loop stays the plain implementation the memo is validated
        # against (bit-identity is asserted in tests/test_fastpath.py).
        self.lsu.use_stall_memo = fastpath
        self.schedulers = [WarpScheduler(i, config.scheduler_policy,
                                         fastpath=fastpath)
                           for i in range(config.schedulers_per_sm)]
        for sched in self.schedulers:
            sched.sm = self
        self.kstate: Dict[int, SMKernelState] = {
            launch.slot: SMKernelState(launch.tb_limits[sm_id])
            for launch in launches
        }
        #: kstate as a list — the slot set is fixed for the whole run,
        #: so per-tick iteration avoids rebuilding a dict view.
        self._kstate_items = list(self.kstate.items())
        self._launch_by_slot = {launch.slot: launch for launch in launches}
        # The bypass set is fixed per run: give the LSU a plain dict
        # instead of a per-request predicate call.
        self.lsu.bypass_by_kernel = {
            launch.slot: bundle.bypasses_l1d(launch.slot)
            for launch in launches
        }

        # Static resource bookkeeping.
        self._used_threads = 0
        self._used_warps = 0
        self._used_regs = 0
        self._used_smem = 0
        self._used_tbs = 0

        self._warp_age = 0
        self._next_tb_id = 0
        self._sched_rr = 0
        self._launch_rr = 0
        self._sfu_used = False
        self.alu_busy = 0
        self.sfu_busy = 0

        # Hot-loop state for the issue callbacks (set per tick) plus
        # bound-method references so tick() allocates no closures.
        # LSU occupancy and MIL verdicts depend only on the kernel slot
        # and on state that is frozen during the selection phase, so
        # the fast path resolves them once per tick into _mem_ok_now
        # instead of re-deriving them per candidate warp.  The SMK gate
        # is NOT frozen — compute issues during the scheduler loop
        # consume quota via note_issue — so gate verdicts are always
        # queried live, exactly as the reference closures do.
        self._fastpath = fastpath
        # The SMK gate is fixed for the run; callbacks read it through
        # this alias (kept for the standalone-SM test setups that
        # construct the SM without a bundle gate).
        self._gate = bundle.smk_gate
        self._lsu_free = True
        self._mem_ok_now: Dict[int, bool] = {}
        # With no SMK gate and an unlimited MIL, the per-kernel verdict
        # collapses to "is the LSU free": keep both constant answer
        # maps prebuilt and just point _mem_ok_now at the right one.
        self._limiter_unlimited = isinstance(bundle.limiter, NoLimit)
        # Baseline runs leave every scheme observation hook at its
        # empty base-class implementation; detecting that once lets
        # the per-issue and per-request paths skip the calls outright
        # (a pure no-op either way, so both loops take the same skip).
        lim_cls = type(bundle.limiter)
        pol_cls = type(bundle.mem_policy)
        self._mem_hooks_inert = (
            lim_cls.note_request is MemInstLimiter.note_request
            and lim_cls.note_rsfail is MemInstLimiter.note_rsfail
            and lim_cls.observe_inflight is MemInstLimiter.observe_inflight
            and pol_cls.note_mem_inst is MemIssuePolicy.note_mem_inst
            and pol_cls.note_request is MemIssuePolicy.note_request
            and bundle.ucp is None
        )
        # Everything the pooled LSU tick's per-call checks depend on
        # (hook inertness, timeline, obs) is fixed for the run:
        # resolve them into the LSU once instead of per cycle.
        self.lsu._inline_stats = (
            kernel_stats
            if self._mem_hooks_inert and timeline is None else None)
        # Replayed stall cycles are always deferrable: the limiter's
        # rsfail hook takes a count, so the flush pays the whole
        # stretch in one call (docs/PERF.md §9).
        self.lsu._defer_ok = True
        if lim_cls.note_rsfail is not MemInstLimiter.note_rsfail:
            self.lsu._note_rsfail = bundle.limiter.note_rsfail
        #: the baseline policy's pick is pure "first proposer wins":
        #: skip the candidate-list build and the dispatch entirely.
        self._pick_trivial = pol_cls.pick is UnmanagedIssue.pick
        self._ok_all = {launch.slot: True for launch in launches}
        self._ok_none = {launch.slot: False for launch in launches}
        # Scheduler issue orders for each round-robin start, prebuilt.
        self._sched_orders = [
            tuple(self.schedulers[(s + o) % nsched] for o in range(nsched))
            for s in range(nsched)
        ]
        self._mem_ok_cb = self._mem_ok
        self._mem_ok_gated_cb = self._mem_ok_gated
        self._compute_ok_cb = self._compute_ok
        self._warp_gated_cb = self._warp_gated
        #: True while a TB-launch scan is known to be futile; cleared
        #: whenever residency or a TB limit changes.
        self._launch_blocked = False
        #: whole-SM sleep: while ``cycle < _sleep_until`` the entire
        #: tick is provably a no-op and is skipped.  Eligible under
        #: GTO and LRR with no UCP (UCP ticks its epoch counter every
        #: cycle).  LRR's only per-cycle state is the rotation
        #: position, which tick() catches up from the cycle gap —
        #: select() advances it exactly once per call whenever the
        #: scheduler owns warps, so skipped cycles owe one advance
        #: each.  A sleep with a (full) LSU queue is a memory-stall
        #: sleep: the head re-fails every slept cycle until the L1D's
        #: version changes, which wakes the SM (:meth:`wake`).
        self._sleep_until = 0
        self._last_tick = -1
        self._sleep_eligible = (fastpath
                                and config.scheduler_policy in ("gto", "lrr")
                                and bundle.ucp is None)
        self._lrr = config.scheduler_policy == "lrr"
        # Run-constant scheme components, hoisted out of tick().
        self._ucp = bundle.ucp
        self._smk_gate = bundle.smk_gate
        self._limiter = bundle.limiter
        #: issue autopilot eligibility (see WarpScheduler._auto_warp):
        #: after a compute issue the greedy warp's run of consecutive
        #: ALU ops is issued one per cycle without re-running select().
        #: Bursts bypass _issue_compute's gate/timeline/trace hooks, so
        #: autopilot only arms when all of those are provably inert,
        #: and only under GTO (the burst relies on the greedy warp
        #: holding priority[0] between issues).  Stall attribution
        #: charges burst slots from ``_obs_bursts``; a Chrome trace
        #: needs one slice per issue, so it keeps bursts disarmed.
        self._auto_ok = (fastpath
                         and config.scheduler_policy == "gto"
                         and bundle.smk_gate is None
                         and timeline is None
                         and (obs is None or obs.trace is None))
        # Scheme window boundaries (DMIL limit recompute, QBMI quota
        # replenish, Req/Minst refresh) change issue eligibility with
        # no scheduler wake attached: register them as conservative
        # wheel re-evaluation points so the cycle leap can never jump
        # past one.  (Gated warps also keep their SM awake, so these
        # posts are belt-and-braces; a stale post costs at most one
        # inert tick.)
        limiter = bundle.limiter
        milgs = getattr(limiter, "milgs", None)
        if milgs is None:
            shared = getattr(limiter, "shared", None)
            if shared is not None:
                milgs = getattr(shared, "milgs", None)
        if milgs:
            for milg in milgs:
                milg.on_window = self._note_scheme_window
        policy = bundle.mem_policy
        estimators = getattr(policy, "estimators", None)
        if estimators:
            for est in estimators:
                est.on_window = self._note_scheme_window
        if hasattr(policy, "on_window"):
            policy.on_window = self._note_scheme_window

    # ------------------------------------------------------------------
    # thread block launch
    def _fits(self, launch) -> bool:
        cfg = self.config
        profile = launch.profile
        warps = profile.warps_per_tb(cfg.warp_size)
        return (
            self._used_tbs + 1 <= cfg.max_tbs_per_sm
            and self._used_threads + profile.threads_per_tb <= cfg.max_threads_per_sm
            and self._used_warps + warps <= cfg.max_warps_per_sm
            and self._used_regs + profile.regs_per_thread * profile.threads_per_tb
                <= cfg.registers_per_sm
            and self._used_smem + profile.smem_per_tb <= cfg.smem_per_sm
        )

    def try_launch_tb(self, cycle: int) -> None:
        """Launch at most one TB, round-robin over kernels.

        A failed scan is remembered (``_launch_blocked``): launchability
        only changes when a TB retires or a TB limit is reconfigured,
        both of which clear the flag, so blocked cycles skip the scan
        (fast path only; the reference loop always rescans).
        """
        if self._launch_blocked and self._fastpath:
            return
        n = len(self.launches)
        if not n:
            return
        start = self._launch_rr
        for offset in range(n):
            launch = self.launches[(start + offset) % n]
            state = self.kstate[launch.slot]
            if state.tb_count >= state.tb_limit:
                continue
            if not self._fits(launch):
                continue
            self._launch_rr = (start + offset + 1) % n
            self._launch(launch, cycle)
            return
        self._launch_blocked = True

    def _launch(self, launch, cycle: int) -> None:
        cfg = self.config
        profile = launch.profile
        tb = ThreadBlock(self._next_tb_id, launch.slot, profile)
        self._next_tb_id += 1
        warps_per_tb = profile.warps_per_tb(cfg.warp_size)
        for _ in range(warps_per_tb):
            warp_index = launch.next_warp_index()
            stream = launch.new_stream(warp_index)
            warp = Warp(warp_index, launch.slot, tb, stream, self._warp_age,
                        mlp=profile.mlp)
            warp.ready_at = cycle + 1
            self._warp_age += 1
            tb.warps.append(warp)
            tb.live_warps += 1
            # Balance warps across schedulers.
            sched = min(self.schedulers, key=lambda s: len(s.warps))
            sched.add_warp(warp)
        state = self.kstate[launch.slot]
        state.tb_count += 1
        state.resident_warps += warps_per_tb
        self._used_tbs += 1
        self._used_threads += profile.threads_per_tb
        self._used_warps += warps_per_tb
        self._used_regs += profile.regs_per_thread * profile.threads_per_tb
        self._used_smem += profile.smem_per_tb
        self.kernel_stats[launch.slot].tbs_launched += 1

    def _retire_tb(self, tb: ThreadBlock) -> None:
        profile = tb.profile
        warps_per_tb = len(tb.warps)
        state = self.kstate[tb.kernel_slot]
        state.tb_count -= 1
        state.resident_warps -= warps_per_tb
        self._used_tbs -= 1
        self._used_threads -= profile.threads_per_tb
        self._used_warps -= warps_per_tb
        self._used_regs -= profile.regs_per_thread * profile.threads_per_tb
        self._used_smem -= profile.smem_per_tb
        self._launch_blocked = False
        # Freed residency may admit a new TB: resume ticking.
        self._sleep_until = 0
        self.kernel_stats[tb.kernel_slot].tbs_completed += 1

    def _finish_warp(self, warp: Warp) -> None:
        # The owning scheduler is recorded on the warp at add_warp
        # time, so retirement needs no scan over schedulers.
        warp.sched.remove_warp(warp)
        warp.tb.note_warp_done()
        if warp.tb.done:
            self._retire_tb(warp.tb)

    # ------------------------------------------------------------------
    # issue
    def _mem_ok(self, warp: Warp, op: str) -> bool:
        return self._mem_ok_now[warp.kernel_slot]

    def _mem_ok_gated(self, warp: Warp, op: str) -> bool:
        # Gate queried live: quota may have been consumed by an issue
        # earlier in this same cycle's scheduler loop.
        k = warp.kernel_slot
        return self._mem_ok_now[k] and self._gate.can_issue(k)

    def _compute_ok(self, op: str) -> bool:
        return not (op == OP_SFU and self._sfu_used)

    def _warp_gated(self, warp: Warp) -> bool:
        return self._gate.can_issue(warp.kernel_slot)

    def tick(self, cycle: int) -> None:
        if cycle < self._sleep_until:
            # Whole-SM sleep (see __init__): nothing can launch, issue
            # or drain before _sleep_until; external events lower it.
            return
        last = self._last_tick
        self._last_tick = cycle
        if self._fastpath and cycle - last > 1:
            # Awake again: a later version bump has no sleep to end.
            self.l1._sleeper = None
            self._catch_up(last + 1, cycle - last - 1)
        fastpath = self._fastpath
        if self._ucp is not None:
            self._ucp.tick(cycle)
        if not (self._launch_blocked and fastpath):
            # Inlined try_launch_tb fast-out: a blocked scan stays
            # blocked until residency or a limit changes.
            self.try_launch_tb(cycle)
        self._sfu_used = False

        gate = self._smk_gate
        lsu = self.lsu
        self._lsu_free = lsu_free = len(lsu.queue) < lsu.queue_depth
        if fastpath:
            # Resolve the per-kernel can-issue verdicts once: the gate,
            # the limiter and the LSU occupancy are all frozen during
            # the selection phase, and all their predicates are pure.
            # ``mem_ok=None`` is the scheduler's "nothing mem can
            # issue" sentinel — the memory-pipeline-stall case, where
            # per-warp callback dispatch would be pure overhead.
            if gate is None:
                # With no SMK gate every warp is ungated; passing None
                # lets the scheduler skip the per-warp check entirely.
                warp_gated = None
                if not lsu_free:
                    mem_ok = None
                elif self._limiter_unlimited:
                    # ``mem_ok=True`` sentinel: every kernel may issue
                    # — the scheduler skips callback dispatch entirely.
                    mem_ok = True
                else:
                    # The limiter kind is fixed per run, so _mem_ok_now
                    # still points at its own mutable dict here.
                    limiter = self._limiter
                    ok = self._mem_ok_now
                    for k, st in self._kstate_items:
                        ok[k] = limiter.can_issue(k, st.inflight_minsts)
                    mem_ok = self._mem_ok_cb
            else:
                warp_gated = self._warp_gated_cb
                if lsu_free:
                    limiter = self._limiter
                    ok = self._mem_ok_now
                    for k, st in self._kstate_items:
                        ok[k] = limiter.can_issue(k, st.inflight_minsts)
                    mem_ok = self._mem_ok_gated_cb
                else:
                    mem_ok = None
            compute_ok = self._compute_ok_cb
        else:
            # Reference loop: allocate the callbacks as per-cycle
            # closures, the straightforward implementation the fast
            # path is benchmarked against.
            limiter = self.bundle.limiter
            lsu_free = self._lsu_free

            def mem_ok(warp: Warp, op: str) -> bool:
                k = warp.kernel_slot
                if gate is not None and not gate.can_issue(k):
                    return False
                return lsu_free and limiter.can_issue(
                    k, self.kstate[k].inflight_minsts)

            def compute_ok(op: str) -> bool:
                return not (op == OP_SFU and self._sfu_used)

            def warp_gated(warp: Warp) -> bool:
                return gate is None or gate.can_issue(warp.kernel_slot)

        mem_proposals = None
        n = len(self.schedulers)
        start = self._sched_rr
        self._sched_rr = (start + 1) % n
        for sched in self._sched_orders[start]:
            if sched._auto_left:
                # Issue autopilot: the greedy warp's precompiled run of
                # consecutive ALU ops issues one instruction per cycle
                # without re-running selection — provably what select()
                # would pick (see WarpScheduler._auto_warp).  Armed
                # only when gate/timeline/obs are inert (_auto_ok), so
                # this inlines exactly _issue_compute's live effects.
                warp = sched._auto_warp
                if warp.ready_at <= cycle:
                    # The stream was advanced past the whole run at
                    # arming time, so a burst pop is pure bookkeeping.
                    stats = sched._auto_stats
                    stats.warp_insts += 1
                    stats.alu_insts += 1
                    self.alu_busy += 1
                    warp.ready_at = cycle + 1
                    left = sched._auto_left - 1
                    sched._auto_left = left
                    if not left:
                        sched._auto_warp = None
                        stream = warp.stream
                        if stream.next_op is None:
                            if not warp.outstanding_loads:
                                self._finish_warp(warp)
                            else:
                                sched.scan_block(warp)
                    continue
                # A returned load raised the warp's scoreboard past
                # this cycle (Warp.note_load_done): select() would now
                # skip it and may pick a different warp, so the burst
                # premise is gone — disarm, give the unissued remainder
                # of the pre-advanced run back to the stream, and fall
                # through to the normal selection path.
                sched._auto_warp = None
                warp.stream.rewind_alu(sched._auto_left)
                sched._auto_left = 0
                if self._obs is not None:
                    self._obs_bursts[sched.sched_id] = _NO_BURST
            if fastpath:
                if cycle < sched._next_wake:
                    # select()'s latency-sleep early-out, inlined to
                    # save the call: every warp is blocked until
                    # _next_wake, so select would return None (LRR
                    # still owes its per-call rotation).
                    if self._lrr and sched.warps:
                        sched._lrr_pos += 1
                    continue
                if (mem_ok is None and sched._mem_stalled
                        and cycle < sched._mem_wake):
                    # Memory-pipeline stall memo: the LSU is still
                    # full and every ready warp still holds a memory
                    # instruction (see WarpScheduler._mem_stalled) —
                    # select() would provably return None.  Keep LRR's
                    # once-per-call rotation exactly as that call
                    # would have.
                    if self._lrr and sched.warps:
                        sched._lrr_pos += 1
                    continue
                # compute_ok=None: every port free (no SFU issued yet
                # this cycle) — the scheduler skips the callback.
                sel = sched.select(
                    cycle, mem_ok,
                    compute_ok if self._sfu_used else None, warp_gated)
            else:
                sel = sched.select(cycle, mem_ok, compute_ok, warp_gated)
            if sel is None:
                continue
            if sel.is_mem:
                if mem_proposals is None:
                    mem_proposals = [(sched, sel)]
                else:
                    mem_proposals.append((sched, sel))
            else:
                self._issue_compute(sched, sel.warp, sel.op, cycle)

        if mem_proposals is not None:
            if self._pick_trivial:
                winner = 0
            else:
                kernels = [sel.warp.kernel_slot for _, sel in mem_proposals]
                winner = self.bundle.mem_policy.pick(kernels)
            for idx, (sched, sel) in enumerate(mem_proposals):
                if idx == winner:
                    self._issue_mem(sched, sel.warp, sel.op, cycle)
                elif sel.fallback is not None and compute_ok(sel.fallback_op):
                    self._issue_compute(sched, sel.fallback, sel.fallback_op, cycle)
                elif self._obs is not None:
                    self._obs_lost[sched.sched_id] = sel.warp.kernel_slot

        if self._obs is not None:
            self._obs_account(self._obs, cycle)
        self._lsu_tick(cycle, self)

        if gate is not None:
            resident = [k for k, st in self.kstate.items() if st.resident_warps]
            if resident:
                gate.maybe_reset(resident)
        elif self._sleep_eligible and self._launch_blocked:
            # Every scheduler is either mid-ALU-burst (autopilot) or its
            # latest scan found nothing latency-ready (future hint), no
            # TB can launch and the LSU is drained: the SM's next ticks
            # are fully determined — each slept cycle issues exactly one
            # ALU per bursting scheduler and nothing else.  Sleep until
            # the earliest of the burst ends and the scheduler wakes;
            # the wake-up tick pays the slept issues in one batch (see
            # the catch-up above).  A load return that would break a
            # burst early lowers _sleep_until to its own cycle
            # (_on_meminst_complete), so the burst premise provably
            # holds for every slept cycle.  (A mid-burst scheduler's
            # _next_wake is <= its arming cycle, so bursts contribute
            # their end cycle here instead.)
            #
            # Memory-stall sleep (docs/PERF.md §9): with the LSU full and
            # its head just re-failed under a valid stall memo, each slept
            # cycle replays that failure, and schedulers held by the
            # memory-stall memo sleep too, until _mem_wake.  Any L1D
            # version bump wakes the SM (L1DCache.bump_version).
            queue = lsu.queue
            if not queue:
                wake = NEVER
                for sched in self.schedulers:
                    left = sched._auto_left
                    nw = (cycle + left) if left else sched._next_wake
                    if nw < wake:
                        wake = nw
                if wake > cycle + 1:
                    self._sleep(wake, None)
            elif (lsu._stall_memo is not None and mem_proposals is None
                    and len(queue) >= lsu.queue_depth):
                # Stalled ticks often have a scheduler that just issued
                # (a memory proposal always means one did): stop at the
                # first scheduler that keeps the SM awake.
                nxt = cycle + 1
                wake = NEVER
                for sched in self.schedulers:
                    left = sched._auto_left
                    if left:
                        nw = cycle + left
                    else:
                        nw = sched._next_wake
                        if nw <= nxt:
                            if not sched._mem_stalled:
                                break
                            nw = sched._mem_wake
                    if nw <= nxt:
                        break
                    if nw < wake:
                        wake = nw
                else:
                    self._sleep(wake, self)

    def _sleep(self, wake: int, sleeper) -> None:
        """Sleep until ``wake``; ``sleeper`` (this SM, or None when the
        LSU is drained) is registered with the L1D for a memory-stall
        sleep, so version bumps wake it (:meth:`wake`).  It stays
        registered until the SM ticks again (or a load return settles
        the ended sleep)."""
        self._sleep_until = wake
        self.l1._sleeper = sleeper
        wheel = self._wheel
        if wheel is not None and wake < NEVER:
            # Post the wake so the engine's leap target covers this SM;
            # a NEVER wake needs no entry (only an external event —
            # which posts its own cycle — can rouse the SM).
            wheel.post(wake)

    def _issue_compute(self, sched: WarpScheduler, warp: Warp, op: str,
                       cycle: int) -> None:
        stream = warp.stream
        k = warp.kernel_slot
        stats = self.kernel_stats[k]
        stats.warp_insts += 1
        armed = False
        if op is OP_ALU:
            stats.alu_insts += 1
            self.alu_busy += 1
            warp.ready_at = cycle + 1
            if self._auto_ok:
                # This warp is now the greedy warp; if its (precompiled)
                # stream continues with a run of ALU ops, arm the issue
                # autopilot to burn the run down without reselection.
                # The fused pop advances past the whole run up front
                # (one call instead of one pop per burst cycle); a
                # mid-burst disarm rewinds the unissued remainder.
                # Pre-advancing leaves ``next_op`` pointing past the
                # run for the rest of the burst, so it is only allowed
                # when no in-flight load of this warp could observe
                # that future state through ``_on_meminst_complete`` —
                # i.e. when the warp has no outstanding loads
                # (``allow_end``), or when the run provably leaves more
                # work (``next_op`` non-None), which is all the
                # completion path inspects.
                run = stream.pop_alu_burst(not warp.outstanding_loads)
                if run:
                    sched._auto_warp = warp
                    sched._auto_left = run
                    sched._auto_stats = stats
                    armed = True
            else:
                stream.pop()
        else:
            stream.pop()
            stats.sfu_insts += 1
            self.sfu_busy += 1
            self._sfu_used = True
            warp.ready_at = cycle + 4
        sched.note_issued(warp)
        gate = self._gate
        if gate is not None:
            gate.note_issue(k)
        if self.timeline is not None:
            self.timeline.bump("insts", k, cycle)
        if self._obs is not None:
            self._obs_issued[sched.sched_id] = k
            self._obs.issue_event(self.sm_id, sched.sched_id, k, op, cycle)
            if armed:
                self._obs_bursts[sched.sched_id] = (
                    k, cycle + sched._auto_left)
        # An armed burst defers the drain check to its last pop (the
        # pre-advanced ``next_op`` may already read as drained).
        if not armed and stream.next_op is None:
            if not warp.outstanding_loads:
                self._finish_warp(warp)
            else:
                # Drained but loads still in flight: off-scan until the
                # last return retires it.
                sched.scan_block(warp)

    def _issue_mem(self, sched: WarpScheduler, warp: Warp, op: str,
                   cycle: int) -> None:
        stream = warp.stream
        k = warp.kernel_slot
        is_store = op == OP_STORE
        # Lines are already rebased into global line space by the
        # stream (see KernelLaunch.new_stream); for replay streams this
        # is a fresh slice, for live streams a fresh pattern list —
        # safe to hand to the MemInst without copying.
        lines = stream.pop_mem(is_store)
        inst = MemInst(warp, lines, is_store, cycle,
                       self._on_meminst_complete)
        state = self.kstate[k]
        state.inflight_minsts += 1
        if not self._mem_hooks_inert:
            bundle = self.bundle
            bundle.limiter.observe_inflight(k, state.inflight_minsts)
            bundle.mem_policy.note_mem_inst(k)
        self.lsu.enqueue(inst)

        stats = self.kernel_stats[k]
        stats.warp_insts += 1
        stats.mem_insts += 1
        # Inlined Warp.note_load_issued (stores just set the scoreboard).
        if not is_store:
            warp.outstanding_loads += 1
        warp.ready_at = cycle + 1
        sched.note_issued(warp)
        gate = self._gate
        if gate is not None:
            gate.note_issue(k)
        if self.timeline is not None:
            self.timeline.bump("insts", k, cycle)
        if self._obs is not None:
            self._obs_issued[sched.sched_id] = k
            self._obs.issue_event(self.sm_id, sched.sched_id, k, op, cycle)
        # Scan-list upkeep (one transition max per issue): a drained
        # warp retires or waits out its loads off-scan; a load that
        # filled the MLP complement blocks the warp until a return
        # (scan_unblock in _on_meminst_complete).
        if stream.next_op is None:
            if not warp.outstanding_loads:
                self._finish_warp(warp)
            else:
                sched.scan_block(warp)
        elif not is_store and warp.outstanding_loads >= warp.mlp:
            sched.scan_block(warp)

    # ------------------------------------------------------------------
    # stall attribution (observability; never reached with obs off)
    def _obs_account(self, obs, cycle: int) -> None:
        """Classify every scheduler's issue-slot outcome this cycle.

        An issuing scheduler counts as ``issued`` — a step of an issue
        autopilot burst too, read from ``_obs_bursts`` since bursts
        bypass :meth:`_issue_compute`; a non-issuing one is attributed
        to the reason its highest-priority latency-ready warp (the warp
        the hardware would have issued) could not go — see
        :mod:`repro.obs.stalls` for the taxonomy.  Residual same-cycle
        races (e.g. a gate quota consumed between selection and
        attribution) land in ``other``.

        The fast loop skips ``select()`` only when it would provably
        return None, and each skip kind fixes the verdict
        :meth:`~repro.sim.scheduler.WarpScheduler.first_ready` would
        reach, so those slots skip the scan: a scheduler asleep on its
        wake hint has no latency-ready warp (``scoreboard`` against its
        first warp with work, or ``no_warp``); one held by the
        memory-stall memo has only memory-headed ready warps and a full
        LSU (``lsu_full`` against the memo episode's first ready warp,
        fixed for the episode under GTO).  Schedulers that really ran
        ``select()`` and got None go through ``first_ready``.

        Outcomes are run-length batched per scheduler in ``_obs_runs``
        and paid into the stall table when the outcome changes or a
        span ends (:meth:`settle`).

        ``obs`` is the already-guarded sentinel: the caller only
        reaches here under ``if self._obs is not None``.
        """
        issued = self._obs_issued
        lost = self._obs_lost
        lsu_full = not self._lsu_free
        steady = self._obs_steady
        if steady is not None and lsu_full and not issued and not lost:
            # Every scheduler was memo-held last cycle: with the LSU
            # still full (a free LSU runs select(), where a MIL cap may
            # deny the slot instead) and each episode unchanged, each
            # outcome repeats.
            for sched, episode, _run in steady:
                if (sched._mem_stalled != episode
                        or cycle >= sched._mem_wake):
                    break
            else:
                for _sched, _episode, run in steady:
                    run[2] += 1
                return
        bursts = self._obs_bursts
        memos = self._obs_memos
        held = []
        for sched in self.schedulers:
            sid = sched.sched_id
            k = issued.get(sid) if issued else None
            if k is not None:
                reason = ISSUED
            elif lost and sid in lost:
                k = lost[sid]
                reason = STALL_BMI_LOSS
            elif cycle <= bursts[sid][1]:
                k = bursts[sid][0]
                reason = ISSUED
            elif (lsu_full and sched._mem_stalled
                    and cycle < sched._mem_wake and not sched._is_lrr):
                memo = memos[sid]
                if memo[0] != sched._mem_stalled:
                    memo = (sched._mem_stalled,
                            sched.first_ready(cycle)[0].kernel_slot)
                    memos[sid] = memo
                k = memo[1]
                reason = STALL_LSU_FULL
                held.append((sched, memo[0], self._obs_runs[sid]))
            elif cycle < sched._next_wake:
                warp = sched.first_with_work()
                if warp is None:
                    k = KERNEL_NONE
                    reason = STALL_NO_WARP
                else:
                    k = warp.kernel_slot
                    reason = STALL_SCOREBOARD
            else:
                k, reason = self._obs_classify(sched, cycle)
            run = self._obs_runs[sid]
            if run[2] and run[0] == k and run[1] is reason:
                run[2] += 1
            else:
                if run[2]:
                    obs.stalls.bump_sched(self.sm_id, sid, run[0], run[1],
                                          run[2])
                run[0] = k
                run[1] = reason
                run[2] = 1
        self._obs_steady = (held if len(held) == len(self.schedulers)
                            else None)
        issued.clear()
        lost.clear()

    def _obs_classify(self, sched: WarpScheduler, cycle: int):
        """``(kernel, reason)`` for a scheduler whose ``select()`` ran
        this cycle and issued nothing: pin the lost slot on its first
        warp in priority order, by :meth:`WarpScheduler.first_ready`."""
        warp, op, status = sched.first_ready(cycle)
        if status == "empty":
            return KERNEL_NONE, STALL_NO_WARP
        k = warp.kernel_slot
        if status == "blocked":
            return k, STALL_SCOREBOARD
        # A latency-ready warp had work but nothing issued: pin the
        # denial on the gate, the port, or the memory pipeline.
        gate = self._gate
        if gate is not None and not gate.can_issue(k):
            reason = STALL_SMK_GATE
        elif op == OP_SFU or op == OP_ALU:
            reason = (STALL_EXEC_PORT
                      if op == OP_SFU and self._sfu_used
                      else STALL_OTHER)
        elif not self._lsu_free:
            reason = STALL_LSU_FULL
        elif not self.bundle.limiter.can_issue(
                k, self.kstate[k].inflight_minsts):
            reason = STALL_MIL_CAPPED
        else:
            reason = STALL_OTHER
        return k, reason

    def _obs_pay_runs(self, obs) -> None:
        """Pay the run-length batched outcomes of ``_obs_runs`` into
        the stall table (span ends and result collection read it
        next).  ``obs`` is the guarded sentinel."""
        table = obs.stalls
        for sid, run in enumerate(self._obs_runs):
            if run[2]:
                table.bump_sched(self.sm_id, sid, run[0], run[1], run[2])
                run[2] = 0

    def _obs_charge_sleep(self, obs, first: int, gap: int) -> None:
        """Charge the issue slots of the ``gap`` slept cycles from
        ``first`` on (whole-SM sleep or engine leap), before the
        catch-up moves the rotation state past them.

        A sleeping SM's schedulers are each either mid-burst — every
        slept cycle issued one ALU op of the burst — or asleep on their
        hint: no warp is latency-ready before ``_next_wake``, so every
        slept slot classifies as ``scoreboard`` against the first warp
        with work in priority order, or ``no_warp`` when none has work.
        In a memory-stall sleep a scheduler may instead be held by the
        memory-stall memo (``_next_wake`` already passed): its ready
        warps are all memory-headed behind a full LSU, so every slot is
        ``lsu_full`` against the first ready warp — the memo episode's
        cached verdict under GTO.  Under GTO those warps are fixed for
        the whole sleep (only an issue moves the greedy warp or a head
        op, and a load return settles a memory-stall sleep before it
        lands, see :meth:`_on_meminst_complete`); under LRR they follow
        the rotation, so each of the at most ``n`` start positions is
        charged its share of the gap.
        ``obs`` is the guarded sentinel.
        """
        table = obs.stalls
        sm_id = self.sm_id
        for sched in self.schedulers:
            sid = sched.sched_id
            if sched._auto_left:
                table.bump_sched(sm_id, sid, sched._auto_warp.kernel_slot,
                                 ISSUED, gap)
                continue
            held = sched._next_wake <= first
            episode = sched._mem_stalled
            if held and episode and not sched._is_lrr:
                memo = self._obs_memos[sid]
                if memo[0] != episode:
                    memo = (episode, sched.first_ready(first)[0].kernel_slot)
                    self._obs_memos[sid] = memo
                table.bump_sched(sm_id, sid, memo[1], STALL_LSU_FULL, gap)
                continue
            n = len(sched.warps)
            if sched._is_lrr and n > 1:
                rounds, extra = divmod(gap, n)
                shares = [(sched._lrr_pos + i, rounds + (i < extra))
                          for i in range(min(gap, n))]
            else:
                shares = [(None, gap)]
            for rotation, count in shares:
                if held:
                    # LRR, or a memo cleared by a bypassed load that
                    # returned mid-sleep (settled up to its cycle, so
                    # the state now holds for the rest of the gap):
                    # ready warps are memory-headed behind the full LSU.
                    warp, _op, status = sched.first_ready(first, rotation)
                    if status == "ready":
                        table.bump_sched(sm_id, sid, warp.kernel_slot,
                                         STALL_LSU_FULL, count)
                        continue
                else:
                    warp = sched.first_with_work(rotation)
                if warp is None:
                    table.bump_sched(sm_id, sid, KERNEL_NONE, STALL_NO_WARP,
                                     count)
                else:
                    table.bump_sched(sm_id, sid, warp.kernel_slot,
                                     STALL_SCOREBOARD, count)

    # ------------------------------------------------------------------
    # scheme event hooks (called by the LSU)
    def _note_scheme_window(self) -> None:
        """A scheme window boundary fired (DMIL limit recompute, QBMI
        quota replenish, Req/Minst refresh): post a conservative
        re-evaluation point to the event wheel so the engine's cycle
        leap re-checks issue eligibility on the next cycle.
        ``_last_tick`` never exceeds the current cycle, so the post is
        never late; an early (stale) post costs one inert tick."""
        wheel = self._wheel
        if wheel is not None:
            wheel.post(self._last_tick + 1)

    def on_request_issued(self, request, result: str, cycle: int) -> None:
        self.on_request_issued_values(request.kernel, request.line,
                                      request.is_write, result, cycle)

    def on_request_issued_values(self, kernel: int, line: int,
                                 is_write: bool, result: str,
                                 cycle: int) -> None:
        """:meth:`on_request_issued` over scalars — the pooled LSU path
        already holds the request fields unpacked, so no request object
        (or slot view) needs materialising per issue."""
        k = kernel
        if not self._mem_hooks_inert:
            state = self.kstate[k]
            self.bundle.limiter.note_request(k, state.inflight_minsts)
            self.bundle.mem_policy.note_request(k)
            if self.bundle.ucp is not None and not is_write:
                self.bundle.ucp.observe(k, line)
        self.kernel_stats[k].mem_requests += 1
        if self.timeline is not None:
            self.timeline.bump("l1d_access", k, cycle)

    def on_rsfail(self, kernel: int, cycle: int) -> None:
        if not self._mem_hooks_inert:
            self.bundle.limiter.note_rsfail(kernel)

    def wake(self, cycle: int) -> None:
        """End a memory-stall sleep at ``cycle``: the L1D version moved
        (:meth:`~repro.mem.cache.L1DCache.bump_version`), so the stalled
        LSU head may now get through.  The memory subsystem ticks before
        the SMs, so the SM retries on ``cycle`` itself."""
        if cycle < self._sleep_until:
            # No wheel post: the engine is ticking ``cycle`` already, so
            # the entry would be stale before anyone read it.
            self._sleep_until = cycle

    def _on_meminst_complete(self, inst: MemInst, cycle: int) -> None:
        if self.l1._sleeper is not None and self._last_tick < cycle - 1:
            # A load returns to an SM in (or waking this cycle from) a
            # memory-stall sleep: settle the slept cycles before the
            # return changes any warp, so the observed charge of
            # memo-held schedulers classifies them from the state they
            # were slept in (the later catch-up would see a warp unready
            # that was ready).
            self._settle_sleep_debt(cycle)
            if self._sleep_until <= cycle:
                self.l1._sleeper = None
        state = self.kstate[inst.kernel]
        state.inflight_minsts -= 1
        if not self._mem_hooks_inert:
            self.bundle.limiter.observe_inflight(inst.kernel,
                                                 state.inflight_minsts)
        warp = inst.warp
        if not inst.is_store:
            warp.note_load_done(cycle)
            if warp.stream.next_op is None and not warp.outstanding_loads:
                self._finish_warp(warp)
            else:
                # The returned load may unblock an MLP-capped warp the
                # scheduler's sleep hint knows nothing about.  Crossing
                # back below the MLP cap restores scan-list membership
                # (the exact inverse of the scan_block at issue).
                if (warp.outstanding_loads == warp.mlp - 1
                        and warp.stream.next_op is not None):
                    warp.sched.scan_unblock(warp)
                sched = warp.sched
                sched.wake_at(warp.ready_at)
                if sched._auto_warp is warp and cycle < self._sleep_until:
                    # The return just raised the bursting warp's
                    # scoreboard: the burst disarms THIS cycle and the
                    # freed issue slot may go to another warp, so a
                    # burst-sleeping SM must tick at ``cycle`` itself
                    # (wake_at above only wakes it at ready_at).
                    self._sleep_until = cycle

    # ------------------------------------------------------------------
    def _catch_up(self, first: int, gap: int) -> None:
        """Pay the ``gap`` cycles ``first .. first+gap-1`` this SM slept
        through, in one batch: the wake-up tick and the span-end
        settlement (:meth:`_settle_sleep_debt`) both come here.

        The scheduler round-robin start advances once per cycle in the
        reference loop, including cycles a sleeping SM skipped: catch
        the rotation phase up so arbitration order stays bit-identical.
        Under LRR each scheduler's rotation position advances once per
        select() call while it owns warps — including the sleep-hint
        early-outs the skipped cycles would have taken — so it owes the
        same catch-up.

        Under GTO, burst sleep: each slept cycle issued exactly one ALU
        per mid-burst scheduler (the sleep horizon was capped at every
        burst's remaining length, and any event that could break a
        burst early lowers _sleep_until to its own cycle — see
        _on_meminst_complete — so the premise held for the whole gap).
        Pay the deferred per-issue bookkeeping here; the warp's stale
        ready_at is harmless (the burst step and note_load_done compare
        it against ``cycle`` the same way a per-cycle value would).
        Observed runs charge the slept issue slots first
        (:meth:`_obs_charge_sleep`).

        A memory-stall sleep (non-empty LSU queue) also owes one replay
        of the stalled head per slept cycle: those join the LSU's
        deferred stall debt, whose flush pays them in one batch."""
        obs = self._obs
        if obs is not None:
            self._obs_charge_sleep(obs, first, gap)
        lsu = self.lsu
        if lsu.queue:
            lsu._stall_owed += gap
        self._sched_rr = (self._sched_rr + gap) % len(self.schedulers)
        if self._lrr:
            for sched in self.schedulers:
                if sched.warps:
                    sched._lrr_pos += gap
            return
        for sched in self.schedulers:
            left = sched._auto_left
            if left:
                stats = sched._auto_stats
                stats.warp_insts += gap
                stats.alu_insts += gap
                self.alu_busy += gap
                sched._auto_left = left - gap

    def settle(self, end: int) -> None:
        """Settle every deferred debt up to cycle ``end`` (exclusive):
        the LSU's batched stall replays, the slept cycles of a sleep
        that outlasts ``end``, and an observed run's run-length batched
        issue-slot charges.  The engine calls it at every span end and
        before result collection."""
        self._settle_sleep_debt(end)
        self.lsu._flush_stall_debt()
        obs = self._obs
        if obs is not None:
            self._obs_pay_runs(obs)

    def _settle_sleep_debt(self, end: int) -> None:
        """Settle sleep accounting when a run or span ends mid-sleep.

        A sleeping SM defers its per-cycle state to the wake-up tick's
        catch-up; if the span's final cycle falls inside the sleep
        window that tick has not come yet, so the engine pays the slept
        cycles ``last_tick+1 .. min(end, _sleep_until)-1`` here — burst
        issues, rotation phase and (observed runs) issue-slot charges
        alike — so a run split at any cycle equals the unsplit run.
        Idempotent via the ``_last_tick`` advance; a no-op for awake
        SMs (an empty gap)."""
        horizon = self._sleep_until
        if horizon > end:
            horizon = end
        last = self._last_tick
        gap = horizon - last - 1
        if gap <= 0:
            return
        self._catch_up(last + 1, gap)
        for sched in self.schedulers:
            if sched._auto_left:
                sched._auto_warp.ready_at = horizon
        self._last_tick = horizon - 1

    # ------------------------------------------------------------------
    def resident_warps(self) -> int:
        return self._used_warps
