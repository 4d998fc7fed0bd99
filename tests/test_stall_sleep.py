"""Memory-stall sleep (docs/PERF.md §9): an SM whose LSU head keeps
failing L1D reservation sleeps until its L1D's version changes.

The fast loop must skip most SM tick bodies of a memory-bound run
while staying bit-identical to the reference loop, and any L1D version
bump must wake a stall-sleeping SM on the bump's own cycle.
"""

from repro import MAXWELL_CONFIG
from repro.core.arbiter import SchemeConfig
from repro.harness.perfbench import result_signature
from repro.sim.engine import GPU, WHEEL_PRUNE_CYCLES, make_launches
from repro.sim.sm import StreamingMultiprocessor
from repro.sim.wheel import EventWheel
from repro.workloads.profiles import get_profile

CYCLES = 1000


def build_cell(reference):
    """The benchmark cell's input: cd+sv on the Table-1 machine, an
    8/8 TB split and QBMI+DMIL with the profiles' Req/Minst hints."""
    profiles = [get_profile("cd"), get_profile("sv")]
    scheme = SchemeConfig(
        bmi="qbmi", mil="dmil",
        qbmi_init_req_per_minst=tuple(p.reqs_per_minst for p in profiles))
    launches = make_launches(profiles, [8, 8], MAXWELL_CONFIG, seed=3)
    return GPU(MAXWELL_CONFIG, launches, scheme, reference=reference)


def test_stalled_sms_skip_most_tick_bodies(monkeypatch):
    bodies = []
    original = StreamingMultiprocessor.tick

    def counting(self, cycle):
        if cycle >= self._sleep_until:
            bodies.append(cycle)
        return original(self, cycle)

    monkeypatch.setattr(StreamingMultiprocessor, "tick", counting)
    fast = build_cell(reference=False).run(CYCLES)
    executed = len(bodies)
    monkeypatch.setattr(StreamingMultiprocessor, "tick", original)
    ref = build_cell(reference=True).run(CYCLES)

    assert result_signature(fast) == result_signature(ref)
    assert fast.lsu_stall_cycles == ref.lsu_stall_cycles
    slots = CYCLES * MAXWELL_CONFIG.num_sms
    # The LSU is stalled on nearly every SM-cycle of this cell ...
    assert fast.lsu_stall_cycles > 0.9 * slots
    # ... and the stalled SMs sleep through most of them.
    assert executed < 0.4 * slots, (executed, slots)


def stall_sleeper(gpu):
    """An SM that went to sleep on a stalled LSU head at the last
    ticked cycle and is still asleep at the next one, or None."""
    cycle = gpu.cycles_run
    for sm in gpu.sms:
        if (sm.l1._sleeper is sm and sm._last_tick == cycle - 1
                and sm._sleep_until > cycle + 1):
            return sm
    return None


def test_version_bump_wakes_stall_sleeper_on_its_cycle():
    gpu = build_cell(reference=False)
    sm = None
    while sm is None:
        gpu.run(1)
        assert gpu.cycles_run < CYCLES, "no SM entered a memory-stall sleep"
        sm = stall_sleeper(gpu)
    cycle = gpu.cycles_run
    assert sm.lsu._stall_memo is not None and sm.lsu.queue

    # Nothing was released: the bump is a spurious wake, which the
    # contract allows (one inert tick, the replay fails again).
    sm.l1.bump_version(cycle)
    assert sm._sleep_until == cycle

    gpu.run(1)
    assert sm._last_tick == cycle, "the SM ticks on the bump's cycle"
    retried = sm.lsu._stall_memo
    assert retried is None or retried[1] == sm.l1.version
    # A spurious wake changes no simulated statistic.
    result = gpu.run(CYCLES - gpu.cycles_run)
    assert (result_signature(result)
            == result_signature(build_cell(reference=True).run(CYCLES)))


def test_fast_loop_keeps_the_event_wheel_bounded(monkeypatch):
    """The fast loop drops the wheel's past entries every
    WHEEL_PRUNE_CYCLES cycles: on this cell, which rarely leaps, the
    wheel would otherwise keep one entry per cycle (~3,000 here)."""
    peak = []
    post = EventWheel.post

    def tracking(self, cycle):
        post(self, cycle)
        peak.append(len(self))

    monkeypatch.setattr(EventWheel, "post", tracking)
    gpu = build_cell(reference=False)
    fast = gpu.run(3 * CYCLES)
    monkeypatch.setattr(EventWheel, "post", post)
    ref = build_cell(reference=True).run(3 * CYCLES)

    assert result_signature(fast) == result_signature(ref)
    assert max(peak) < WHEEL_PRUNE_CYCLES + 200, max(peak)
    assert all(cycle >= gpu.cycles_run for cycle in gpu.wheel._heap)
