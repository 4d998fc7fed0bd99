"""Unit tests for the LSU memory pipeline (in-order, replay-on-stall)."""

import pytest

from repro.config import CacheConfig
from repro.mem.cache import L1DCache
from repro.sim.lsu import LoadStoreUnit
from repro.sim.warp import MemInst, ThreadBlock, Warp
from repro.workloads.address import StreamPattern
from repro.workloads.kernel import InstructionStream, KernelProfile


class FakeBundle:
    def __init__(self, bypass=()):
        self._bypass = set(bypass)

    def bypasses_l1d(self, kernel):
        return kernel in self._bypass


class FakeSM:
    # Hooks observed per-call below.  A bare LSU never defers stall
    # replays (the real SM opts in through ``LoadStoreUnit._defer_ok``),
    # so every stalled cycle reaches on_rsfail.
    _mem_hooks_inert = False

    def __init__(self, bypass=()):
        self.requests = []
        self.rsfails = []
        self.bundle = FakeBundle(bypass)

    def on_request_issued(self, request, result, cycle):
        self.requests.append((request.line, result))

    def on_rsfail(self, kernel, cycle):
        self.rsfails.append(kernel)


def make_inst(lines, is_store=False, kernel=0):
    profile = KernelProfile(
        name="t", full_name="t", suite="u", kind="C",
        cinst_per_minst=1, reqs_per_minst=len(lines), write_frac=0.0,
        threads_per_tb=32, regs_per_thread=8,
        pattern_factory=StreamPattern, iters_per_warp=1,
    )
    tb = ThreadBlock(0, kernel, profile)
    stream = InstructionStream(profile, StreamPattern(), 0, seed=0)
    warp = Warp(0, kernel, tb, stream, age=0, mlp=4)
    completions = []
    inst = MemInst(warp, tuple(lines), is_store, 0,
                   on_complete=lambda i, c: completions.append(c))
    return inst, completions


def make_lsu(width=2, mshrs=8, miss_queue=8):
    cfg = CacheConfig(size_bytes=8 * 128, line_size=128, assoc=2,
                      mshrs=mshrs, miss_queue=miss_queue, xor_index=False)
    return LoadStoreUnit(0, L1DCache(cfg), width=width)


class TestLSU:
    def test_expands_width_requests_per_cycle(self):
        lsu = make_lsu(width=2)
        sm = FakeSM()
        lsu.enqueue(make_inst([0, 1, 2, 3])[0])
        lsu.tick(0, sm)
        assert len(sm.requests) == 2
        lsu.tick(1, sm)
        assert len(sm.requests) == 4
        assert not lsu.queue, "fully expanded instruction leaves the queue"

    def test_queue_capacity(self):
        lsu = make_lsu()
        for _ in range(lsu.queue_depth):
            lsu.enqueue(make_inst([0])[0])
        assert not lsu.can_accept()
        with pytest.raises(RuntimeError):
            lsu.enqueue(make_inst([1])[0])

    def test_stall_blocks_pipeline_and_replays(self):
        lsu = make_lsu(mshrs=1)
        sm = FakeSM()
        lsu.enqueue(make_inst([0])[0])  # takes the only MSHR
        lsu.enqueue(make_inst([1])[0])  # will stall
        lsu.tick(0, sm)
        lsu.tick(1, sm)
        # one failure at the tail of cycle 0 (after the miss), one on
        # the cycle-1 replay
        assert sm.rsfails == [0, 0]
        assert lsu.stall_cycles == 2
        assert len(lsu.queue) == 1, "stalled instruction stays at head"
        # free the MSHR -> replay succeeds
        lsu.l1.fill(0, 2)
        lsu.tick(2, sm)
        assert not lsu.queue

    def test_in_order_blocking(self):
        """A stalled head blocks a ready instruction behind it — the
        in-order property the paper's §4.5 relies on."""
        lsu = make_lsu(mshrs=1)
        sm = FakeSM()
        lsu.enqueue(make_inst([0], kernel=0)[0])
        lsu.enqueue(make_inst([1], kernel=1)[0])  # stalls (no MSHR)
        lsu.enqueue(make_inst([0], kernel=2)[0])  # would merge, but must wait
        lsu.tick(0, sm)
        lsu.tick(1, sm)
        assert len(lsu.queue) == 2
        assert all(line != 0 or result == "miss" for line, result in sm.requests[1:])

    def test_store_completes_on_expansion(self):
        lsu = make_lsu()
        sm = FakeSM()
        inst, completions = make_inst([0, 1], is_store=True)
        lsu.enqueue(inst)
        lsu.tick(0, sm)
        assert completions == [0]

    def test_load_completes_only_after_fill(self):
        lsu = make_lsu()
        sm = FakeSM()
        inst, completions = make_inst([0])
        lsu.enqueue(inst)
        lsu.tick(0, sm)
        assert not completions
        waiters = lsu.l1.fill(0, 0)
        for req in waiters:
            req.meminst.request_done(7)
        assert completions == [7]

    def test_hit_completes_inline(self):
        lsu = make_lsu()
        sm = FakeSM()
        warm, _ = make_inst([0])
        lsu.enqueue(warm)
        lsu.tick(0, sm)
        for req in lsu.l1.fill(0, 0):
            req.meminst.request_done(1)
        inst, completions = make_inst([0])
        lsu.enqueue(inst)
        lsu.tick(2, sm)
        assert completions == [2]

    def test_busy_accounting(self):
        lsu = make_lsu()
        sm = FakeSM()
        lsu.enqueue(make_inst([0])[0])
        lsu.tick(0, sm)
        lsu.tick(1, sm)  # idle
        assert lsu.busy_cycles == 1

    def test_bypassed_load_skips_l1_allocation(self):
        lsu = make_lsu()
        sm = FakeSM(bypass={0})
        inst, completions = make_inst([0])
        lsu.enqueue(inst)
        lsu.tick(0, sm)
        assert len(lsu.l1.mshrs) == 0, "bypassed reads never take an MSHR"
        assert lsu.l1.stats.bypasses[0] == 1
        assert lsu.l1.miss_queue, "the request still travels to L2"
        req = lsu.l1.miss_queue[0]
        assert req.bypass
        # completion is delivered directly, not via an L1 fill
        req.meminst.request_done(9)
        assert completions == [9]

    def test_bypass_still_needs_miss_queue_slot(self):
        lsu = make_lsu(miss_queue=1)
        sm = FakeSM(bypass={0})
        first, _ = make_inst([0])
        second, _ = make_inst([1])
        lsu.enqueue(first)
        lsu.enqueue(second)
        lsu.tick(0, sm)
        assert sm.rsfails, "a full miss queue stalls bypassed reads too"
