"""Tests for the kernel-trace cache (:mod:`repro.workloads.trace`):
memoization, on-demand prefixes against live streams, replay under
chunk eviction, disk persistence of complete chunks, observability
counters, and the harness wiring that versions the disk directory."""

import json
import os

import pytest

from repro.workloads import trace as ktrace
from repro.workloads.kernel import (
    ALU_CODE,
    CODE_BY_OP,
    LOAD_CODE,
    OP_ALU,
    OP_SFU,
    OP_STORE,
    STORE_CODE,
    InstructionStream,
    ReplayStream,
)
from repro.workloads.profiles import ALL_PROFILES, get_profile

PROFILE_NAMES = [profile.name for profile in ALL_PROFILES]


@pytest.fixture(autouse=True)
def isolated_trace_caches():
    """Each test sees empty in-memory caches and no disk cache, and
    leaves the process-wide state the way it found it."""
    saved_dir = ktrace._DISK_DIR
    ktrace.clear_memory_cache()
    ktrace.configure_disk_cache(None)
    yield
    ktrace.clear_memory_cache()
    ktrace._DISK_DIR = saved_dir


def live_call_order(profile, warp_index, seed):
    """Drive a live stream through the SM's exact call sequence and
    record what it produced (the oracle the compiler must match)."""
    stream = InstructionStream(profile, profile.pattern_factory(),
                               warp_index, seed)
    codes = []
    lines = []
    while stream.next_op is not None:
        op = stream.pop()
        codes.append(CODE_BY_OP[op])
        if not (op is OP_ALU or op is OP_SFU):
            lines.extend(stream.memory_descriptor(op is OP_STORE).lines)
    return "".join(codes).encode("ascii"), lines


class TestMemoization:
    def test_same_profile_and_seed_share_one_trace(self):
        profile = get_profile("bp")
        assert ktrace.get_trace(profile, 0) is ktrace.get_trace(profile, 0)

    def test_seed_splits_the_cache(self):
        profile = get_profile("bp")
        assert ktrace.get_trace(profile, 0) is not ktrace.get_trace(profile, 1)

    def test_timing_only_fields_share_a_trace(self):
        """mlp shapes timing, not the stream: fingerprints must agree."""
        import dataclasses
        profile = get_profile("cd")
        doubled = dataclasses.replace(profile, mlp=profile.mlp + 1)
        assert (ktrace.profile_fingerprint(profile)
                == ktrace.profile_fingerprint(doubled))


def complete_chunk(trace, chunk_index=0):
    """Grow every warp of one chunk to its whole stream."""
    first = chunk_index * ktrace.CHUNK_WARPS
    for warp_index in range(first, first + ktrace.CHUNK_WARPS):
        trace.extend(warp_index, 1 << 30)


class TestCompileCorrectness:
    @pytest.mark.parametrize("name", PROFILE_NAMES)
    @pytest.mark.parametrize("warp_index", [0, 3, ktrace.CHUNK_WARPS])
    def test_arrays_match_live_call_order(self, name, warp_index):
        """Every prefix is a head of the live stream made of whole
        iterations, each extension grows it, and the completed arrays
        are the whole live stream."""
        profile = get_profile(name)
        trace = ktrace.get_trace(profile, 0)
        assert trace is not None
        full_ops, full_lines = live_call_order(profile, warp_index, 0)
        rpm = profile.reqs_per_minst
        ops, lines = trace.warp_arrays(warp_index)
        prefixes = 0
        while True:
            prefixes += 1
            assert ops == full_ops[:len(ops)]
            mem_ops = ops.count(LOAD_CODE) + ops.count(STORE_CODE)
            assert list(lines) == full_lines[:mem_ops * rpm]
            if len(ops) == len(full_ops):
                break
            assert ops[-1] in (LOAD_CODE, STORE_CODE)
            grown, lines = trace.extend(warp_index, len(ops))
            assert len(grown) > len(ops)
            ops = grown
        assert list(lines) == full_lines
        if profile.iters_per_warp > 2 * ktrace.PREFIX_ITERS:
            assert prefixes > 2


def lockstep(trace, warp_index, base_line=0):
    """A replay of one warp, the live stream it must equal, and the
    warp's whole opcode string."""
    profile = trace.profile
    replay = ReplayStream(trace, warp_index, base_line=base_line)
    live = InstructionStream(profile, profile.pattern_factory(), warp_index,
                             trace.seed, base_line=base_line)
    full_ops, _ = live_call_order(profile, warp_index, trace.seed)
    return replay, live, full_ops


def drive_in_lockstep(triples):
    """Step each ``(replay, live, full_ops)`` by one instruction in turn
    until all are exhausted, checking the replay against the live
    stream (and the whole-stream opcodes) at every position.  Pop
    flavours rotate so every end-of-prefix branch of the replay runs."""
    positions = [0] * len(triples)
    step = 0
    while any(replay.next_op is not None for replay, _, _ in triples):
        for index, (replay, live, full_ops) in enumerate(triples):
            op = replay.next_op
            assert op is live.next_op
            if op is None:
                continue
            pos = positions[index]
            run = 0
            while pos + run < len(full_ops) and full_ops[pos + run] == ALU_CODE:
                run += 1
            assert replay.alu_run_len() == run
            assert replay.run_ends_stream(run) == (pos + run >= len(full_ops))
            assert replay.remaining_iterations() == live.remaining_iterations()
            step += 1
            if not (op is OP_ALU or op is OP_SFU):
                is_store = op is OP_STORE
                live.pop()
                expected = list(live.memory_descriptor(is_store).lines)
                if step % 2:
                    got = replay.pop_mem(is_store)
                else:
                    replay.pop()
                    got = replay.memory_descriptor(is_store).lines
                assert list(got) == expected
                issued = 1
            elif op is OP_ALU and run > 1 and step % 3 == 1:
                burst = replay.pop_alu_burst(True)
                assert burst == run - 1
                # Give half of the burst back, as a mid-burst disarm does.
                replay.rewind_alu(burst // 2)
                issued = 1 + burst - burst // 2
            elif op is OP_ALU and run > 1 and step % 3 == 2:
                replay.pop()
                replay.skip_alu_run(run - 1)
                issued = run
            else:
                replay.pop()
                issued = 1
            if op is OP_ALU or op is OP_SFU:
                for _ in range(issued):
                    live.pop()
            positions[index] = pos + issued
    for (_, live, full_ops), pos in zip(triples, positions):
        assert live.next_op is None
        assert pos == len(full_ops)


class TestReplayIdentity:
    @pytest.mark.parametrize("name", PROFILE_NAMES)
    def test_replay_matches_live_stream_under_eviction(self, name,
                                                       monkeypatch):
        """Two replays in different chunks, interleaved with one
        resident chunk: every extension evicts the other chunk, so each
        extension first rebuilds a chunk whose prefixes are shorter
        than the replay's position and must regrow past it."""
        monkeypatch.setattr(ktrace, "MAX_CHUNKS", 1)
        profile = get_profile(name)
        trace = ktrace.get_trace(profile, 5)
        compiles0 = ktrace._COMPILES.value
        drive_in_lockstep([lockstep(trace, 1),
                           lockstep(trace, ktrace.CHUNK_WARPS + 2, 1 << 40)])
        if profile.iters_per_warp > 2 * ktrace.PREFIX_ITERS:
            assert ktrace._COMPILES.value > compiles0 + 2

    def test_base_zero_replays_of_one_warp_across_eviction(self, monkeypatch):
        """A base-0 replay shares the trace's line list.  A second
        replay of the same warp, started after that list's chunk was
        evicted and interleaved with another chunk, still equals the
        live stream."""
        monkeypatch.setattr(ktrace, "MAX_CHUNKS", 1)
        trace = ktrace.get_trace(get_profile("cd"), 0)
        drive_in_lockstep([lockstep(trace, 0)])
        trace.warp_arrays(ktrace.CHUNK_WARPS)  # evicts chunk 0
        drive_in_lockstep([lockstep(trace, 0),
                           lockstep(trace, ktrace.CHUNK_WARPS)])


class TestCounters:
    def test_warp_hits_and_chunk_compiles(self):
        profile = get_profile("bp")
        trace = ktrace.get_trace(profile, 0)
        compiles0 = ktrace._COMPILES.value
        hits0 = ktrace._HITS.value
        trace.warp_arrays(0)
        trace.warp_arrays(1)  # same chunk: no second compile
        assert ktrace._COMPILES.value == compiles0 + 1
        assert ktrace._HITS.value == hits0 + 2

    def test_untraceable_pattern_counts_a_fallback(self):
        import dataclasses

        class Opaque:
            def addresses(self, *a, **kw):  # pragma: no cover - stub
                return []

        profile = dataclasses.replace(get_profile("bp"),
                                      pattern_factory=Opaque)
        before = ktrace._FALLBACKS.value
        assert ktrace.get_trace(profile, 0) is None
        assert ktrace._FALLBACKS.value == before + 1

    def test_env_opt_out(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_TRACE", "1")
        before = ktrace._FALLBACKS.value
        assert ktrace.get_trace(get_profile("bp"), 0) is None
        assert ktrace._FALLBACKS.value == before + 1

    def test_counters_live_in_the_process_registry(self):
        from repro.obs.registry import process_registry
        names = process_registry().snapshot("trace_cache")
        assert {"trace_cache.warp_hits", "trace_cache.chunk_compiles",
                "trace_cache.disk_hits", "trace_cache.disk_writes",
                "trace_cache.fallback_streams",
                "trace_cache.prefix_extends"} <= set(names)


class TestDiskCache:
    def test_round_trip_spares_the_recompile(self, tmp_path):
        assert ktrace.configure_disk_cache(str(tmp_path)) == str(tmp_path)
        profile = get_profile("bp")
        trace = ktrace.get_trace(profile, 0)
        writes0 = ktrace._DISK_WRITES.value
        complete_chunk(trace)
        assert ktrace._DISK_WRITES.value == writes0 + 1
        assert list(tmp_path.glob("*-s0-c0.json"))
        expected = [trace.warp_arrays(w) for w in range(ktrace.CHUNK_WARPS)]

        # A fresh process (simulated by dropping the in-memory caches)
        # must load the complete chunk instead of recompiling it.
        ktrace.clear_memory_cache()
        compiles0 = ktrace._COMPILES.value
        hits0 = ktrace._DISK_HITS.value
        trace = ktrace.get_trace(profile, 0)
        assert [trace.warp_arrays(w)
                for w in range(ktrace.CHUNK_WARPS)] == expected
        assert trace.extend(0, 1 << 30) == expected[0]
        assert ktrace._COMPILES.value == compiles0
        assert ktrace._DISK_HITS.value == hits0 + 1

    def test_corrupt_chunk_recompiles(self, tmp_path):
        ktrace.configure_disk_cache(str(tmp_path))
        profile = get_profile("bp")
        complete_chunk(ktrace.get_trace(profile, 0))
        expected = live_call_order(profile, 0, 0)
        (path,) = tmp_path.glob("*-s0-c0.json")
        path.write_text("{not json")
        ktrace.clear_memory_cache()
        compiles0 = ktrace._COMPILES.value
        hits0 = ktrace._DISK_HITS.value
        ops, lines = ktrace.get_trace(profile, 0).extend(0, 1 << 30)
        assert (ops, list(lines)) == expected
        assert ktrace._COMPILES.value == compiles0 + 1
        assert ktrace._DISK_HITS.value == hits0

    def test_stale_format_rejected(self, tmp_path):
        ktrace.configure_disk_cache(str(tmp_path))
        profile = get_profile("bp")
        complete_chunk(ktrace.get_trace(profile, 0))
        expected = live_call_order(profile, 0, 0)
        (path,) = tmp_path.glob("*-s0-c0.json")
        payload = json.loads(path.read_text())
        payload["format"] = -1
        path.write_text(json.dumps(payload))
        ktrace.clear_memory_cache()
        hits0 = ktrace._DISK_HITS.value
        ops, lines = ktrace.get_trace(profile, 0).extend(0, 1 << 30)
        assert (ops, list(lines)) == expected
        assert ktrace._DISK_HITS.value == hits0

    def test_partial_chunk_writes_nothing(self, tmp_path):
        """Only complete chunks are window-independent: a chunk with
        one warp left unfinished stays in memory."""
        ktrace.configure_disk_cache(str(tmp_path))
        trace = ktrace.get_trace(get_profile("bp"), 0)
        writes0 = ktrace._DISK_WRITES.value
        for warp_index in range(ktrace.CHUNK_WARPS - 1):
            trace.extend(warp_index, 1 << 30)
        trace.extend(ktrace.CHUNK_WARPS - 1, 50)
        assert ktrace._DISK_WRITES.value == writes0
        assert not list(tmp_path.iterdir())
        trace.extend(ktrace.CHUNK_WARPS - 1, 1 << 30)
        assert ktrace._DISK_WRITES.value == writes0 + 1


class TestHarnessWiring:
    def test_runner_versions_the_trace_dir(self, tmp_path):
        from repro.config import scaled_config
        from repro.harness.runner import CACHE_VERSION, ExperimentRunner

        ExperimentRunner(scaled_config(), cache_dir=str(tmp_path))
        expected = os.path.join(str(tmp_path), f"traces-v{CACHE_VERSION}")
        assert ktrace._DISK_DIR == expected
        assert os.path.isdir(expected)
