"""Kernel trace arrays, compiled on demand.

Every warp's instruction stream is a pure function of
``(KernelProfile, warp_index, seed)``: the per-warp RNG is seeded from
``(seed, warp_index)`` alone, and the address patterns keep no state
shared *across* warps (StreamPattern cursors are keyed by warp index,
ReusePattern draws only from the RNG, MixPattern composes the two).
CKE schemes never alter the stream either — BMI/MIL/SMK/UCP only
change *when* instructions issue, not *which* — so one compiled trace
serves every scheme leg, every rep, and both the fast and reference
loops of a campaign.

This module compiles streams into flat parallel arrays — one opcode
byte per instruction plus the concatenated coalesced line footprint of
every memory instruction — and replays them by index bump
(:class:`repro.workloads.kernel.ReplayStream`).  The compiler drives a
real :class:`~repro.workloads.kernel.InstructionStream` through
exactly the SM's call sequence (``pop()``, then ``memory_descriptor``
for memory ops), so the arrays are bit-identical to live generation by
construction.

Compilation is lazy in depth.  A simulated window issues only the head
of each warp's stream (the paper restarts finished kernels, so the
model launches an endless supply of thread blocks and stops at the
window's end), so a warp holds a *prefix* of whole iterations,
:data:`PREFIX_ITERS` at first, plus the suspended live stream that
produced it.  When a replay reaches the end of its prefix it asks
:meth:`KernelTrace.extend` for more, which resumes that one stream and
doubles the prefix.  A prefix always ends on a memory op (the last op
of an iteration), so a scan over an ALU run never meets a truncated
run.  A warp whose stream is exhausted drops its generator.

Traces are memoized process-wide keyed by a *profile fingerprint*
(every stream-affecting profile field plus the address pattern's
``trace_signature()``) and grouped in chunks of :data:`CHUNK_WARPS`
warps; a global LRU keeps at most :data:`MAX_CHUNKS` chunks resident.
An evicted chunk is rebuilt from the same seeds, so its prefixes are
the same bytes again, and :meth:`KernelTrace.extend` regrows a warp
until it covers the position its replay asked for.  When a disk
directory is configured (:func:`configure_disk_cache` — the harness
points it inside its atomic result cache), a chunk is persisted as
JSON once all of its warps are complete, with the same temp-file +
``os.replace`` discipline, letting campaign worker processes share one
compile.  Partial chunks depend on the window that grew them and stay
in memory.

Opt-outs: profiles whose pattern lacks ``trace_signature`` fall back
to live RNG streams, as does ``REPRO_NO_TRACE=1`` (useful for
disambiguating trace bugs from timing bugs).  Cache traffic is
observable through the process-wide counter registry
(``trace_cache.*`` — :func:`repro.obs.process_registry`).
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import OrderedDict
from hashlib import sha1
from typing import Dict, List, Optional, Tuple

from repro.obs.registry import process_registry
from repro.workloads.kernel import (
    CODE_BY_OP,
    OP_ALU,
    OP_SFU,
    OP_STORE,
    InstructionStream,
    KernelProfile,
)

#: bump when the trace array layout or the compile call order changes;
#: embedded in fingerprints and in the disk-cache directory name.
TRACE_FORMAT = 1

#: warps grouped (and persisted) together.  A complete chunk of a
#: typical profile is 0.3-2 MB of arrays — big enough to amortise the
#: disk round-trip, small enough that eviction granularity stays fine.
CHUNK_WARPS = 64

#: iterations in a warp's first compiled prefix; each extension
#: doubles the prefix, so a warp that issues ``n`` iterations is
#: compiled in about ``log2(n / PREFIX_ITERS)`` steps and never more
#: than twice as far as it got.
PREFIX_ITERS = 4

#: process-wide cap on resident chunks (LRU).  Long windows launch
#: tens of thousands of warps per kernel; without a cap the arrays
#: for every warp ever launched would stay live.  A resident chunk
#: holds at most its complete arrays plus, while it is partial, 64
#: suspended generators of about 3.3 KB each (an InstructionStream and
#: its Mersenne Twister state), so the worst case is 256 complete
#: chunks of the largest profile plus ~55 MB of generator state.
MAX_CHUNKS = 256

_COUNTERS = process_registry()
_HITS = _COUNTERS.counter("trace_cache.warp_hits")
_COMPILES = _COUNTERS.counter("trace_cache.chunk_compiles")
_DISK_HITS = _COUNTERS.counter("trace_cache.disk_hits")
_DISK_WRITES = _COUNTERS.counter("trace_cache.disk_writes")
_EXTENDS = _COUNTERS.counter("trace_cache.prefix_extends")
_FALLBACKS = _COUNTERS.counter("trace_cache.fallback_streams")

#: (fingerprint, seed) -> KernelTrace, shared by every launch in the
#: process (campaign legs re-create GPU objects constantly).
_TRACES: Dict[Tuple, "KernelTrace"] = {}

#: (digest, seed, chunk_index) -> _Chunk, in LRU order
#: (popitem(last=False) evicts the coldest chunk).
_CHUNKS: "OrderedDict[Tuple, _Chunk]" = OrderedDict()

_DISK_DIR: Optional[str] = None


def profile_fingerprint(profile: KernelProfile) -> Optional[Tuple]:
    """Hashable key covering everything that shapes the instruction
    stream, or ``None`` when the profile is not traceable (its address
    pattern does not declare a ``trace_signature``).

    Deliberately excludes fields that only affect *timing* (``mlp``,
    resources, latencies): profiles differing only in those share one
    trace, exactly like scheme legs do.
    """
    pattern = profile.pattern_factory()
    signature = getattr(pattern, "trace_signature", None)
    if signature is None:
        return None
    return (
        TRACE_FORMAT,
        profile.cinst_per_minst,
        profile.reqs_per_minst,
        profile.sfu_frac,
        profile.write_frac,
        profile.iters_per_warp,
        signature(),
    )


def get_trace(profile: KernelProfile, seed: int) -> Optional["KernelTrace"]:
    """The process-wide compiled trace for ``(profile, seed)``, or
    ``None`` when tracing is unavailable or disabled."""
    if os.environ.get("REPRO_NO_TRACE", "") == "1":
        _FALLBACKS.value += 1
        return None
    fingerprint = profile_fingerprint(profile)
    if fingerprint is None:
        _FALLBACKS.value += 1
        return None
    key = (fingerprint, seed)
    trace = _TRACES.get(key)
    if trace is None:
        trace = KernelTrace(profile, seed, fingerprint)
        _TRACES[key] = trace
    return trace


def configure_disk_cache(path: Optional[str]) -> Optional[str]:
    """Persist compiled chunks under ``path`` (None disables).

    Returns the configured path, or ``None`` when the directory could
    not be created (persistence is best-effort, like the harness's
    result cache)."""
    global _DISK_DIR
    if path is None:
        _DISK_DIR = None
        return None
    try:
        os.makedirs(path, exist_ok=True)
    except OSError:
        _DISK_DIR = None
        return None
    _DISK_DIR = path
    return path


def clear_memory_cache() -> None:
    """Drop every in-process trace and chunk (test hook)."""
    _TRACES.clear()
    _CHUNKS.clear()


class _Chunk:
    """The compiled prefixes of :data:`CHUNK_WARPS` consecutive warps.

    ``ops[i]`` and ``lines[i]`` are warp ``i``'s prefix; ``streams[i]``
    is the suspended live stream that continues it, or ``None`` once
    the warp is complete.  ``lines`` lists only ever grow in place, so
    a replay sharing one sees a valid (if shorter) prefix."""

    __slots__ = ("ops", "lines", "streams", "open")

    def __init__(self, ops: List[bytes], lines: List[List[int]],
                 streams: List[Optional[InstructionStream]]):
        self.ops = ops
        self.lines = lines
        self.streams = streams
        #: warps whose stream is not yet exhausted.
        self.open = sum(stream is not None for stream in streams)


class KernelTrace:
    """Lazily compiled per-warp trace arrays for one (profile, seed)."""

    __slots__ = ("profile", "seed", "fingerprint", "digest")

    def __init__(self, profile: KernelProfile, seed: int,
                 fingerprint: Tuple):
        self.profile = profile
        self.seed = seed
        self.fingerprint = fingerprint
        self.digest = sha1(repr(fingerprint).encode()).hexdigest()[:20]

    def warp_arrays(self, warp_index: int) -> Tuple[bytes, List[int]]:
        """``(ops, lines)`` of one warp's compiled prefix, compiling or
        loading the containing chunk on demand."""
        _HITS.value += 1
        chunk_index, offset = divmod(warp_index, CHUNK_WARPS)
        chunk = self._chunk(chunk_index)
        return chunk.ops[offset], chunk.lines[offset]

    def extend(self, warp_index: int, need: int) -> Tuple[bytes, List[int]]:
        """``(ops, lines)`` of one warp's prefix grown past ``need``
        ops, or the whole stream when it is ``need`` ops or shorter.
        A chunk evicted since the caller's last look is rebuilt first;
        the rebuilt prefix may be shorter, so growth repeats until it
        covers ``need``."""
        chunk_index, offset = divmod(warp_index, CHUNK_WARPS)
        chunk = self._chunk(chunk_index)
        if len(chunk.ops[offset]) <= need and chunk.streams[offset] is not None:
            self._compile_chunk(chunk_index, chunk, offset, need)
        return chunk.ops[offset], chunk.lines[offset]

    def _chunk(self, chunk_index: int) -> _Chunk:
        key = (self.digest, self.seed, chunk_index)
        chunks = _CHUNKS
        chunk = chunks.get(key)
        if chunk is not None:
            chunks.move_to_end(key)
            return chunk
        chunk = self._load_chunk(chunk_index)
        if chunk is None:
            chunk = self._compile_chunk(chunk_index)
        chunks[key] = chunk
        while len(chunks) > MAX_CHUNKS:
            chunks.popitem(last=False)
        return chunk

    # ------------------------------------------------------------------
    def _compile_chunk(self, chunk_index: int, chunk: Optional[_Chunk] = None,
                       offset: int = 0, need: int = 0) -> _Chunk:
        """Generate trace arrays by driving live streams through the
        SM's exact call order: the ``pop()`` that advances the next-op
        RNG strictly precedes the ``memory_descriptor`` that draws the
        pattern lines.

        With ``chunk`` None, start the chunk of warps
        ``[chunk*C, (chunk+1)*C)``: each warp gets a live stream and
        its first :data:`PREFIX_ITERS` iterations.  Otherwise resume
        warp ``offset`` of ``chunk``, doubling its prefix until it is
        longer than ``need`` ops or the stream is exhausted.  A chunk
        whose last warp this call completes goes to disk."""
        profile = self.profile
        if chunk is None:
            _COMPILES.value += 1
            # A fresh pattern per chunk is sound: pattern state is
            # keyed by warp index (or drawn from the per-warp RNG),
            # never shared across warps, so chunk boundaries cannot
            # leak state.
            pattern = profile.pattern_factory()
            first = chunk_index * CHUNK_WARPS
            chunk = _Chunk(
                [b""] * CHUNK_WARPS, [[] for _ in range(CHUNK_WARPS)],
                [InstructionStream(profile, pattern, warp_index, self.seed)
                 for warp_index in range(first, first + CHUNK_WARPS)])
            offsets = range(CHUNK_WARPS)
        else:
            offsets = (offset,)
        total = profile.iters_per_warp
        code_by_op = CODE_BY_OP
        for offset in offsets:
            stream = chunk.streams[offset]
            ops = chunk.ops[offset]
            lines = chunk.lines[offset]
            while stream is not None and len(ops) <= need:
                left = stream.remaining_iterations()
                block = min(left, max(PREFIX_ITERS, total - left))
                if ops:
                    _EXTENDS.value += 1
                pop = stream.pop
                describe = stream.memory_descriptor
                codes: List[str] = []
                while block:
                    op = pop()
                    codes.append(code_by_op[op])
                    if not (op is OP_ALU or op is OP_SFU):
                        lines.extend(describe(op is OP_STORE).lines)
                        block -= 1
                ops += "".join(codes).encode("ascii")
                if stream.next_op is None:
                    chunk.streams[offset] = stream = None
                    chunk.open -= 1
            chunk.ops[offset] = ops
        if not chunk.open:
            self._store_chunk(chunk_index, chunk)
        return chunk

    # ------------------------------------------------------------------
    def _chunk_path(self, chunk_index: int) -> Optional[str]:
        if _DISK_DIR is None:
            return None
        name = f"{self.digest}-s{self.seed}-c{chunk_index}.json"
        return os.path.join(_DISK_DIR, name)

    def _load_chunk(self, chunk_index: int) -> Optional[_Chunk]:
        path = self._chunk_path(chunk_index)
        if path is None:
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            return None
        if (payload.get("format") != TRACE_FORMAT
                or payload.get("fingerprint") != repr(self.fingerprint)):
            return None
        ops = [entry.encode("ascii") for entry in payload["ops"]]
        lines = payload["lines"]
        if len(ops) != CHUNK_WARPS or len(lines) != CHUNK_WARPS:
            return None
        _DISK_HITS.value += 1
        return _Chunk(ops, lines, [None] * CHUNK_WARPS)

    def _store_chunk(self, chunk_index: int, chunk: _Chunk) -> None:
        """Persist a complete chunk (only those are independent of the
        window that grew them)."""
        path = self._chunk_path(chunk_index)
        if path is None:
            return
        payload = {
            "format": TRACE_FORMAT,
            "fingerprint": repr(self.fingerprint),
            "ops": [entry.decode("ascii") for entry in chunk.ops],
            "lines": chunk.lines,
        }
        # Same atomic discipline as the harness result cache: concurrent
        # campaign workers may race on the same chunk, and the winner's
        # os.replace is indistinguishable from the loser's.
        try:
            fd, tmp_path = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, separators=(",", ":"))
            os.replace(tmp_path, path)
            _DISK_WRITES.value += 1
        except OSError:
            return
