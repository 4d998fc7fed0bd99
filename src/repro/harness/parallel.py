"""Parallel campaign executor: fan independent simulation jobs out
over worker processes.

Experiment campaigns in this repo are embarrassingly parallel — every
isolated run, every scalability-curve point and every mix×scheme cell
is an independent simulation.  This module describes each unit of work
as a small picklable job dataclass and executes a batch of them on a
:class:`~concurrent.futures.ProcessPoolExecutor`:

* ``IsoJob``   — one kernel alone at one TB count (normalisation runs);
* ``CurveJob`` — one kernel's full scalability curve (Warped-Slicer
  profiling, paper §2.5 / Fig. 3a);
* ``MixJob``   — one concurrent mix under one scheme (a campaign cell).

Jobs reference kernels by their short profile names so they pickle in
a few bytes; each worker process rebuilds a private
:class:`~repro.harness.runner.ExperimentRunner` from the parent's
config/settings and can additionally be pre-seeded with already-known
isolated records and curves so it never re-derives shared inputs.

Duplicate jobs within a batch are executed once (results are fanned
back out to every requesting position), results of ``IsoJob`` /
``CurveJob`` are installed into the parent runner's in-memory caches,
and the shared on-disk cache (``.repro_cache``) is written atomically
(temp file + ``os.replace`` — see ``runner.py``) so concurrent workers
cannot corrupt records.  When multiprocessing is unavailable — or
``workers <= 1`` — the batch degrades gracefully to an in-process
serial loop with identical results.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.cke.warped_slicer import ScalabilityCurve
from repro.harness.runner import (ExperimentRunner, IsoRecord,
                                  RunnerSettings, WorkloadOutcome)
from repro.obs.telemetry import JobHeartbeat
from repro.workloads.mixes import WorkloadMix
from repro.workloads.profiles import get_profile

#: environment override for the default worker count.
WORKERS_ENV = "REPRO_BENCH_WORKERS"


# ----------------------------------------------------------------------
# job descriptions (frozen → hashable → dedupable; tiny → cheap pickles)
@dataclass(frozen=True)
class IsoJob:
    """One isolated run of ``kernel`` at ``tbs`` TBs per SM."""

    kernel: str
    tbs: Optional[int] = None
    cycles: Optional[int] = None


@dataclass(frozen=True)
class CurveJob:
    """One kernel's full scalability curve (all TB counts)."""

    kernel: str


@dataclass(frozen=True)
class MixJob:
    """One concurrent mix under one scheme.

    ``obs=True`` runs the cell with the observability layer attached:
    the outcome's ``result.obs`` carries a picklable
    :class:`~repro.obs.collector.ObsReport` (stall taxonomy + counter
    snapshot) back across the worker boundary, mergeable in the parent
    with ``ObsReport.merged``.

    ``phase_interval`` additionally turns on the phase sampler
    (:mod:`repro.obs.timeline`) at that cycle interval — the report
    then also carries the run's phase records and adaptation event
    log (implies ``obs``)."""

    kernels: Tuple[str, ...]
    scheme: str = "ws"
    cycles: Optional[int] = None
    obs: bool = False
    phase_interval: Optional[int] = None


Job = Union[IsoJob, CurveJob, MixJob]


@dataclass(frozen=True)
class PoolConfig:
    """Worker-pool shape for one batch of jobs.

    ``workers=None`` resolves from ``$REPRO_BENCH_WORKERS`` or the CPU
    count; ``workers<=1`` runs the batch serially in-process.
    ``chunksize`` batches job dispatch to cut IPC overhead for large
    campaigns of cheap jobs.
    """

    workers: Optional[int] = None
    chunksize: int = 1

    def resolved_workers(self) -> int:
        if self.workers is not None:
            return max(1, self.workers)
        env = os.environ.get(WORKERS_ENV)
        if env:
            try:
                return max(1, int(env))
            except ValueError:
                pass
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# worker-side execution
_WORKER_RUNNER: Optional[ExperimentRunner] = None
_WORKER_FAULT_PLAN = None


def _init_worker(config, settings: RunnerSettings, cache_dir: Optional[str],
                 iso_seed: Sequence[Tuple[Tuple, IsoRecord]],
                 curve_seed: Sequence[Tuple[Tuple, ScalabilityCurve]]
                 ) -> None:
    """Build this worker's private runner, pre-seeded with everything
    the parent already knows so shared inputs are never recomputed.

    Constructing the runner also points the kernel-trace disk cache at
    ``cache_dir/traces-v<CACHE_VERSION>`` (see ``ExperimentRunner``),
    so workers share compiled trace chunks with the parent and a
    version bump invalidates both caches together.

    Fault injection activates here too: when ``$REPRO_FAULT_PLAN``
    names a plan file (see :mod:`repro.harness.resilience`), the worker
    loads it once at init and the resilient executor's worker loop
    consults it around every job.  An unreadable plan is an init
    error, never a silent fault-free run."""
    global _WORKER_RUNNER, _WORKER_FAULT_PLAN
    runner = ExperimentRunner(config, settings, cache_dir=cache_dir)
    runner._iso_cache.update(iso_seed)
    runner._curve_cache.update(curve_seed)
    _WORKER_RUNNER = runner
    from repro.harness.resilience import FaultPlan
    _WORKER_FAULT_PLAN = FaultPlan.from_env()


def _worker_fault_plan(load: bool = False):
    """The fault plan this process loaded at ``_init_worker`` time.
    ``load=True`` (the serial in-process path, where no worker init
    ever runs) re-reads ``$REPRO_FAULT_PLAN`` fresh instead."""
    if load:
        from repro.harness.resilience import FaultPlan
        return FaultPlan.from_env()
    return _WORKER_FAULT_PLAN


def _wrap_job_error(job: Job, exc: Exception):
    """Re-raise ``exc`` as a picklable JobError carrying the full
    formatted worker-side traceback — the bare exception the pool used
    to ship home loses the stack in transit."""
    from repro.harness.resilience import JobError
    if isinstance(exc, JobError):
        raise exc
    raise JobError.from_exception(_job_label(job), exc) from None


def _run_job_in_worker(job: Job):
    try:
        return execute_job(_WORKER_RUNNER, job)
    except Exception as exc:
        _wrap_job_error(job, exc)


def _run_job_in_worker_timed(job: Job):
    """Like :func:`_run_job_in_worker` but also reports the worker-side
    wall-clock seconds, for campaign telemetry heartbeats."""
    start = time.perf_counter()
    try:
        result = execute_job(_WORKER_RUNNER, job)
    except Exception as exc:
        _wrap_job_error(job, exc)
    return result, time.perf_counter() - start


def execute_job(runner: ExperimentRunner, job: Job):
    """Run one job on ``runner`` (shared by workers and serial mode)."""
    if isinstance(job, IsoJob):
        return runner.isolated(get_profile(job.kernel), job.tbs, job.cycles)
    if isinstance(job, CurveJob):
        return runner.curve(get_profile(job.kernel))
    if isinstance(job, MixJob):
        mix = WorkloadMix(tuple(get_profile(k) for k in job.kernels))
        obs: object = job.obs or None
        if job.phase_interval:
            from repro.obs.collector import ObsOptions
            obs = ObsOptions(phase=True, phase_interval=job.phase_interval)
        return runner.run_mix(mix, job.scheme, cycles=job.cycles, obs=obs)
    raise TypeError(f"unknown job type {type(job).__name__}")


# ----------------------------------------------------------------------
# parent-side cache installation
def _absorb(runner: ExperimentRunner, job: Job, result) -> None:
    """Install a worker's result into the parent runner's caches.
    Jobs name stock profiles, so the key is the stock profile's."""
    if isinstance(job, IsoJob):
        # ``isolated()`` resolves a default (None) TB count before its
        # cache lookup, so keying by the record's resolved count serves
        # both explicit and default-TB requests.
        cycles = job.cycles or runner.settings.iso_cycles
        key = runner._iso_key(get_profile(job.kernel), result.tbs, cycles)
        runner._iso_cache[key] = result
    elif isinstance(job, CurveJob):
        runner._curve_cache[runner._curve_key(get_profile(job.kernel))] \
            = result


def _seed_payload(runner: ExperimentRunner):
    """Everything the parent's in-memory caches hold, as initargs:
    the workers install the entries under the parent's keys."""
    return list(runner._iso_cache.items()), list(runner._curve_cache.items())


# ----------------------------------------------------------------------
# telemetry helpers
_CACHE_MISS = object()

#: per-finished-job progress callback (campaign telemetry).
ProgressFn = Callable[[JobHeartbeat], None]


def _probe_cache(runner: ExperimentRunner, job: Job):
    """The parent-side cached result for ``job``, or ``_CACHE_MISS``.
    Used by the telemetry path to flag cache hits before dispatch."""
    if isinstance(job, IsoJob):
        tbs = job.tbs
        if tbs is None:
            tbs = get_profile(job.kernel).max_tbs_per_sm(runner.config)
        cycles = job.cycles or runner.settings.iso_cycles
        key = runner._iso_key(get_profile(job.kernel), tbs, cycles)
        return runner._iso_cache.get(key, _CACHE_MISS)
    if isinstance(job, CurveJob):
        key = runner._curve_key(get_profile(job.kernel))
        return runner._curve_cache.get(key, _CACHE_MISS)
    return _CACHE_MISS


def _job_label(job: Job) -> str:
    if isinstance(job, IsoJob):
        return f"iso {job.kernel}" + (f" tbs={job.tbs}" if job.tbs else "")
    if isinstance(job, CurveJob):
        return f"curve {job.kernel}"
    if isinstance(job, MixJob):
        return f"mix {job.scheme} {'+'.join(job.kernels)}"
    return repr(job)


def _job_cycles(runner: ExperimentRunner, job: Job) -> int:
    """Simulated-cycle budget of one job (for cycles/sec telemetry)."""
    settings = runner.settings
    if isinstance(job, IsoJob):
        return job.cycles or settings.iso_cycles
    if isinstance(job, CurveJob):
        points = get_profile(job.kernel).max_tbs_per_sm(runner.config)
        return points * settings.curve_cycles
    if isinstance(job, MixJob):
        return job.cycles or settings.concurrent_cycles
    return 0


# ----------------------------------------------------------------------
# ledger-informed job ordering
def job_cost_key(job: Job) -> Optional[Tuple[str, str]]:
    """The ledger ``(workload, scheme)`` key a job's cost hint lives
    under, or None for job types the ledger does not record."""
    if isinstance(job, MixJob):
        return "+".join(job.kernels), job.scheme
    return None


def ledger_cost_hints(artifacts_path: str) -> Dict[Tuple[str, str], float]:
    """Per-cell expected-cost hints from a prior campaign's run
    artifacts: ``(workload, scheme) -> cost``.

    Cost is the artifact's simulated-cycle budget scaled by its
    measured activity (``1 + total_ipc``) — a deterministic wall-clock
    proxy that needs no timing fields: a cell simulating more cycles,
    or doing more work per cycle, takes a worker longer.  Missing or
    unreadable artifacts simply yield no hint.
    """
    from repro.obs import ledger
    hints: Dict[Tuple[str, str], float] = {}
    for key, artifact in ledger.load_artifacts(artifacts_path).items():
        cycles = artifact.get("cycles") or 0
        metrics = artifact.get("metrics") or {}
        ipc = metrics.get("total_ipc") or 0.0
        hints[key] = float(cycles) * (1.0 + float(ipc))
    return hints


def _order_by_cost(pending: List[Job],
                   cost_hints: Dict[Tuple[str, str], float]) -> List[Job]:
    """Longest-expected-first (LPT) dispatch order.  A long cell
    dispatched last leaves the pool tail-bound on one worker; front-
    loading the expensive cells packs the workers tighter.  The sort is
    stable with unknown-cost jobs at 0, so unhinted batches keep their
    input order exactly — and results are returned in input order
    regardless (ordering only moves dispatch)."""
    indexed = list(enumerate(pending))
    indexed.sort(key=lambda pair: (
        -cost_hints.get(job_cost_key(pair[1]) or ("", ""), 0.0), pair[0]))
    return [job for _i, job in indexed]


# ----------------------------------------------------------------------
# batch execution
def run_jobs(runner: ExperimentRunner, jobs: Sequence[Job],
             workers: Optional[int] = None, chunksize: int = 1,
             progress: Optional[ProgressFn] = None,
             cost_hints: Optional[Dict[Tuple[str, str], float]] = None
             ) -> List:
    """Execute ``jobs`` and return their results in input order.

    Identical jobs are executed once.  ``IsoJob`` / ``CurveJob``
    results are installed into ``runner``'s in-memory caches (and, via
    the workers, the shared disk cache), so subsequent serial calls hit
    the cache.  The pool is capped at the machine's CPU count (more
    processes than cores only add overhead to CPU-bound jobs); it falls
    back to an in-process serial loop when the pool is unavailable or
    the cap resolves to 1.

    ``progress`` receives one :class:`JobHeartbeat` per finished unique
    job, in completion order, from the dispatching thread; results are
    unaffected by its presence.

    ``cost_hints`` (see :func:`ledger_cost_hints`) reorders the
    *dispatch* of uncached jobs longest-expected-first; the returned
    list stays in input order, bit-identical with or without hints.
    """
    pool_cfg = PoolConfig(workers=workers, chunksize=chunksize)
    unique: List[Job] = list(dict.fromkeys(jobs))
    if not unique:
        return []
    results: Dict[Job, object] = {}
    total = len(unique)
    pending = unique
    if progress is not None:
        # Flag parent-side cache hits up front: they cost nothing, so
        # heartbeat them immediately and dispatch only the real work.
        pending = []
        done = 0
        for job in unique:
            cached = _probe_cache(runner, job)
            if cached is _CACHE_MISS:
                pending.append(job)
            else:
                results[job] = cached
                done += 1
                progress(JobHeartbeat(
                    index=done, total=total, label=_job_label(job),
                    duration_s=0.0, sim_cycles=_job_cycles(runner, job),
                    cache_hit=True))
    if cost_hints and len(pending) > 1:
        pending = _order_by_cost(list(pending), cost_hints)
    # Cap the pool at the machine's CPU count: extra processes beyond
    # that cannot run concurrently, so oversubscribing only adds spawn,
    # pickle, and scheduling overhead to a CPU-bound campaign.
    nworkers = (min(pool_cfg.resolved_workers(), len(pending),
                    os.cpu_count() or 1)
                if pending else 0)
    pool_failed = False
    if nworkers > 1:
        try:
            iso_seed, curve_seed = _seed_payload(runner)
            with ProcessPoolExecutor(
                    max_workers=nworkers,
                    initializer=_init_worker,
                    initargs=(runner.config, runner.settings,
                              runner.cache_dir, iso_seed, curve_seed),
            ) as pool:
                if progress is None:
                    for job, result in zip(
                            pending,
                            pool.map(_run_job_in_worker, pending,
                                     chunksize=max(1, pool_cfg.chunksize))):
                        results[job] = result
                else:
                    futures = {pool.submit(_run_job_in_worker_timed, job): job
                               for job in pending}
                    done = total - len(pending)
                    not_done = set(futures)
                    while not_done:
                        finished, not_done = wait(
                            not_done, return_when=FIRST_COMPLETED)
                        for future in finished:
                            job = futures[future]
                            result, duration = future.result()
                            results[job] = result
                            done += 1
                            progress(JobHeartbeat(
                                index=done, total=total,
                                label=_job_label(job), duration_s=duration,
                                sim_cycles=_job_cycles(runner, job)))
        except (OSError, ValueError, RuntimeError, ImportError):
            # No usable multiprocessing here (restricted sandbox, dead
            # workers, ...): degrade to the serial path below.
            for job in pending:
                results.pop(job, None)
            pool_failed = True
    if pool_failed or nworkers <= 1:
        done = total - len(pending)
        for job in pending:
            if job in results:
                continue
            start = time.perf_counter()
            results[job] = execute_job(runner, job)
            if progress is not None:
                done += 1
                progress(JobHeartbeat(
                    index=done, total=total, label=_job_label(job),
                    duration_s=time.perf_counter() - start,
                    sim_cycles=_job_cycles(runner, job)))
    for job in unique:
        _absorb(runner, job, results[job])
    return [results[job] for job in jobs]


def campaign_jobs(mixes: Sequence[WorkloadMix], schemes: Sequence[str],
                  cycles: Optional[int] = None, obs: bool = False,
                  phase_interval: Optional[int] = None) -> List[MixJob]:
    """The mix-major grid of cells for a mixes×schemes campaign."""
    return [MixJob(tuple(p.name for p in mix.profiles), scheme, cycles, obs,
                   phase_interval)
            for mix in mixes for scheme in schemes]


def prefetch_jobs(mixes: Sequence[WorkloadMix],
                  schemes: Sequence[str]) -> List[Job]:
    """Shared inputs of a campaign: every kernel's isolated run (for
    normalisation) and — when any scheme partitions via Warped-Slicer —
    every kernel's scalability curve."""
    kernels = list(dict.fromkeys(
        p.name for mix in mixes for p in mix.profiles))
    jobs: List[Job] = [IsoJob(k) for k in kernels]
    if any(s.lower().startswith(("ws", "dws")) for s in schemes):
        jobs += [CurveJob(k) for k in kernels]
    return jobs


def run_campaign(runner: ExperimentRunner, mixes: Sequence[WorkloadMix],
                 schemes: Sequence[str], workers: Optional[int] = None,
                 cycles: Optional[int] = None,
                 chunksize: int = 1, obs: bool = False,
                 progress: Optional[ProgressFn] = None,
                 phase_interval: Optional[int] = None,
                 artifacts_dir: Optional[str] = None
                 ) -> List[WorkloadOutcome]:
    """Run the full mixes×schemes grid, in parallel, in two phases.

    Phase 1 computes the shared inputs (isolated runs, curves) once and
    installs them everywhere; phase 2 fans the grid cells out, each
    worker pre-seeded with phase 1's results.  Outcomes come back in
    mix-major grid order, bit-identical to the serial loop.

    ``obs=True`` runs every cell observed (stall-attribution report on
    each outcome's ``result.obs``); ``phase_interval`` also turns on
    the phase sampler in every cell; ``progress`` receives live
    :class:`JobHeartbeat` telemetry from both phases.

    ``artifacts_dir`` makes the parent emit one run-artifact JSON per
    cell (plus the ``ledger.json`` index) after all workers return —
    workers only ship picklable reports back, the ledger write happens
    in exactly one process.  When the directory already holds artifacts
    from a prior campaign, their per-cell costs order this one's
    dispatch longest-first (:func:`ledger_cost_hints`) — results are
    unaffected, only worker packing.
    """
    run_jobs(runner, prefetch_jobs(mixes, schemes), workers=workers,
             chunksize=chunksize, progress=progress)
    cost_hints = None
    if artifacts_dir and os.path.isdir(artifacts_dir):
        cost_hints = ledger_cost_hints(artifacts_dir)
    outcomes = run_jobs(
        runner,
        campaign_jobs(mixes, schemes, cycles, obs=obs,
                      phase_interval=phase_interval),
        workers=workers, chunksize=chunksize, progress=progress,
        cost_hints=cost_hints)
    if artifacts_dir:
        from repro.obs import ledger
        sha = ledger.current_git_sha()
        ledger.write_artifacts(artifacts_dir, [
            ledger.artifact_from_outcome(outcome, runner.config,
                                         runner.settings, git_sha=sha)
            for outcome in outcomes])
    return outcomes
