"""The campaign executor: one worker pool for every batch of
independent simulation jobs.

Experiment campaigns in this repo are embarrassingly parallel — every
isolated run, every scalability-curve point and every mix×scheme cell
is an independent simulation.  This module describes each unit of work
as a small picklable job dataclass:

* ``IsoJob``   — one kernel alone at one TB count (normalisation runs);
* ``CurveJob`` — one kernel's full scalability curve (Warped-Slicer
  profiling, paper §2.5 / Fig. 3a);
* ``MixJob``   — one concurrent mix under one scheme (a campaign cell).

Jobs reference kernels by their short profile names so they pickle in
a few bytes; each worker process rebuilds a private
:class:`~repro.harness.runner.ExperimentRunner` from the parent's
config/settings, pre-seeded with the parent's isolated records and
curves so it never re-derives shared inputs.

:func:`run_jobs` runs every batch the same way.  Duplicate jobs run
once; jobs the parent runner already has cached are answered (and
heartbeated) up front; the rest run on the worker pool — one
sacrificial process per worker, each with a private duplex pipe — or
in-process, and the results come back in input order, bit-identical
either way.  ``IsoJob`` / ``CurveJob`` results are installed into the
parent runner's caches, and the shared on-disk cache (``.repro_cache``)
is written atomically (temp file + ``os.replace`` — see ``runner.py``)
so concurrent workers cannot corrupt records.

Pool size, one rule (:func:`pool_size`): ``min(requested, pending,
os.cpu_count())`` processes, where ``requested`` is ``workers`` (else
``$REPRO_BENCH_WORKERS``, else the CPU count) and ``pending`` counts
the uncached jobs — more processes than cores only add overhead to
CPU-bound jobs.  A size of 1 runs the batch in-process, unless the
batch has a timeout: preempting a cell needs a process to kill, so a
timed batch always gets at least one worker.  A host without usable
multiprocessing runs every batch in-process.

A :class:`~repro.harness.resilience.ResiliencePolicy` adds per-attempt
timeouts, retries with backoff and quarantine; without one, the first
failure raises :class:`~repro.harness.resilience.JobError`.  A
:class:`~repro.harness.resilience.CampaignJournal` checkpoints every
finished cell for ``resume`` (see docs/RESILIENCE.md).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as wait_ready
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.cke.warped_slicer import ScalabilityCurve
from repro.harness.resilience import (CampaignJournal, FaultPlan, JobError,
                                      Quarantined, ResiliencePolicy,
                                      ResilienceReport, Unpicklable,
                                      default_journal_path,
                                      exported_fault_plan, job_key)
from repro.harness.runner import (ExperimentRunner, IsoRecord,
                                  RunnerSettings, WorkloadOutcome)
from repro.obs.telemetry import JobHeartbeat
from repro.workloads.mixes import WorkloadMix
from repro.workloads.profiles import get_profile

#: environment override for the default worker count.
WORKERS_ENV = "REPRO_BENCH_WORKERS"

#: a batch without a policy: no timeout, no retry, and the first
#: failure raises its JobError.
NO_POLICY = ResiliencePolicy(retries=0, quarantine=False)

#: errors starting the pool that mean this host cannot run worker
#: processes; the batch then runs in-process.  A JobError is none of
#: these, so a failing job is never mistaken for a missing pool.
POOL_UNAVAILABLE = (OSError, ValueError, ImportError)


# ----------------------------------------------------------------------
# job descriptions (frozen → hashable → dedupable; tiny → cheap pickles)
@dataclass(frozen=True)
class IsoJob:
    """One isolated run of ``kernel`` at ``tbs`` TBs per SM."""

    kernel: str
    tbs: Optional[int] = None
    cycles: Optional[int] = None

    @property
    def label(self) -> str:
        return f"iso {self.kernel}" + (f" tbs={self.tbs}" if self.tbs else "")


@dataclass(frozen=True)
class CurveJob:
    """One kernel's full scalability curve (all TB counts)."""

    kernel: str

    @property
    def label(self) -> str:
        return f"curve {self.kernel}"


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

    @property
    def label(self) -> str:
        return f"mix {self.scheme} {'+'.join(self.kernels)}"


Job = Union[IsoJob, CurveJob, MixJob]


def resolve_workers(workers: Optional[int] = None) -> int:
    """The requested worker count: ``workers``, else
    ``$REPRO_BENCH_WORKERS``, else the CPU count (at least 1)."""
    if workers is not None:
        return max(1, workers)
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def pool_size(workers: Optional[int], pending: int,
              timeout_s: Optional[float]) -> int:
    """Worker processes for a batch of ``pending`` uncached jobs; 0
    runs it in-process.  See the module docstring for the rule."""
    size = min(resolve_workers(workers), pending, os.cpu_count() or 1)
    if size > 1:
        return size
    return 1 if timeout_s and pending else 0


# ----------------------------------------------------------------------
# worker-side execution
_WORKER_RUNNER: Optional[ExperimentRunner] = None
_WORKER_FAULT_PLAN: Optional[FaultPlan] = None


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
    loads it once at init and consults it around every job.  An
    unreadable plan is an init error, never a silent fault-free run."""
    global _WORKER_RUNNER, _WORKER_FAULT_PLAN
    runner = ExperimentRunner(config, settings, cache_dir=cache_dir)
    runner._iso_cache.update(iso_seed)
    runner._curve_cache.update(curve_seed)
    _WORKER_RUNNER = runner
    _WORKER_FAULT_PLAN = FaultPlan.from_env()


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


def _attempt(runner: ExperimentRunner, plan: Optional[FaultPlan], job: Job,
             in_worker: bool) -> Tuple[bool, object]:
    """One attempt at ``job``, with the fault plan's faults around it:
    ``(True, result)`` or ``(False, JobError)``."""
    label = job.label
    try:
        if plan is not None:
            plan.fire_pre(label, in_worker=in_worker)
        result = execute_job(runner, job)
        if plan is not None:
            result = plan.mutate_result(label, result)
            plan.fire_post(label)
    except Exception as exc:
        return False, (exc if isinstance(exc, JobError)
                       else JobError.from_exception(label, exc))
    return True, result


def _worker_main(conn, *init_args) -> None:
    """A pool worker: build the private runner, then answer each job
    received on ``conn`` with one pickled ``(ok, seconds, payload)``
    reply, until the ``None`` sentinel or a closed pipe.

    The reply is pickled here, so an unpicklable result becomes a
    :class:`JobError` the parent can charge to its cell.  Leaving
    through the sentinel rather than a kill runs the process's exit
    handlers."""
    _init_worker(*init_args)
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            break
        if job is None:
            break
        start = time.perf_counter()
        ok, payload = _attempt(_WORKER_RUNNER, _WORKER_FAULT_PLAN, job,
                               in_worker=True)
        duration = time.perf_counter() - start
        try:
            blob = pickle.dumps((ok, duration, payload),
                                protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            error = JobError(job.label, type(exc).__name__,
                             f"result of {job.label!r} could not be pickled "
                             f"across the process boundary: {exc}")
            blob = pickle.dumps((False, duration, error),
                                protocol=pickle.HIGHEST_PROTOCOL)
        try:
            conn.send_bytes(blob)
        except OSError:
            break


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
    """Everything the parent's in-memory caches hold, as worker init
    arguments: the workers install the entries under the parent's
    keys."""
    return list(runner._iso_cache.items()), list(runner._curve_cache.items())


# ----------------------------------------------------------------------
# telemetry helpers
_CACHE_MISS = object()

#: per-finished-job progress callback (campaign telemetry).
ProgressFn = Callable[[JobHeartbeat], None]


def _probe_cache(runner: ExperimentRunner, job: Job):
    """The parent-side cached result for ``job``, or ``_CACHE_MISS``:
    a hit is answered before dispatch."""
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
# per-batch bookkeeping
class _Batch:
    """Parent-side state of one batch, shared by the pool and the
    in-process loop: results, per-cell accounting, journal checkpoints,
    heartbeats, and what the policy does with a failed attempt."""

    def __init__(self, runner: ExperimentRunner, policy: ResiliencePolicy,
                 report: ResilienceReport,
                 journal: Optional[CampaignJournal],
                 progress: Optional[ProgressFn], total: int):
        self.runner = runner
        self.policy = policy
        self.report = report
        self.journal = journal
        self.progress = progress
        self.total = total
        self.done = 0
        self.results: Dict[Job, object] = {}

    def _beat(self, job: Job, duration: float, sim_cycles: int,
              **fields) -> None:
        if self.progress is not None:
            self.progress(JobHeartbeat(
                index=self.done, total=self.total, label=job.label,
                duration_s=duration, sim_cycles=sim_cycles, **fields))

    def _settle(self, job: Job, result) -> None:
        self.results[job] = result
        self.done += 1

    def known(self, job: Job, result, resumed: bool) -> None:
        """A result known before dispatch: a parent-side cache hit, or
        a checkpoint replayed from the journal."""
        self._settle(job, result)
        if resumed:
            self.report.cell(job).resumed = True
        self._beat(job, 0.0, _job_cycles(self.runner, job), cache_hit=True,
                   event="resumed" if resumed else "done")

    def started(self, job: Job) -> None:
        self.report.cell(job).attempts += 1

    def succeeded(self, job: Job, result, duration: float,
                  attempt: int) -> None:
        self._settle(job, result)
        if self.journal is not None:
            self.journal.record_done(job, result)
        self._beat(job, duration, _job_cycles(self.runner, job),
                   attempt=attempt)

    def failed(self, job: Job, attempt: int, fault: str, duration: float,
               error: Optional[JobError] = None) -> Optional[float]:
        """Charge failed attempt ``attempt`` to ``job``'s cell.  Returns
        the backoff before the next attempt, or None once the cell is
        quarantined; raises when the policy does not quarantine."""
        cell = self.report.cell(job)
        cell.faults.append(fault)
        if attempt < self.policy.max_attempts:
            self._beat(job, duration, 0, attempt=attempt, event="retry",
                       fault=fault)
            return self.policy.backoff_after(attempt)
        if not self.policy.quarantine:
            raise error if error is not None else JobError(
                job.label, fault, f"cell {job.label!r} failed with "
                                  f"{fault!r} after {attempt} attempts")
        cell.quarantined = True
        self._settle(job, Quarantined(job.label, tuple(cell.faults)))
        if self.journal is not None:
            self.journal.record_quarantine(job, cell.faults)
        self._beat(job, duration, 0, attempt=attempt, event="quarantined",
                   fault=fault)
        return None


# ----------------------------------------------------------------------
# the worker pool
class _Worker:
    """One sacrificial worker process and its private duplex pipe."""

    def __init__(self, ctx, init_args: Tuple):
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_worker_main,
                                args=(child,) + init_args, daemon=True)
        self.proc.start()
        child.close()
        #: (job, attempt, deadline | None) while running a job.
        self.busy: Optional[Tuple[Job, int, Optional[float]]] = None

    def stop(self) -> None:
        """Ask the worker to leave through its sentinel."""
        try:
            self.conn.send(None)
        except (OSError, ValueError):
            pass

    def reap(self, timeout: float) -> None:
        """Wait for the worker to exit, killing it after ``timeout``."""
        self.proc.join(timeout=timeout)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join(timeout=5.0)
        self.conn.close()


class _Pool:
    """The worker processes of one batch, and the parent's dispatch
    loop over them.  One job in flight per worker, on its private pipe,
    so the parent always knows which worker owns which cell: a timeout
    kills the right process, and a worker's death (its process sentinel
    becomes ready) is charged to the cell it was running."""

    def __init__(self, batch: _Batch, jobs: List[Job], size: int):
        self.batch = batch
        self.timeout_s = batch.policy.timeout_s
        #: (job, attempt) ready to dispatch now, in dispatch order.
        self.runnable = deque((job, 1) for job in jobs)
        #: (eligible monotonic time, input position, job, attempt).
        self.backoff: List[Tuple[float, int, Job, int]] = []
        self.position = {job: i for i, job in enumerate(jobs)}
        self.outstanding = len(jobs)
        self.ctx = multiprocessing.get_context()
        runner = batch.runner
        self.init_args = ((runner.config, runner.settings, runner.cache_dir)
                          + _seed_payload(runner))
        self.workers: List[_Worker] = []
        try:
            for _ in range(size):
                self.workers.append(_Worker(self.ctx, self.init_args))
        except BaseException:
            self.close()
            raise

    def run(self) -> None:
        try:
            while self.outstanding:
                self._promote_backoff()
                self._dispatch()
                self._collect()
        finally:
            self.close()

    def close(self) -> None:
        for worker in self.workers:
            worker.stop()
        for worker in self.workers:
            worker.reap(timeout=2.0)

    # ------------------------------------------------------------------
    def _promote_backoff(self) -> None:
        now = time.monotonic()
        ready = [entry for entry in self.backoff if entry[0] <= now]
        if ready:
            self.backoff = [entry for entry in self.backoff
                            if entry[0] > now]
            # Retried cells re-enter the queue in input order.
            for _when, _pos, job, attempt in sorted(ready,
                                                    key=lambda e: e[1]):
                self.runnable.append((job, attempt))

    def _dispatch(self) -> None:
        for index, worker in enumerate(self.workers):
            if not self.runnable:
                return
            if worker.busy is not None:
                continue
            if not worker.proc.is_alive():
                worker = self._respawn(index)
            job, attempt = self.runnable.popleft()
            try:
                worker.conn.send(job)
            except (OSError, ValueError):
                # Broken pipe: the worker died idle; nothing ran.
                self.runnable.appendleft((job, attempt))
                self._respawn(index)
                continue
            self.batch.started(job)
            worker.busy = (job, attempt, time.monotonic() + self.timeout_s
                           if self.timeout_s else None)

    def _respawn(self, index: int) -> _Worker:
        old = self.workers[index]
        old.proc.kill()
        old.reap(timeout=5.0)
        self.workers[index] = _Worker(self.ctx, self.init_args)
        return self.workers[index]

    # ------------------------------------------------------------------
    def _wait_s(self) -> Optional[float]:
        """How long the parent may block: until the nearest deadline or
        backoff expiry, or indefinitely (None) when there is none."""
        times = [w.busy[2] for w in self.workers
                 if w.busy is not None and w.busy[2] is not None]
        times += [entry[0] for entry in self.backoff]
        if not times:
            return None
        return max(0.0, min(times) - time.monotonic())

    def _collect(self) -> None:
        busy = [(i, w) for i, w in enumerate(self.workers)
                if w.busy is not None]
        handles = [w.conn for _i, w in busy] + [w.proc.sentinel
                                                for _i, w in busy]
        timeout = self._wait_s()
        if not handles:
            time.sleep(timeout or 0.0)
            return
        ready = wait_ready(handles, timeout)
        now = time.monotonic()
        for index, worker in busy:
            job, attempt, deadline = worker.busy
            if worker.conn in ready:
                try:
                    blob = worker.conn.recv_bytes()
                except (EOFError, OSError):
                    self._crashed(index, "worker-crash", 0.0)
                    continue
                worker.busy = None
                try:
                    ok, duration, payload = pickle.loads(blob)
                except Exception:
                    self._settle_attempt(job, attempt, False, 0.0,
                                         "garbled-result", None)
                    continue
                fault = None if ok else f"error:{payload.original_type}"
                self._settle_attempt(job, attempt, ok, duration, fault,
                                     payload)
            elif worker.proc.sentinel in ready:
                self._crashed(index, "worker-crash", 0.0)
            elif deadline is not None and now > deadline:
                self._crashed(index, "timeout", self.timeout_s or 0.0)

    def _crashed(self, index: int, fault: str, duration: float) -> None:
        """The busy worker at ``index`` died or overran its deadline:
        replace it and charge the attempt to its cell."""
        job, attempt, _deadline = self.workers[index].busy
        self._respawn(index)
        self._settle_attempt(job, attempt, False, duration, fault, None)

    def _settle_attempt(self, job: Job, attempt: int, ok: bool,
                        duration: float, fault: Optional[str],
                        payload) -> None:
        if ok:
            self.batch.succeeded(job, payload, duration, attempt)
            self.outstanding -= 1
            return
        error = payload if isinstance(payload, JobError) else None
        delay = self.batch.failed(job, attempt, fault, duration, error)
        if delay is None:
            self.outstanding -= 1
        else:
            self.backoff.append((time.monotonic() + delay,
                                 self.position[job], job, attempt + 1))


def _run_serial(batch: _Batch, jobs: List[Job]) -> None:
    """The in-process loop: retries, quarantine and ``raise`` /
    ``unpicklable`` / ``corrupt`` faults apply as in the pool;
    ``kill`` / ``hang`` faults need a sacrificial worker process and
    are skipped (documented in docs/RESILIENCE.md)."""
    plan = FaultPlan.from_env()
    for job in jobs:
        attempt = 1
        while True:
            batch.started(job)
            start = time.perf_counter()
            ok, payload = _attempt(batch.runner, plan, job, in_worker=False)
            duration = time.perf_counter() - start
            if ok and isinstance(payload, Unpicklable):
                ok, payload = False, JobError(
                    job.label, "TypeError",
                    f"result of {job.label!r} could not be pickled "
                    f"across the process boundary")
            if ok:
                batch.succeeded(job, payload, duration, attempt)
                break
            delay = batch.failed(job, attempt,
                                 f"error:{payload.original_type}", duration,
                                 payload)
            if delay is None:
                break
            time.sleep(delay)
            attempt += 1


# ----------------------------------------------------------------------
# batch execution
def run_jobs(runner: ExperimentRunner, jobs: Sequence[Job],
             workers: Optional[int] = None,
             progress: Optional[ProgressFn] = None,
             cost_hints: Optional[Dict[Tuple[str, str], float]] = None,
             policy: Optional[ResiliencePolicy] = None,
             journal: Optional[CampaignJournal] = None,
             resume: bool = False,
             fault_plan: Optional[str] = None,
             report: Optional[ResilienceReport] = None) -> List:
    """Execute ``jobs`` and return their results in input order.

    Identical jobs are executed once.  ``IsoJob`` / ``CurveJob``
    results are installed into ``runner``'s in-memory caches (and, via
    the workers, the shared disk cache), so subsequent serial calls hit
    the cache.  See the module docstring for the pool size.

    ``progress`` receives one :class:`JobHeartbeat` per finished unique
    job (cache hits first), in completion order, from the dispatching
    thread; results are unaffected by its presence.  ``cost_hints``
    (see :func:`ledger_cost_hints`) orders the *dispatch* of uncached
    jobs longest-expected-first; the returned list stays in input
    order, bit-identical with or without hints.

    ``policy`` governs failures (default :data:`NO_POLICY`); a
    quarantined cell's result is a
    :class:`~repro.harness.resilience.Quarantined` placeholder.
    ``journal`` checkpoints every settled cell: ``resume=True`` replays
    its verified checkpoints and runs only the remainder,
    ``resume=False`` resets it.  ``fault_plan`` exports
    ``$REPRO_FAULT_PLAN`` for the batch (chaos tests drive this).
    ``report`` accumulates per-cell attempts, faults and resumes.
    """
    unique: List[Job] = list(dict.fromkeys(jobs))
    if not unique:
        return []
    policy = policy or NO_POLICY
    batch = _Batch(runner, policy,
                   report if report is not None else ResilienceReport(),
                   journal, progress, len(unique))
    checkpoints: Dict[str, object] = {}
    if journal is not None:
        if resume:
            checkpoints, _quarantined = journal.load()
        else:
            journal.reset()
    pending: List[Job] = []
    for job in unique:
        key = job_key(job) if checkpoints else None
        if key in checkpoints:
            batch.known(job, checkpoints[key], resumed=True)
            continue
        cached = _probe_cache(runner, job)
        if cached is _CACHE_MISS:
            pending.append(job)
        else:
            batch.known(job, cached, resumed=False)
    if cost_hints and len(pending) > 1:
        pending = _order_by_cost(pending, cost_hints)
    if pending:
        with exported_fault_plan(fault_plan):
            size = pool_size(workers, len(pending), policy.timeout_s)
            try:
                pool = _Pool(batch, pending, size) if size else None
            except POOL_UNAVAILABLE:
                pool = None  # no usable multiprocessing: run in-process
            if pool is not None:
                pool.run()
            else:
                _run_serial(batch, pending)
    for job in unique:
        result = batch.results[job]
        if not isinstance(result, Quarantined):
            _absorb(runner, job, result)
    return [batch.results[job] for job in jobs]


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
                 cycles: Optional[int] = None, obs: bool = False,
                 progress: Optional[ProgressFn] = None,
                 phase_interval: Optional[int] = None,
                 artifacts_dir: Optional[str] = None,
                 policy: Optional[ResiliencePolicy] = None,
                 journal_path: Optional[str] = None,
                 resume: bool = False,
                 fault_plan: Optional[str] = None,
                 report: Optional[ResilienceReport] = None
                 ) -> List[WorkloadOutcome]:
    """Run the full mixes×schemes grid in two phases.

    Phase 1 computes the shared inputs (isolated runs, curves) once and
    installs them everywhere; phase 2 fans the grid cells out, each
    worker pre-seeded with phase 1's results.  Outcomes come back in
    mix-major grid order, bit-identical to the serial loop.

    ``obs=True`` runs every cell observed (stall-attribution report on
    each outcome's ``result.obs``); ``phase_interval`` also turns on
    the phase sampler in every cell; ``progress`` receives live
    :class:`JobHeartbeat` telemetry from both phases.

    ``policy``, ``fault_plan`` and ``report`` pass to :func:`run_jobs`.
    A campaign with a policy, or one that resumes, keeps a checkpoint
    journal at ``journal_path`` (default: under the runner's cache
    dir; no cache dir means no journal); ``resume=True`` replays it and
    re-runs only unfinished / quarantined cells, which come back as
    :class:`~repro.harness.resilience.Quarantined` placeholders.

    ``artifacts_dir`` makes the parent emit one run-artifact JSON per
    completed cell (plus the ``ledger.json`` index) after all workers
    return — workers only ship picklable reports back, the ledger write
    happens in exactly one process.  Cells that degraded carry their
    resume/retry provenance, and a campaign with a policy or journal
    adds a degradation block to the index.  When the directory already
    holds artifacts from a prior campaign, their per-cell costs order
    this one's dispatch longest-first (:func:`ledger_cost_hints`) —
    results are unaffected, only worker packing.
    """
    if journal_path is None and (policy is not None or resume):
        journal_path = default_journal_path(runner)
    if resume and journal_path is None:
        raise ValueError(
            "--resume needs a checkpoint journal: give the runner a "
            "cache dir or pass journal_path explicitly")
    journal = CampaignJournal(journal_path) if journal_path else None
    report = report if report is not None else ResilienceReport()
    common = dict(workers=workers, progress=progress, policy=policy,
                  journal=journal, fault_plan=fault_plan, report=report)
    run_jobs(runner, prefetch_jobs(mixes, schemes), resume=resume, **common)
    cost_hints = None
    if artifacts_dir and os.path.isdir(artifacts_dir):
        cost_hints = ledger_cost_hints(artifacts_dir)
    cells = campaign_jobs(mixes, schemes, cycles, obs=obs,
                          phase_interval=phase_interval)
    # Phase 1 reset the journal (unless resuming); phase 2 extends it.
    outcomes = run_jobs(runner, cells, cost_hints=cost_hints, resume=True,
                        **common)
    if artifacts_dir:
        from repro.obs import ledger
        sha = ledger.current_git_sha()
        artifacts = []
        for job, outcome in zip(cells, outcomes):
            if isinstance(outcome, Quarantined):
                continue
            cell = report.cells.get(job_key(job))
            provenance = None
            if cell is not None and (cell.resumed or cell.attempts > 1
                                     or cell.faults):
                provenance = {"attempts": cell.attempts,
                              "resumed": cell.resumed,
                              "faults": list(cell.faults)}
            artifacts.append(ledger.artifact_from_outcome(
                outcome, runner.config, runner.settings, git_sha=sha,
                provenance=provenance))
        campaign = None
        if policy is not None or journal is not None:
            campaign = {"retries": report.retries,
                        "quarantined": report.quarantined,
                        "resumed": report.resumed,
                        "journal": (os.path.basename(journal_path)
                                    if journal_path else None)}
        ledger.write_artifacts(artifacts_dir, artifacts, campaign=campaign)
    return outcomes
