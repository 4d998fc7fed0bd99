"""The robustness layer of the campaign executor: failure policy,
per-cell accounting, a checkpoint journal and deterministic fault
injection.

The executor itself (:func:`repro.harness.parallel.run_jobs`, one
worker pool and one in-process loop) runs every batch; this module
holds what it consults when a worker crashes, hangs or fails, in the
shape shared-environment schedulers treat as table stakes: worker
failure, stragglers and partial results are expected events, not
campaign aborts.

* :class:`ResiliencePolicy` — per-job wall-clock timeout, retry count
  with exponential backoff, and quarantine-instead-of-abort once the
  retry budget is exhausted.  A batch without one runs under
  ``parallel.NO_POLICY``: the first failure raises.
* :class:`ResilienceReport` — per-cell attempts, faults, resumes and
  quarantines of a batch, supplied by the caller.  Results stay
  bit-identical to a fault-free run: a retry re-executes the same
  deterministic simulation.
* :class:`CampaignJournal` — an append-only, atomic, versioned
  checkpoint journal under the harness cache dir.  Every completed
  cell's pickled result rides in the journal with a SHA-256
  fingerprint, keyed by :func:`job_key` (the job's fields plus the
  content of every profile it names); ``repro campaign --resume``
  replays verified entries and re-runs only unfinished / quarantined /
  corrupted cells, yielding a merged report bit-identical to an
  uninterrupted campaign.
* :class:`FaultPlan` — a seeded, deterministic fault-injection
  schedule (worker kills, injected hangs, poisoned cells, unpicklable
  results, cache/journal corruption), activated in worker processes
  via ``$REPRO_FAULT_PLAN`` (loaded by ``parallel._init_worker``).
  Each fault fires a bounded number of times, coordinated across
  processes by exclusive marker-file claims, so the chaos tests can
  script "kill the worker on this cell, once" and know the retry will
  succeed.
* :class:`JobError` — a picklable failure that carries the worker's
  full formatted traceback across the process boundary.

See docs/RESILIENCE.md for the journal schema and FaultPlan format.
"""

from __future__ import annotations

import base64
import fnmatch
import glob as globmod
import hashlib
import json
import os
import pickle
import signal
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.harness.runner import CACHE_VERSION, ExperimentRunner, profile_key
from repro.workloads.profiles import get_profile

#: environment variable naming the active fault-plan JSON file.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: bump when the journal line schema changes; loaders skip other
#: versions (same stale-tolerance contract as the artifact ledger).
JOURNAL_VERSION = 1

#: fault kinds a plan may schedule.
FAULT_KINDS = ("kill", "hang", "raise", "unpicklable", "corrupt")


# ----------------------------------------------------------------------
# picklable worker failures
class JobError(Exception):
    """A job failure that survives the process boundary intact.

    Exceptions raised inside pool workers are pickled back to the
    parent; the original traceback object does not pickle, so only the
    bare repr used to arrive.  ``JobError`` captures the *formatted*
    worker-side stack as a string at raise time — ``str(err)`` in the
    parent shows the full remote traceback.
    """

    def __init__(self, label: str, original_type: str, formatted: str):
        super().__init__(label, original_type, formatted)
        self.label = label
        self.original_type = original_type
        self.formatted = formatted

    @classmethod
    def from_exception(cls, label: str, exc: BaseException) -> "JobError":
        formatted = "".join(traceback.format_exception(
            type(exc), exc, exc.__traceback__))
        return cls(label, type(exc).__name__, formatted)

    def __str__(self) -> str:
        return (f"job {self.label!r} failed with {self.original_type}; "
                f"worker traceback:\n{self.formatted}")

    def __reduce__(self):
        return (JobError, (self.label, self.original_type, self.formatted))


class FaultInjected(RuntimeError):
    """Raised by a ``raise``-kind fault (a deliberately poisoned cell)."""


class Unpicklable:
    """Result wrapper whose pickling always fails (fault injection)."""

    def __init__(self, inner):
        self.inner = inner

    def __reduce__(self):
        raise TypeError("deliberately unpicklable result (fault injection)")


# ----------------------------------------------------------------------
# deterministic fault injection
@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``match`` is an :mod:`fnmatch` glob over the job label (e.g.
    ``"mix ws st+sv"`` or ``"mix ws-dmil *"``); ``times`` bounds how
    often the fault fires campaign-wide (claims are coordinated across
    worker processes through marker files); ``seconds`` is the hang
    duration for ``hang`` faults; ``path`` is the file glob a
    ``corrupt`` fault garbles (first sorted match).
    """

    id: str
    kind: str
    match: str = "*"
    times: int = 1
    seconds: float = 3600.0
    path: Optional[str] = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(expected one of {FAULT_KINDS})")


class FaultPlan:
    """A deterministic schedule of injected faults.

    The plan is a JSON file named by ``$REPRO_FAULT_PLAN``; worker
    processes load it during ``_init_worker`` and consult it around
    every job.  Firing is *claimed* before it happens: fault ``f`` with
    ``times=N`` owns marker slots ``f.fired.0 .. f.fired.N-1`` in the
    plan's state directory, and a worker fires only after exclusively
    creating one (``open(..., "x")`` — atomic on POSIX).  A killed
    worker leaves its claim behind, so the retried cell runs clean:
    the schedule is deterministic no matter which worker draws the job.
    """

    VERSION = 1

    def __init__(self, faults: Sequence[FaultSpec], state_dir: str,
                 seed: int = 0):
        self.faults = list(faults)
        self.state_dir = state_dir
        self.seed = seed
        ids = [f.id for f in self.faults]
        if len(set(ids)) != len(ids):
            raise ValueError("fault ids must be unique")

    # ------------------------------------------------------------------
    # (de)serialisation
    def to_file(self, path: str) -> str:
        payload = {
            "version": self.VERSION,
            "seed": self.seed,
            "state_dir": self.state_dir,
            "faults": [{k: v for k, v in {
                "id": f.id, "kind": f.kind, "match": f.match,
                "times": f.times, "seconds": f.seconds, "path": f.path,
            }.items() if v is not None} for f in self.faults],
        }
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
        return path

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        with open(path) as fh:
            payload = json.load(fh)
        if payload.get("version") != cls.VERSION:
            raise ValueError(f"unsupported fault-plan version "
                             f"{payload.get('version')!r}")
        state_dir = payload.get("state_dir") or (path + ".state")
        faults = [FaultSpec(
            id=str(entry["id"]), kind=str(entry["kind"]),
            match=str(entry.get("match", "*")),
            times=int(entry.get("times", 1)),
            seconds=float(entry.get("seconds", 3600.0)),
            path=entry.get("path"),
        ) for entry in payload.get("faults", [])]
        return cls(faults, state_dir, seed=int(payload.get("seed", 0)))

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan named by ``$REPRO_FAULT_PLAN``, or None.  Unreadable
        plans are an explicit error — a chaos run silently running
        fault-free would pass tests it should fail."""
        path = os.environ.get(FAULT_PLAN_ENV)
        if not path:
            return None
        return cls.from_file(path)

    # ------------------------------------------------------------------
    # the claim protocol
    def _claim(self, spec: FaultSpec) -> bool:
        """Exclusively claim one remaining firing of ``spec``; False
        when its ``times`` budget is exhausted."""
        os.makedirs(self.state_dir, exist_ok=True)
        for n in range(spec.times):
            marker = os.path.join(self.state_dir, f"{spec.id}.fired.{n}")
            try:
                with open(marker, "x") as fh:
                    fh.write(f"pid={os.getpid()}\n")
                return True
            except FileExistsError:
                continue
        return False

    def fired(self, fault_id: str) -> int:
        """How many times fault ``fault_id`` has fired so far."""
        pattern = os.path.join(self.state_dir, f"{fault_id}.fired.*")
        return len(globmod.glob(pattern))

    def _matching(self, label: str, kinds: Tuple[str, ...]
                  ) -> List[FaultSpec]:
        return [f for f in self.faults
                if f.kind in kinds and fnmatch.fnmatchcase(label, f.match)]

    # ------------------------------------------------------------------
    # firing
    def fire_pre(self, label: str, in_worker: bool = True) -> None:
        """Faults that strike before/while the job runs.  ``kill`` and
        ``hang`` only make sense in a sacrificial worker process — the
        serial in-process path skips them (killing the parent would
        take the campaign down with it, which is exactly what the
        resilience layer exists to prevent)."""
        for spec in self._matching(label, ("kill", "hang", "raise")):
            if spec.kind in ("kill", "hang") and not in_worker:
                continue
            if not self._claim(spec):
                continue
            if spec.kind == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            elif spec.kind == "hang":
                time.sleep(spec.seconds)
            else:
                raise FaultInjected(
                    f"fault {spec.id!r} poisoned cell {label!r}")

    def mutate_result(self, label: str, result):
        """``unpicklable`` faults wrap the finished result in a shell
        whose pickling fails, modelling a worker that computed fine but
        cannot ship its answer home."""
        for spec in self._matching(label, ("unpicklable",)):
            if self._claim(spec):
                return Unpicklable(result)
        return result

    def fire_post(self, label: str) -> None:
        """``corrupt`` faults garble one on-disk file (cache record,
        journal, artifact) after the job completes, exercising every
        reader's corrupt-tolerance path."""
        for spec in self._matching(label, ("corrupt",)):
            if not spec.path or not self._claim(spec):
                continue
            matches = sorted(globmod.glob(spec.path))
            if matches:
                with open(matches[0], "w") as fh:
                    fh.write("{corrupt")


@contextmanager
def exported_fault_plan(path: Optional[str]) -> Iterator[None]:
    """Name ``path`` in ``$REPRO_FAULT_PLAN`` for the duration of the
    block (workers started inside it load the plan); None leaves the
    environment alone."""
    if path is None:
        yield
        return
    prior = os.environ.get(FAULT_PLAN_ENV)
    os.environ[FAULT_PLAN_ENV] = path
    try:
        yield
    finally:
        if prior is None:
            os.environ.pop(FAULT_PLAN_ENV, None)
        else:
            os.environ[FAULT_PLAN_ENV] = prior


# ----------------------------------------------------------------------
# the checkpoint journal
def job_key(job) -> str:
    """Stable identity of one job: its fields (frozen dataclasses of
    str/int/bool repr deterministically: kernels, scheme, cycles, obs)
    plus a digest of the content of every profile it names
    (``runner.profile_key``), so a profile changed under the same name
    is a different job and never replays another's checkpoint.  A
    profile whose content cannot be keyed contributes its repr, whose
    pattern-factory address differs between processes; an unknown name
    contributes nothing (the job fails on it anyway)."""
    content = []
    for name in getattr(job, "kernels", None) or (job.kernel,):
        try:
            profile = get_profile(name)
        except KeyError:
            content.append(None)
            continue
        content.append(profile_key(profile) or repr(profile))
    digest = hashlib.sha256(repr(content).encode()).hexdigest()[:16]
    return f"{type(job).__name__}:{job!r}:{digest}"


def journal_key(runner: ExperimentRunner) -> str:
    """Campaign-identity fingerprint naming the journal file: config +
    settings + cache version.  Job keys already carry the per-cell
    identity, so one journal per (config, settings) is safe to share
    across campaigns — foreign cells simply never match."""
    blob = f"{CACHE_VERSION}:{runner._cfg_key}:{runner.settings!r}"
    return hashlib.md5(blob.encode()).hexdigest()[:16]


def default_journal_path(runner: ExperimentRunner) -> Optional[str]:
    """``<cache_dir>/journal/campaign-<key>.jsonl`` or None when the
    runner has no cache dir to durably write under."""
    if not runner.cache_dir:
        return None
    return os.path.join(runner.cache_dir, "journal",
                        f"campaign-{journal_key(runner)}.jsonl")


class CampaignJournal:
    """Append-only checkpoint journal of completed campaign cells.

    One JSON object per line.  A ``done`` entry carries the cell's
    pickled result (base64) plus its SHA-256 fingerprint; a
    ``quarantine`` entry records a cell abandoned after the retry
    budget.  Appends are a single buffered write + flush + fsync, so a
    crash can tear at most the final line — and the loader treats any
    unparsable line, wrong-version entry or fingerprint mismatch as
    "cell not checkpointed", never as an error.  Resume therefore
    re-runs exactly the cells it cannot prove finished.
    """

    def __init__(self, path: str):
        self.path = path
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)

    def reset(self) -> None:
        """Start a fresh campaign: drop any previous journal."""
        try:
            os.unlink(self.path)
        except OSError:
            pass

    # ------------------------------------------------------------------
    def _append(self, entry: Dict[str, object]) -> None:
        line = json.dumps(entry, sort_keys=True)
        try:
            with open(self.path, "a") as fh:
                fh.write(line + "\n")
                fh.flush()
                os.fsync(fh.fileno())
        except OSError:
            # The journal is a recovery aid, never a correctness
            # dependency of the in-flight campaign.
            pass

    def record_done(self, job, result) -> None:
        blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        self._append({
            "v": JOURNAL_VERSION,
            "kind": "done",
            "key": job_key(job),
            "label": job.label,
            "sha": hashlib.sha256(blob).hexdigest(),
            "blob": base64.b64encode(blob).decode("ascii"),
        })

    def record_quarantine(self, job, faults: Sequence[str]) -> None:
        self._append({
            "v": JOURNAL_VERSION,
            "kind": "quarantine",
            "key": job_key(job),
            "label": job.label,
            "faults": list(faults),
        })

    # ------------------------------------------------------------------
    def load(self) -> Tuple[Dict[str, object], Dict[str, List[str]]]:
        """Verified checkpoints: ``(done, quarantined)`` keyed by job
        key.  Entries replay in order — a later ``done`` supersedes an
        earlier ``quarantine`` of the same cell (the resumed run
        finished it)."""
        done: Dict[str, object] = {}
        quarantined: Dict[str, List[str]] = {}
        try:
            with open(self.path) as fh:
                lines = fh.readlines()
        except OSError:
            return done, quarantined
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # torn/corrupt line: not checkpointed
            if not isinstance(entry, dict) \
                    or entry.get("v") != JOURNAL_VERSION:
                continue
            key = entry.get("key")
            if not isinstance(key, str):
                continue
            kind = entry.get("kind")
            if kind == "done":
                try:
                    blob = base64.b64decode(entry["blob"],
                                            validate=True)
                except (KeyError, ValueError, TypeError):
                    continue
                if hashlib.sha256(blob).hexdigest() != entry.get("sha"):
                    continue  # corrupted checkpoint: re-run the cell
                try:
                    done[key] = pickle.loads(blob)
                except Exception:
                    continue
                quarantined.pop(key, None)
            elif kind == "quarantine":
                faults = entry.get("faults")
                quarantined[key] = (list(faults)
                                    if isinstance(faults, list) else [])
                done.pop(key, None)
        return done, quarantined


# ----------------------------------------------------------------------
# policy and per-cell accounting
@dataclass(frozen=True)
class ResiliencePolicy:
    """Retry/timeout/quarantine behaviour of one batch.

    ``timeout_s`` is the per-attempt wall-clock budget (None disables
    preemption); a cell gets ``retries`` extra attempts after its
    first, sleeping ``backoff_s * backoff_factor**(attempt-1)`` between
    them; once the budget is gone the cell is quarantined (campaign
    continues) unless ``quarantine`` is False (the first exhausted cell
    re-raises and aborts the batch, as a batch without a policy does).
    """

    timeout_s: Optional[float] = None
    retries: int = 2
    backoff_s: float = 0.25
    backoff_factor: float = 2.0
    quarantine: bool = True

    def backoff_after(self, attempt: int) -> float:
        """Seconds to wait before re-dispatching after failed attempt
        number ``attempt`` (1-based)."""
        return self.backoff_s * (self.backoff_factor ** (attempt - 1))

    @property
    def max_attempts(self) -> int:
        return max(1, self.retries + 1)


@dataclass(frozen=True)
class Quarantined:
    """Placeholder result of a cell abandoned after the retry budget."""

    label: str
    faults: Tuple[str, ...] = ()


@dataclass
class CellReport:
    """Degradation accounting for one unique job."""

    label: str
    attempts: int = 0
    faults: List[str] = field(default_factory=list)
    resumed: bool = False
    quarantined: bool = False


class ResilienceReport:
    """What the executor had to absorb for one batch.

    A plain class with per-instance state: the report is built
    parent-side and handed back to the caller, never shared through
    the class object (REPRO-R002 discipline).
    """

    def __init__(self, cells: Optional[Dict[str, CellReport]] = None):
        self.cells: Dict[str, CellReport] = dict(cells) if cells else {}

    def cell(self, job) -> CellReport:
        key = job_key(job)
        if key not in self.cells:
            self.cells[key] = CellReport(label=job.label)
        return self.cells[key]

    @property
    def retries(self) -> int:
        return sum(max(0, c.attempts - 1) for c in self.cells.values())

    @property
    def quarantined(self) -> List[str]:
        return [c.label for c in self.cells.values() if c.quarantined]

    @property
    def resumed(self) -> int:
        return sum(1 for c in self.cells.values() if c.resumed)

    def merged(self, other: "ResilienceReport") -> "ResilienceReport":
        out = ResilienceReport(dict(self.cells))
        out.cells.update(other.cells)
        return out

    def summary(self) -> str:
        bits = [f"{len(self.cells)} cells"]
        if self.resumed:
            bits.append(f"{self.resumed} resumed from journal")
        if self.retries:
            bits.append(f"{self.retries} retries")
        quarantined = self.quarantined
        if quarantined:
            bits.append(f"{len(quarantined)} quarantined "
                        f"({', '.join(quarantined)})")
        return "resilience: " + ", ".join(bits)
