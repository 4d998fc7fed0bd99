"""Experiment runner: isolated profiling (cached), scheme resolution,
and concurrent-workload execution with the paper's metrics.

Scheme names follow the paper's labels:

==================  =====================================================
``spatial``         spatial multitasking [2]
``leftover``        Hyper-Q-style left-over policy
``even``            naive even intra-SM TB split
``ws``              Warped-Slicer TB partition (sweet spot)
``ws-rbmi``         + round-robin balanced memory issuing
``ws-qbmi``         + quota-based balanced memory issuing (§3.2)
``ws-dmil``         + dynamic memory instruction limiting (§3.3.2)
``ws-gdmil``        + *global* DMIL (one MILG set, broadcast; §3.3.2)
``ws-qbmi+dmil``    + both
``ws-ucp``          + UCP L1D way partitioning (§3.1)
``ws-smil:3,1``     + static limits (Inf spelled ``inf``) (§3.3.1)
``ws-byp:0,1``      + L1D bypassing for flagged kernels (§4.5)
``dws`` (+suffix)   *dynamic* Warped-Slicer: online profiling (§2.5)
``smk-p``           SMK DRF partition only
``smk-p+w``         SMK-(P+W): DRF + warp-instruction quotas [45]
``smk-p+qbmi``      SMK-P + QBMI
``smk-p+dmil``      SMK-P + DMIL
==================  =====================================================

Isolated runs (needed both for normalisation and for Warped-Slicer's
scalability curves) are cached in memory and optionally on disk
(``.repro_cache``), keyed by profile calibration, configuration and
cycle budget.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.config import GPUConfig, scaled_config
from repro.core.arbiter import SchemeConfig
from repro.cke.leftover import leftover_partition
from repro.cke.partition import even_partition
from repro.cke.smk import drf_partition, smk_quotas
from repro.cke.spatial import spatial_masks, spatial_tb_limits
from repro.cke.dynamic_ws import DynamicWarpedSlicer
from repro.cke.warped_slicer import ScalabilityCurve, sweet_spot
from repro.metrics.speedup import antt, fairness, normalized_ipcs, weighted_speedup
from repro.sim.engine import GPU, make_launches
from repro.sim.stats import RunResult
from repro.workloads.kernel import KernelProfile
from repro.workloads.mixes import WorkloadMix
from repro.workloads.profiles import get_profile
from repro.workloads.trace import configure_disk_cache, profile_fingerprint

#: bump when profile calibration or simulator timing changes, to
#: invalidate the on-disk isolated-run cache.
CACHE_VERSION = 3


@dataclass(frozen=True)
class RunnerSettings:
    """Cycle budgets and seeding for one experiment campaign."""

    iso_cycles: int = 8000
    curve_cycles: int = 6000
    concurrent_cycles: int = 12000
    seed: int = 0


@dataclass
class IsoRecord:
    """Cached scalars from one isolated run."""

    name: str
    tbs: int
    ipc: float
    l1d_miss_rate: float
    l1d_rsfail_rate: float
    lsu_stall_pct: float
    alu_utilization: float
    sfu_utilization: float
    compute_utilization: float


@dataclass
class WorkloadOutcome:
    """Metrics of one concurrent run under one scheme."""

    mix_name: str
    mix_class: str
    scheme: str
    partition: Tuple[int, ...]
    iso_ipcs: List[float]
    shared_ipcs: List[float]
    norm_ipcs: List[float]
    weighted_speedup: float
    antt: float
    fairness: float
    result: RunResult = field(repr=False)

    def kernel_norm(self, index: int) -> float:
        return self.norm_ipcs[index]


def profile_key(profile: KernelProfile) -> Optional[Tuple]:
    """Everything about ``profile`` a simulation reads: its name, the
    stream fingerprint (instruction mix, iteration count, address
    pattern) and the timing-only fields the fingerprint leaves out
    (MLP and the per-TB resource footprint).  ``None`` for a profile
    whose pattern has no ``trace_signature``: its content cannot be
    keyed, so its runs are never cached."""
    fingerprint = profile_fingerprint(profile)
    if fingerprint is None:
        return None
    return (profile.name, fingerprint, profile.mlp, profile.threads_per_tb,
            profile.regs_per_thread, profile.smem_per_tb)


def _config_key(config: GPUConfig) -> str:
    blob = json.dumps(asdict(config), sort_keys=True, default=str)
    return hashlib.md5(blob.encode()).hexdigest()[:16]


def _atomic_write_json(path: str, payload) -> None:
    """Write ``payload`` so concurrent readers (and writers) never see
    a partial record: dump to a same-directory temp file, then
    ``os.replace`` it into place (atomic on POSIX)."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except OSError:
        # The cache is an optimisation, never a correctness dependency.
        try:
            os.unlink(tmp)
        except OSError:
            pass


def _read_json_record(path: str):
    """Load a cache record, treating unreadable/corrupt files (e.g. a
    half-written record from a crashed run) as a cache miss."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


class ExperimentRunner:
    """Shared state (config + caches) for a set of experiments."""

    def __init__(self, config: Optional[GPUConfig] = None,
                 settings: Optional[RunnerSettings] = None,
                 cache_dir: Optional[str] = None):
        self.config = config or scaled_config()
        self.settings = settings or RunnerSettings()
        self.cache_dir = cache_dir
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)
            # Compiled kernel-trace chunks live beside the result cache
            # under a versioned directory, so the CACHE_VERSION bump
            # that retires stale isolated-run records retires stale
            # traces with it.  Pool workers inherit this through
            # ``parallel._init_worker`` building their runner here.
            configure_disk_cache(
                os.path.join(cache_dir, f"traces-v{CACHE_VERSION}"))
        self._iso_cache: Dict[Tuple, IsoRecord] = {}
        self._curve_cache: Dict[Tuple, ScalabilityCurve] = {}
        self._cfg_key = _config_key(self.config)

    # ------------------------------------------------------------------
    # isolated runs
    def _iso_key(self, profile: KernelProfile, tbs: int,
                 cycles: int) -> Optional[Tuple]:
        content = profile_key(profile)
        if content is None:
            return None
        return (CACHE_VERSION, self._cfg_key, content, tbs, cycles,
                self.settings.seed)

    def _curve_key(self, profile: KernelProfile) -> Optional[Tuple]:
        content = profile_key(profile)
        if content is None:
            return None
        return (self._cfg_key, content, self.settings.curve_cycles,
                self.settings.seed, CACHE_VERSION)

    def _disk_path(self, key: Optional[Tuple]) -> Optional[str]:
        if not self.cache_dir or key is None:
            return None
        digest = hashlib.md5(repr(key).encode()).hexdigest()
        return os.path.join(self.cache_dir, f"iso-{digest}.json")

    def isolated(self, profile: KernelProfile, tbs: Optional[int] = None,
                 cycles: Optional[int] = None) -> IsoRecord:
        """Run (or recall) one kernel alone at ``tbs`` TBs per SM."""
        if tbs is None:
            tbs = profile.max_tbs_per_sm(self.config)
        if tbs < 1:
            raise ValueError(f"{profile.name} cannot fit a single TB")
        cycles = cycles or self.settings.iso_cycles
        key = self._iso_key(profile, tbs, cycles)
        if key in self._iso_cache:
            return self._iso_cache[key]
        path = self._disk_path(key)
        if path and os.path.exists(path):
            payload = _read_json_record(path)
            if payload is not None:
                try:
                    record = IsoRecord(**payload)
                except TypeError:
                    record = None  # stale/foreign schema: recompute
                if record is not None:
                    self._iso_cache[key] = record
                    return record
        result = self._run_isolated(profile, tbs, cycles)
        record = IsoRecord(
            name=profile.name, tbs=tbs, ipc=result.ipc(0),
            l1d_miss_rate=result.l1d_miss_rate(0),
            l1d_rsfail_rate=result.l1d_rsfail_rate(0),
            lsu_stall_pct=result.lsu_stall_pct(),
            alu_utilization=result.alu_utilization(),
            sfu_utilization=result.sfu_utilization(),
            compute_utilization=result.compute_utilization(),
        )
        if key is not None:
            self._iso_cache[key] = record
        if path:
            _atomic_write_json(path, asdict(record))
        return record

    def _run_isolated(self, profile: KernelProfile, tbs: int,
                      cycles: int, timeline_interval: Optional[int] = None
                      ) -> RunResult:
        launches = make_launches([profile], [tbs], self.config,
                                 seed=self.settings.seed)
        gpu = GPU(self.config, launches, SchemeConfig(),
                  timeline_interval=timeline_interval)
        return gpu.run(cycles)

    def isolated_result(self, profile: KernelProfile,
                        tbs: Optional[int] = None,
                        cycles: Optional[int] = None,
                        timeline_interval: Optional[int] = None) -> RunResult:
        """Uncached isolated run returning the full RunResult (used by
        timeline experiments such as Figure 6a/6b)."""
        if tbs is None:
            tbs = profile.max_tbs_per_sm(self.config)
        return self._run_isolated(profile, tbs,
                                  cycles or self.settings.iso_cycles,
                                  timeline_interval)

    def curve(self, profile: KernelProfile) -> ScalabilityCurve:
        """Scalability curve (Warped-Slicer profiling, Figure 3a)."""
        key = self._curve_key(profile)
        if key in self._curve_cache:
            return self._curve_cache[key]
        max_tbs = profile.max_tbs_per_sm(self.config)
        points = [self.isolated(profile, tbs, self.settings.curve_cycles).ipc
                  for tbs in range(1, max_tbs + 1)]
        curve = ScalabilityCurve(profile.name, tuple(points))
        if key is not None:
            self._curve_cache[key] = curve
        return curve

    # ------------------------------------------------------------------
    # parallel campaigns (see repro.harness.parallel)
    def prefetch(self, jobs, workers: Optional[int] = None,
                 progress=None) -> None:
        """Execute a batch of jobs (``IsoJob``/``CurveJob``/``MixJob``)
        in parallel and install the cacheable results, so subsequent
        serial calls are cache hits."""
        from repro.harness.parallel import run_jobs
        run_jobs(self, jobs, workers=workers, progress=progress)

    def run_campaign(self, mixes: Sequence[WorkloadMix],
                     schemes: Sequence[str],
                     workers: Optional[int] = None,
                     cycles: Optional[int] = None,
                     obs: bool = False,
                     progress=None,
                     phase_interval: Optional[int] = None,
                     artifacts_dir: Optional[str] = None,
                     policy=None,
                     journal_path: Optional[str] = None,
                     resume: bool = False,
                     fault_plan: Optional[str] = None,
                     report=None) -> List[WorkloadOutcome]:
        """Run every mix under every scheme, fanned over worker
        processes; outcomes in mix-major grid order, bit-identical to
        the serial loop.

        ``obs=True`` attaches a stall-attribution report to every
        cell's result; ``phase_interval`` also samples interval
        time-series + the adaptation event log in every cell
        (:mod:`repro.obs.timeline`); ``artifacts_dir`` writes one
        versioned run artifact per cell plus a ``ledger.json`` index
        (:mod:`repro.obs.ledger`); ``progress`` (e.g. a
        :class:`~repro.obs.telemetry.CampaignTelemetry`) receives one
        :class:`~repro.obs.telemetry.JobHeartbeat` per finished job.

        ``policy`` (a :class:`~repro.harness.resilience.ResiliencePolicy`)
        adds per-job timeouts, retry with backoff and quarantine
        instead of abort, and a checkpoint journal under the cache dir
        that ``resume=True`` replays so only unfinished/quarantined
        cells re-run; quarantined cells appear as
        :class:`~repro.harness.resilience.Quarantined` placeholders and
        ``report`` (a :class:`~repro.harness.resilience.ResilienceReport`)
        collects the degradation.  See
        :func:`repro.harness.parallel.run_campaign`."""
        from repro.harness.parallel import run_campaign
        return run_campaign(self, mixes, schemes, workers=workers,
                            cycles=cycles, obs=obs, progress=progress,
                            phase_interval=phase_interval,
                            artifacts_dir=artifacts_dir, policy=policy,
                            journal_path=journal_path, resume=resume,
                            fault_plan=fault_plan, report=report)

    # ------------------------------------------------------------------
    # scheme resolution
    def resolve_scheme(self, name: str, profiles: Sequence[KernelProfile]
                       ) -> Tuple[List[int], Optional[List[Set[int]]], SchemeConfig]:
        """Translate a scheme name into (tb_limits, sm_masks, stack)."""
        name = name.lower()
        masks: Optional[List[Set[int]]] = None

        if name == "spatial":
            masks = spatial_masks(len(profiles), self.config)
            return spatial_tb_limits(profiles, self.config), masks, SchemeConfig()
        if name == "leftover":
            return list(leftover_partition(profiles, self.config)), None, SchemeConfig()
        if name == "even":
            return list(even_partition(profiles, self.config)), None, SchemeConfig()

        if name.startswith("ws"):
            curves = [self.curve(p) for p in profiles]
            partition = sweet_spot(profiles, curves, self.config)
            stack = self._stack_for(name[2:], profiles)
            return list(partition), None, stack
        if name.startswith("smk"):
            partition = drf_partition(profiles, self.config)
            suffix = name[len("smk"):]
            if suffix in ("-p+w", "+w"):
                ipcs = [self.isolated(p).ipc for p in profiles]
                stack = SchemeConfig(smk_quotas=smk_quotas(ipcs))
            elif suffix in ("-p", ""):
                stack = SchemeConfig()
            elif suffix.startswith("-p+"):
                stack = self._stack_for("-" + suffix[len("-p+"):], profiles)
            else:
                raise ValueError(f"unknown SMK variant {name!r}")
            return list(partition), None, stack
        raise ValueError(f"unknown scheme {name!r}")

    def _stack_for(self, suffix: str, profiles: Sequence[KernelProfile]
                   ) -> SchemeConfig:
        """Parse the mechanism suffix after the TB-partition prefix,
        e.g. ``-qbmi+dmil`` or ``-smil:3,1``."""
        suffix = suffix.lstrip("-")
        if not suffix:
            return SchemeConfig()
        kwargs: Dict[str, object] = {}
        for token in suffix.split("+"):
            if token == "rbmi":
                kwargs["bmi"] = "rbmi"
            elif token == "qbmi":
                kwargs["bmi"] = "qbmi"
                kwargs["qbmi_init_req_per_minst"] = tuple(
                    p.reqs_per_minst for p in profiles)
            elif token == "dmil":
                kwargs["mil"] = "dmil"
            elif token == "gdmil":
                kwargs["mil"] = "gdmil"
            elif token == "ucp":
                kwargs["ucp"] = True
            elif token.startswith("byp:"):
                flags = tuple(part.strip() in ("1", "true")
                              for part in token[len("byp:"):].split(","))
                kwargs["l1d_bypass"] = flags
            elif token.startswith("smil:"):
                limits = tuple(
                    None if part in ("inf", "none") else int(part)
                    for part in token[len("smil:"):].split(","))
                kwargs["mil"] = "smil"
                kwargs["smil_limits"] = limits
            else:
                raise ValueError(f"unknown scheme token {token!r}")
        return SchemeConfig(**kwargs)

    # ------------------------------------------------------------------
    # concurrent runs
    def run_mix_with_stack(self, mix: WorkloadMix, stack: SchemeConfig,
                           partition_scheme: str = "ws",
                           cycles: Optional[int] = None,
                           timeline_interval: Optional[int] = None,
                           obs=None) -> WorkloadOutcome:
        """Run a workload with an explicit mechanism stack on top of a
        named TB-partitioning scheme — the hook ablation studies use
        for stacks the name grammar cannot express."""
        profiles = list(mix.profiles)
        tb_limits, masks, _ = self.resolve_scheme(partition_scheme, profiles)
        return self._run(mix, f"{partition_scheme}:{stack.describe()}",
                         tb_limits, masks, stack, cycles, timeline_interval,
                         obs=obs)

    def run_mix(self, mix: WorkloadMix, scheme: str,
                cycles: Optional[int] = None,
                timeline_interval: Optional[int] = None,
                obs=None) -> WorkloadOutcome:
        """Run one workload under one scheme and compute the metrics.

        ``obs`` enables observability for the concurrent run (``True``,
        an ``ObsOptions`` or an ``Observability``); the outcome's
        ``result.obs`` then carries the stall/trace report."""
        if scheme.lower().startswith("dws"):
            if obs:
                raise ValueError(
                    "observability is not supported for dynamic "
                    "Warped-Slicer runs (profiling phases re-launch "
                    "the engine mid-run)")
            return self._run_dynamic_ws(mix, scheme, cycles)
        profiles = list(mix.profiles)
        tb_limits, masks, stack = self.resolve_scheme(scheme, profiles)
        return self._run(mix, scheme, tb_limits, masks, stack, cycles,
                         timeline_interval, obs=obs)

    def _run_dynamic_ws(self, mix: WorkloadMix, scheme: str,
                        cycles: Optional[int]) -> WorkloadOutcome:
        """Dynamic Warped-Slicer: profile online, reconfigure, measure.

        Metrics are computed over the post-reconfiguration measurement
        window only (the paper reports steady-state numbers); the
        attached RunResult is cumulative over the whole run.
        """
        profiles = list(mix.profiles)
        stack = self._stack_for(scheme[len("dws"):], profiles)
        slicer = DynamicWarpedSlicer(profiles, self.config, stack,
                                     seed=self.settings.seed)
        dyn = slicer.execute(cycles or self.settings.concurrent_cycles)
        iso = [self.isolated(p).ipc for p in profiles]
        shared = [dyn.window_ipc(slot) for slot in range(len(profiles))]
        norms = normalized_ipcs(shared, iso)
        return WorkloadOutcome(
            mix_name=mix.name,
            mix_class=mix.mix_class,
            scheme=scheme,
            partition=tuple(dyn.partition),
            iso_ipcs=iso,
            shared_ipcs=shared,
            norm_ipcs=norms,
            weighted_speedup=weighted_speedup(norms),
            antt=antt(norms),
            fairness=fairness(norms),
            result=dyn.result,
        )

    def _run(self, mix: WorkloadMix, scheme_label: str, tb_limits, masks,
             stack: SchemeConfig, cycles: Optional[int],
             timeline_interval: Optional[int], obs=None) -> WorkloadOutcome:
        profiles = list(mix.profiles)
        launches = make_launches(profiles, tb_limits, self.config,
                                 sm_masks=masks, seed=self.settings.seed)
        gpu = GPU(self.config, launches, stack,
                  timeline_interval=timeline_interval, obs=obs)
        result = gpu.run(cycles or self.settings.concurrent_cycles)
        iso = [self.isolated(p).ipc for p in profiles]
        # Spatial multitasking concentrates each kernel on a subset of
        # SMs; IPC totals are machine-wide either way, so normalisation
        # against whole-machine isolated IPC is consistent across
        # schemes (as in the paper).
        shared = [result.ipc(slot) for slot in range(len(profiles))]
        norms = normalized_ipcs(shared, iso)
        return WorkloadOutcome(
            mix_name=mix.name,
            mix_class=mix.mix_class,
            scheme=scheme_label,
            partition=tuple(tb_limits),
            iso_ipcs=iso,
            shared_ipcs=shared,
            norm_ipcs=norms,
            weighted_speedup=weighted_speedup(norms),
            antt=antt(norms),
            fairness=fairness(norms),
            result=result,
        )


def run_pair(a: str, b: str, scheme="ws",
             config: Optional[GPUConfig] = None,
             cycles: Optional[int] = None) -> WorkloadOutcome:
    """Convenience one-shot: run benchmarks ``a``+``b`` under a scheme.

    ``scheme`` may be a scheme name (see module docstring) or a
    :class:`SchemeConfig` (run with the Warped-Slicer partition).
    """
    runner = ExperimentRunner(config)
    mix = WorkloadMix((get_profile(a), get_profile(b)))
    if isinstance(scheme, SchemeConfig):
        profiles = list(mix.profiles)
        curves = [runner.curve(p) for p in profiles]
        partition = sweet_spot(profiles, curves, runner.config)
        launches = make_launches(profiles, list(partition), runner.config,
                                 seed=runner.settings.seed)
        gpu = GPU(runner.config, launches, scheme)
        result = gpu.run(cycles or runner.settings.concurrent_cycles)
        iso = [runner.isolated(p).ipc for p in profiles]
        shared = [result.ipc(i) for i in range(len(profiles))]
        norms = normalized_ipcs(shared, iso)
        return WorkloadOutcome(mix.name, mix.mix_class, scheme.describe(),
                               tuple(partition), iso, shared, norms,
                               weighted_speedup(norms), antt(norms),
                               fairness(norms), result)
    return runner.run_mix(mix, scheme, cycles=cycles)
