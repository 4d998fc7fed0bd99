"""One driver per paper table/figure (see DESIGN.md §4).

Every driver takes an :class:`~repro.harness.runner.ExperimentRunner`
(so isolated-profiling runs are shared and cached across drivers) and
returns plain data structures that the benches print and that
``EXPERIMENTS.md`` records.  Cycle budgets scale through the runner's
settings, so the same drivers serve quick CI benches and longer
campaigns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cke.warped_slicer import sweet_spot, theoretical_weighted_speedup
from repro.core.bmi import QuotaBMI
from repro.core.mil import MILG
from repro.harness.reporting import geomean
from repro.harness.runner import ExperimentRunner, WorkloadOutcome
from repro.workloads.mixes import (
    WorkloadMix,
    mix,
    paper_pairs,
    representative_pairs,
    representative_triples,
)
from repro.workloads.profiles import ALL_PROFILES

#: scheme sets used by the main-result figures.
WS_SCHEMES = ("spatial", "ws", "ws-qbmi", "ws-dmil")
SMK_SCHEMES = ("smk-p+w", "smk-p+qbmi", "smk-p+dmil")


# ----------------------------------------------------------------------
# Table 2 / Figure 2 — workload characterisation
def table2_characteristics(runner: ExperimentRunner) -> List[Dict[str, object]]:
    """Per-benchmark characteristics (paper Table 2), measured on the
    scaled machine, with the paper's reference values alongside."""
    rows = []
    for profile in ALL_PROFILES:
        iso = runner.isolated(profile)
        occ = profile.occupancy(runner.config)
        rows.append({
            "name": profile.name,
            "rf_oc": occ["rf"], "smem_oc": occ["smem"],
            "thread_oc": occ["threads"], "tb_oc": occ["tbs"],
            "cinst_per_minst": profile.cinst_per_minst,
            "req_per_minst": profile.reqs_per_minst,
            "l1d_miss_rate": iso.l1d_miss_rate,
            "l1d_rsfail_rate": iso.l1d_rsfail_rate,
            "lsu_stall_pct": iso.lsu_stall_pct,
            "type": profile.kind,
            "paper": profile.paper,
        })
    return rows


def classify_measured(rows: Sequence[Dict[str, object]],
                      stall_threshold: float = 0.20) -> Dict[str, str]:
    """The paper's classification rule: >20% LSU stall cycles ⇒
    memory-intensive.  On the scaled machine the same rule separates
    the classes (C kernels sit well below, M kernels well above)."""
    return {str(r["name"]): ("M" if float(r["lsu_stall_pct"]) > stall_threshold
                             else "C")
            for r in rows}


def figure2_utilization(runner: ExperimentRunner) -> List[Dict[str, float]]:
    """ALU/SFU utilization and LSU stall fraction per benchmark,
    sorted by decreasing ALU utilization (paper Figure 2)."""
    rows = []
    for profile in ALL_PROFILES:
        iso = runner.isolated(profile)
        rows.append({
            "name": profile.name,
            "alu_utilization": iso.alu_utilization,
            "sfu_utilization": iso.sfu_utilization,
            "lsu_stall_pct": iso.lsu_stall_pct,
        })
    rows.sort(key=lambda r: -float(r["alu_utilization"]))
    return rows


# ----------------------------------------------------------------------
# Figure 3 — scalability curves and the sweet spot
@dataclass
class SweetSpotResult:
    pair: str
    curves: Dict[str, Tuple[float, ...]]
    partition: Tuple[int, ...]
    theoretical_ws: float


def figure3_sweet_spot(runner: ExperimentRunner, a: str = "bp",
                       b: str = "sv") -> SweetSpotResult:
    m = mix(a, b)
    profiles = list(m.profiles)
    curves = [runner.curve(p) for p in profiles]
    partition = sweet_spot(profiles, curves, runner.config)
    return SweetSpotResult(
        pair=m.name,
        curves={c.kernel: c.ipc_by_tbs for c in curves},
        partition=tuple(partition),
        theoretical_ws=theoretical_weighted_speedup(curves, partition),
    )


# ----------------------------------------------------------------------
# Figure 4 — theoretical vs achieved weighted speedup
@dataclass
class GapRow:
    mix_name: str
    mix_class: str
    theoretical: float
    achieved: float


def figure4_gap(runner: ExperimentRunner,
                pairs: Optional[Sequence[WorkloadMix]] = None,
                cycles: Optional[int] = None) -> List[GapRow]:
    pairs = list(pairs) if pairs is not None else representative_pairs(3)
    rows = []
    for m in pairs:
        profiles = list(m.profiles)
        curves = [runner.curve(p) for p in profiles]
        partition = sweet_spot(profiles, curves, runner.config)
        theo = theoretical_weighted_speedup(curves, partition)
        outcome = runner.run_mix(m, "ws", cycles=cycles)
        rows.append(GapRow(m.name, m.mix_class, theo, outcome.weighted_speedup))
    return rows


def gap_by_class(rows: Sequence[GapRow]) -> Dict[str, Tuple[float, float]]:
    """Geometric means per class (paper Figure 4 bars)."""
    classes: Dict[str, List[GapRow]] = {}
    for row in rows:
        classes.setdefault(row.mix_class, []).append(row)
    classes["ALL"] = list(rows)
    return {
        cls: (geomean([r.theoretical for r in rs]),
              geomean([r.achieved for r in rs]))
        for cls, rs in classes.items()
    }


# ----------------------------------------------------------------------
# generic scheme-comparison sweeps (Figures 5, 11, 12, 13)
@dataclass
class SchemeSweep:
    """Outcomes for a set of workloads × a set of schemes."""

    schemes: Tuple[str, ...]
    outcomes: Dict[str, Dict[str, WorkloadOutcome]] = field(default_factory=dict)

    def add(self, outcome: WorkloadOutcome) -> None:
        self.outcomes.setdefault(outcome.mix_name, {})[outcome.scheme] = outcome

    def mixes(self) -> List[str]:
        return list(self.outcomes)

    def outcome(self, mix_name: str, scheme: str) -> WorkloadOutcome:
        return self.outcomes[mix_name][scheme]

    def class_of(self, mix_name: str) -> str:
        return next(iter(self.outcomes[mix_name].values())).mix_class

    def classes(self) -> List[str]:
        seen: List[str] = []
        for name in self.outcomes:
            cls = self.class_of(name)
            if cls not in seen:
                seen.append(cls)
        return seen

    def mean_metric(self, scheme: str, metric: str,
                    mix_class: Optional[str] = None) -> float:
        values = [getattr(per_mix[scheme], metric)
                  for name, per_mix in self.outcomes.items()
                  if mix_class is None or self.class_of(name) == mix_class]
        return geomean(values)

    def improvement(self, scheme: str, baseline: str,
                    metric: str = "weighted_speedup") -> float:
        """Mean relative improvement of ``scheme`` over ``baseline``."""
        return (self.mean_metric(scheme, metric)
                / self.mean_metric(baseline, metric) - 1.0)


def scheme_sweep(runner: ExperimentRunner, schemes: Sequence[str],
                 workloads: Sequence[WorkloadMix],
                 cycles: Optional[int] = None,
                 policy=None, resume: bool = False) -> SchemeSweep:
    """The workloads×schemes grid behind every scheme-comparison
    figure, fanned over worker processes when the host allows (the
    pool size resolves from ``$REPRO_BENCH_WORKERS``/CPU count; one
    worker degrades to the serial loop).  Outcomes are bit-identical
    to serial execution either way.

    ``policy`` (a :class:`~repro.harness.resilience.ResiliencePolicy`)
    retries then quarantines crashed/hung cells instead of stranding
    the sweep, and with ``resume`` checkpoints completed cells to the
    journal and re-runs only the unfinished remainder.  Quarantined
    cells are simply absent from the sweep (their metrics never
    existed), so downstream geomeans stay well-defined."""
    from repro.harness.resilience import Quarantined
    sweep = SchemeSweep(tuple(schemes))
    for outcome in runner.run_campaign(list(workloads), list(schemes),
                                       cycles=cycles, policy=policy,
                                       resume=resume):
        if not isinstance(outcome, Quarantined):
            sweep.add(outcome)
    return sweep


def figure5_cache_partitioning(runner: ExperimentRunner,
                               cycles: Optional[int] = None) -> SchemeSweep:
    """WS vs WS + UCP L1D partitioning on the six case-study pairs."""
    return scheme_sweep(runner, ("ws", "ws-ucp"), paper_pairs(), cycles)


def figure11_qbmi_vs_dmil(runner: ExperimentRunner,
                          cycles: Optional[int] = None) -> SchemeSweep:
    return scheme_sweep(runner, ("ws-qbmi", "ws-dmil", "ws-qbmi+dmil"),
                        paper_pairs(), cycles)


def figure12_main(runner: ExperimentRunner,
                  pairs: Optional[Sequence[WorkloadMix]] = None,
                  cycles: Optional[int] = None) -> SchemeSweep:
    pairs = list(pairs) if pairs is not None else representative_pairs(3)
    return scheme_sweep(runner, WS_SCHEMES, pairs, cycles)


def figure13_smk(runner: ExperimentRunner,
                 pairs: Optional[Sequence[WorkloadMix]] = None,
                 cycles: Optional[int] = None) -> SchemeSweep:
    pairs = list(pairs) if pairs is not None else representative_pairs(3)
    return scheme_sweep(runner, SMK_SCHEMES, pairs, cycles)


def figure14_three_kernels(runner: ExperimentRunner,
                           cycles: Optional[int] = None) -> SchemeSweep:
    return scheme_sweep(runner, ("ws", "ws-qbmi", "ws-dmil"),
                        representative_triples(), cycles)


# ----------------------------------------------------------------------
# Figures 6 and 8 — timelines
def figure6_timelines(runner: ExperimentRunner, a: str = "bp", b: str = "sv",
                      interval: int = 1000,
                      cycles: Optional[int] = None) -> Dict[str, List[int]]:
    """L1D accesses per interval: each kernel alone, then concurrent."""
    pa, pb = mix(a, b).profiles
    iso_a = runner.isolated_result(pa, timeline_interval=interval,
                                   cycles=cycles)
    iso_b = runner.isolated_result(pb, timeline_interval=interval,
                                   cycles=cycles)
    shared = runner.run_mix(mix(a, b), "ws", cycles=cycles,
                            timeline_interval=interval)
    timeline = shared.result.timeline
    assert timeline is not None
    return {
        f"{a}_alone": iso_a.timeline.get("l1d_access", 0),
        f"{b}_alone": iso_b.timeline.get("l1d_access", 0),
        f"{a}_shared": timeline.get("l1d_access", 0),
        f"{b}_shared": timeline.get("l1d_access", 1),
    }


def figure8_issue_timelines(runner: ExperimentRunner, a: str = "bp",
                            b: str = "sv", interval: int = 1000,
                            cycles: Optional[int] = None
                            ) -> Dict[str, Dict[str, object]]:
    """Warp instructions issued per interval and normalized IPC under
    WS, WS-RBMI and WS-QBMI (paper Figure 8)."""
    out: Dict[str, Dict[str, object]] = {}
    for scheme in ("ws", "ws-rbmi", "ws-qbmi"):
        outcome = runner.run_mix(mix(a, b), scheme, cycles=cycles,
                                 timeline_interval=interval)
        timeline = outcome.result.timeline
        assert timeline is not None
        out[scheme] = {
            f"{a}_insts": timeline.get("insts", 0),
            f"{b}_insts": timeline.get("insts", 1),
            "norm_ipc": tuple(outcome.norm_ipcs),
        }
    return out


# ----------------------------------------------------------------------
# Figure 9 — the SMIL sweep
def figure9_smil_sweep(runner: ExperimentRunner, a: str, b: str,
                       limits: Sequence[Optional[int]] = (1, 2, 3, 4, 6, 8, None),
                       cycles: Optional[int] = None
                       ) -> Dict[Tuple[str, str], float]:
    """Weighted speedup over a grid of (Limit_k0, Limit_k1)."""
    surface: Dict[Tuple[str, str], float] = {}
    for la in limits:
        for lb in limits:
            spec = f"ws-smil:{'inf' if la is None else la},{'inf' if lb is None else lb}"
            outcome = runner.run_mix(mix(a, b), spec, cycles=cycles)
            surface[(str(la), str(lb))] = outcome.weighted_speedup
    return surface


def smil_optimum(surface: Dict[Tuple[str, str], float]) -> Tuple[Tuple[str, str], float]:
    best = max(surface.items(), key=lambda kv: kv[1])
    return best[0], best[1]


# ----------------------------------------------------------------------
# §4.3 — sensitivity studies
def sensitivity_l1d_capacity(runner_factory, l1d_kbs: Sequence[int] = (12, 24, 48),
                             cycles: Optional[int] = None
                             ) -> Dict[int, SchemeSweep]:
    """WS vs WS-QBMI vs WS-DMIL across L1D capacities.

    ``runner_factory(l1d_kb)`` must return an ExperimentRunner on a
    config with that capacity (the scaled analogue of 24/48/96 KB).
    """
    out = {}
    for kb in l1d_kbs:
        runner = runner_factory(kb)
        out[kb] = scheme_sweep(runner, ("ws", "ws-qbmi", "ws-dmil"),
                               paper_pairs(), cycles)
    return out


def sensitivity_scheduler(runner_factory,
                          policies: Sequence[str] = ("gto", "lrr"),
                          cycles: Optional[int] = None
                          ) -> Dict[str, SchemeSweep]:
    """Same sweep under GTO and LRR warp scheduling."""
    out = {}
    for policy in policies:
        runner = runner_factory(policy)
        out[policy] = scheme_sweep(runner, ("ws", "ws-qbmi", "ws-dmil"),
                                   paper_pairs(), cycles)
    return out


# ----------------------------------------------------------------------
# §4.4 — hardware overhead
def hardware_overhead(num_kernels: int = 2, num_sms: int = 16
                      ) -> Dict[str, object]:
    """Storage bits for the proposed mechanisms (paper §4.4)."""
    milg = MILG.hardware_cost()
    milg_bits = sum(milg.values())
    qbmi = QuotaBMI.hardware_cost(num_kernels)
    qbmi_bits = sum(qbmi.values())
    return {
        "milg_per_kernel_bits": milg_bits,
        "milg_per_sm_bits": milg_bits * num_kernels,
        "milg_gpu_bits": milg_bits * num_kernels * num_sms,
        "qbmi_per_sm_bits": qbmi_bits,
        "qbmi_gpu_bits": qbmi_bits * num_sms,
        "detail": {"milg": milg, "qbmi": qbmi},
    }
