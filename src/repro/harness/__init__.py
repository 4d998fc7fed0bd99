"""Experiment harness: cached isolated profiling, the scheme registry
(spatial / leftover / WS / SMK × BMI / MIL / UCP), one driver per
paper table/figure, and the campaign executor with its robustness
layer (checkpoint journal, retry/quarantine, deterministic fault
injection)."""

from repro.harness.runner import (
    ExperimentRunner,
    IsoRecord,
    RunnerSettings,
    WorkloadOutcome,
    run_pair,
)
from repro.harness.reporting import (
    build_report,
    format_series,
    format_table,
    geomean,
    write_report,
)
from repro.harness.resilience import (
    CampaignJournal,
    FaultPlan,
    FaultSpec,
    JobError,
    Quarantined,
    ResiliencePolicy,
    ResilienceReport,
)
from repro.harness import experiments

__all__ = [
    "ExperimentRunner",
    "RunnerSettings",
    "IsoRecord",
    "WorkloadOutcome",
    "run_pair",
    "build_report",
    "write_report",
    "format_table",
    "format_series",
    "geomean",
    "experiments",
    "CampaignJournal",
    "FaultPlan",
    "FaultSpec",
    "JobError",
    "Quarantined",
    "ResiliencePolicy",
    "ResilienceReport",
]
