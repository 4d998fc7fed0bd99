"""Chaos harness: whole campaigns under injected faults.

Each test scripts a deterministic :class:`FaultPlan` — SIGKILL a
worker mid-cell, hang a job past its timeout, poison a cell, corrupt
checkpoints on disk — and asserts the two properties the resilience
layer promises: the campaign *completes*, and the merged results are
bit-identical to a fault-free run.  Faults change the execution story
(retries, quarantines, resumes), never the science.

Real worker processes are spawned and killed here, so the suite rides
under the ``chaos`` marker; it stays in tier-1 (cycle budgets are
tiny) but can be selected alone with ``pytest -m chaos``.
"""

import json
import os

import pytest

from repro.config import scaled_config
from repro.harness.parallel import IsoJob, run_campaign, run_jobs
from repro.harness.perfbench import outcome_signature
from repro.harness.resilience import (FaultPlan, FaultSpec, JobError,
                                      Quarantined, ResiliencePolicy,
                                      ResilienceReport, default_journal_path)
from repro.harness.runner import ExperimentRunner, RunnerSettings
from repro.obs.telemetry import NullTelemetry
from repro.workloads.mixes import WorkloadMix
from repro.workloads.profiles import get_profile

pytestmark = pytest.mark.chaos

SETTINGS = RunnerSettings(iso_cycles=600, curve_cycles=400,
                          concurrent_cycles=800)
PAIR = ("st", "sv")
MIX_LABEL = "mix ws st+sv"


def make_runner(path):
    os.makedirs(path, exist_ok=True)
    return ExperimentRunner(scaled_config(), SETTINGS, cache_dir=str(path))


def make_mix():
    return WorkloadMix(tuple(get_profile(k) for k in PAIR))


def write_plan(tmp_path, *specs):
    plan = FaultPlan(list(specs), state_dir=str(tmp_path / "fault-state"))
    return plan.to_file(str(tmp_path / "plan.json"))


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """Fault-free reference signature for the st+sv / ws campaign."""
    runner = make_runner(tmp_path_factory.mktemp("golden"))
    return outcome_signature(runner.run_mix(make_mix(), "ws"))


def executed_labels(telemetry):
    """Labels of cells that actually ran (checkpoint replays excluded)."""
    return [b.label for b in telemetry.heartbeats if b.event == "done"]


def campaign(runner, **kwargs):
    """The st+sv / ws campaign; returns ``(outcomes, report)``."""
    report = ResilienceReport()
    outcomes = run_campaign(runner, [make_mix()], ["ws"], workers=2,
                            report=report, **kwargs)
    return outcomes, report


# ----------------------------------------------------------------------
def test_sigkill_worker_mid_campaign_bit_identical(tmp_path, golden):
    plan = write_plan(tmp_path,
                      FaultSpec(id="k1", kind="kill", match=MIX_LABEL))
    runner = make_runner(tmp_path / "cache")
    artifacts = tmp_path / "artifacts"
    # The timeout grants the single-cell phase a sacrificial worker to
    # kill; it is far above the cell's run time, so it never fires.
    outcomes, report = campaign(
        runner, fault_plan=plan,
        policy=ResiliencePolicy(timeout_s=120.0, retries=2, backoff_s=0.05),
        artifacts_dir=str(artifacts))

    # The kill struck (claim marker on disk), the cell retried, and the
    # merged outcome is the fault-free one bit for bit.
    assert FaultPlan.from_file(plan).fired("k1") == 1
    assert report.retries >= 1
    cell = next(c for c in report.cells.values() if c.label == MIX_LABEL)
    assert "worker-crash" in cell.faults
    assert outcome_signature(outcomes[0]) == golden

    # Degradation is on the record: per-cell provenance in the artifact,
    # campaign-level accounting in the ledger index.
    index = json.loads((artifacts / "ledger.json").read_text())
    assert index["campaign"]["retries"] == report.retries
    assert index["campaign"]["quarantined"] == []
    blobs = [json.loads(p.read_text()) for p in artifacts.glob("*.json")
             if p.name != "ledger.json"]
    degraded = [b for b in blobs if "provenance" in b]
    assert degraded and degraded[0]["provenance"]["attempts"] >= 2


def test_hung_job_killed_at_timeout_and_retried(tmp_path, golden):
    plan = write_plan(tmp_path,
                      FaultSpec(id="h1", kind="hang", match=MIX_LABEL,
                                seconds=60.0))
    runner = make_runner(tmp_path / "cache")
    outcomes, report = campaign(
        runner, fault_plan=plan,
        policy=ResiliencePolicy(timeout_s=3.0, retries=2, backoff_s=0.05))

    cell = next(c for c in report.cells.values() if c.label == MIX_LABEL)
    assert "timeout" in cell.faults
    assert report.retries >= 1
    assert outcome_signature(outcomes[0]) == golden


def test_unpicklable_result_retried_bit_identical(tmp_path, golden):
    plan = write_plan(tmp_path,
                      FaultSpec(id="u1", kind="unpicklable",
                                match=MIX_LABEL))
    runner = make_runner(tmp_path / "cache")
    outcomes, report = campaign(
        runner, fault_plan=plan,
        policy=ResiliencePolicy(retries=2, backoff_s=0.05))
    assert report.retries >= 1
    assert outcome_signature(outcomes[0]) == golden


# ----------------------------------------------------------------------
def test_resume_after_mid_campaign_kill_runs_only_unfinished(tmp_path,
                                                             golden):
    """Interrupted campaign: the journal holds a prefix of the cells
    (append-only, torn at kill time).  Resume must re-run exactly the
    unproven remainder and still merge bit-identically."""
    cache = tmp_path / "cache"
    runner = make_runner(cache)
    campaign(runner, policy=ResiliencePolicy())

    journal_path = default_journal_path(runner)
    lines = open(journal_path).read().splitlines()
    assert len(lines) == 5  # 2 iso + 2 curve + 1 mix, all checkpointed
    entries = [json.loads(line) for line in lines]

    # Simulate dying mid-campaign: drop the mix checkpoint, corrupt one
    # iso checkpoint in place, and garble that kernel's disk-cache file
    # so the re-run cannot shortcut through a poisoned cache either.
    keep = []
    corrupted_iso = None
    for line, entry in zip(lines, entries):
        if entry["label"] == MIX_LABEL:
            continue
        if corrupted_iso is None and entry["label"].startswith("iso "):
            corrupted_iso = entry["label"]
            line = line.replace('"blob": "', '"blob": "XX', 1)
        keep.append(line)
    with open(journal_path, "w") as fh:
        fh.write("\n".join(keep) + "\n")
    iso_files = sorted(cache.glob("iso-*.json"))
    assert iso_files
    iso_files[0].write_text("{not json")

    fresh = ExperimentRunner(scaled_config(), SETTINGS,
                             cache_dir=str(cache))
    telemetry = NullTelemetry()
    outcomes, report = campaign(fresh, resume=True, progress=telemetry)

    ran = executed_labels(telemetry)
    assert sorted(ran) == sorted([MIX_LABEL, corrupted_iso])
    assert report.resumed == 3  # the three intact checkpoints replayed
    assert outcome_signature(outcomes[0]) == golden


def test_quarantine_then_resume_completes_campaign(tmp_path, golden):
    """A cell poisoned past its retry budget is quarantined — the
    campaign finishes around it — and a later fault-free ``--resume``
    re-runs only that cell, superseding the quarantine record."""
    plan = write_plan(tmp_path,
                      FaultSpec(id="r1", kind="raise", match=MIX_LABEL,
                                times=99))
    cache = tmp_path / "cache"
    runner = make_runner(cache)
    outcomes, report = campaign(
        runner, fault_plan=plan,
        policy=ResiliencePolicy(retries=1, backoff_s=0.05))
    assert isinstance(outcomes[0], Quarantined)
    assert report.quarantined == [MIX_LABEL]

    fresh = ExperimentRunner(scaled_config(), SETTINGS,
                             cache_dir=str(cache))
    telemetry = NullTelemetry()
    outcomes, report = campaign(fresh, resume=True, progress=telemetry)
    assert executed_labels(telemetry) == [MIX_LABEL]
    assert report.resumed == 4
    assert outcome_signature(outcomes[0]) == golden


def test_corrupt_fault_hits_journal_and_campaign_survives(tmp_path, golden):
    """A ``corrupt`` fault garbling the journal mid-campaign must not
    disturb the in-flight run (the journal is a recovery aid, not a
    dependency): results stay bit-identical, fault-free."""
    cache = tmp_path / "cache"
    runner = make_runner(cache)
    journal_glob = os.path.join(str(cache), "journal", "*.jsonl")
    plan = write_plan(tmp_path,
                      FaultSpec(id="c1", kind="corrupt", match="iso *",
                                path=journal_glob))
    outcomes, report = campaign(runner, fault_plan=plan,
                                policy=ResiliencePolicy())
    assert FaultPlan.from_file(plan).fired("c1") == 1
    assert outcome_signature(outcomes[0]) == golden
    assert report.retries == 0

    # The truncated journal still loads; resume re-runs whatever the
    # corruption made unprovable and completes identically.
    fresh = ExperimentRunner(scaled_config(), SETTINGS,
                             cache_dir=str(cache))
    outcomes, _ = campaign(fresh, resume=True)
    assert outcome_signature(outcomes[0]) == golden


def test_scheme_sweep_skips_quarantined_cells(tmp_path):
    """The experiment driver stays usable under quarantine: geomeans
    aggregate the surviving cells instead of crashing on a placeholder."""
    from repro.harness.experiments import scheme_sweep
    plan = write_plan(tmp_path,
                      FaultSpec(id="r1", kind="raise", match=MIX_LABEL,
                                times=99))
    runner = make_runner(tmp_path / "cache")
    plan_env = os.environ.get("REPRO_FAULT_PLAN")
    os.environ["REPRO_FAULT_PLAN"] = plan
    try:
        sweep = scheme_sweep(runner, ["ws"], [make_mix()],
                             policy=ResiliencePolicy(retries=0,
                                                     backoff_s=0.01))
    finally:
        if plan_env is None:
            os.environ.pop("REPRO_FAULT_PLAN", None)
        else:
            os.environ["REPRO_FAULT_PLAN"] = plan_env
    # The quarantined mix never entered the sweep — no placeholder to
    # trip geomeans over, just an absent row.
    assert sweep.mixes() == []


def test_worker_crash_without_policy_raises_job_error(tmp_path,
                                                     monkeypatch):
    """With no policy a dead worker fails the batch at once, with a
    JobError naming the cell it was running: no retry, and no silent
    in-process re-run of the batch."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    plan = write_plan(tmp_path,
                      FaultSpec(id="k1", kind="kill", match="iso sv"))
    runner = make_runner(tmp_path / "cache")
    with pytest.raises(JobError) as info:
        run_jobs(runner, [IsoJob("st"), IsoJob("sv")], workers=2,
                 fault_plan=plan)
    assert info.value.label == "iso sv"
    assert info.value.original_type == "worker-crash"
    assert FaultPlan.from_file(plan).fired("k1") == 1
