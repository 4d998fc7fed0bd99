"""Tests for the experiment runner (caching, scheme resolution)."""

import pytest

from repro.config import scaled_config
from repro.harness.reporting import format_series, format_table, geomean
from repro.harness.runner import ExperimentRunner, RunnerSettings, run_pair
from repro.workloads.mixes import mix
from repro.workloads.profiles import get_profile

FAST = RunnerSettings(iso_cycles=1500, curve_cycles=1000, concurrent_cycles=2000)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(scaled_config(), FAST)


class TestIsolatedCache:
    def test_memoised_in_memory(self, runner):
        first = runner.isolated(get_profile("bp"))
        second = runner.isolated(get_profile("bp"))
        assert first is second

    def test_disk_cache_round_trip(self, tmp_path):
        r1 = ExperimentRunner(scaled_config(), FAST, cache_dir=str(tmp_path))
        rec = r1.isolated(get_profile("dc"))
        r2 = ExperimentRunner(scaled_config(), FAST, cache_dir=str(tmp_path))
        rec2 = r2.isolated(get_profile("dc"))
        assert rec2.ipc == rec.ipc
        assert list(tmp_path.glob("iso-*.json"))

    def test_curve_has_one_point_per_tb(self, runner):
        profile = get_profile("sv")
        curve = runner.curve(profile)
        assert curve.max_tbs == profile.max_tbs_per_sm(runner.config)

    def test_variant_profile_is_not_served_stock_results(self, tmp_path):
        """Caches are keyed by profile content, not name: a ``bp``
        variant with a different instruction mix must not be handed
        the stock ``bp`` record, in memory or from disk."""
        import dataclasses
        stock = get_profile("bp")
        variant = dataclasses.replace(
            stock, cinst_per_minst=stock.cinst_per_minst * 4)
        fresh = ExperimentRunner(scaled_config(), FAST).isolated(variant)
        cached = ExperimentRunner(scaled_config(), FAST,
                                  cache_dir=str(tmp_path))
        stock_ipc = cached.isolated(stock).ipc
        assert fresh.ipc != stock_ipc
        assert cached.isolated(variant).ipc == fresh.ipc
        reopened = ExperimentRunner(scaled_config(), FAST,
                                    cache_dir=str(tmp_path))
        assert reopened.isolated(variant).ipc == fresh.ipc
        assert reopened.isolated(stock).ipc == stock_ipc
        assert (reopened.curve(variant).ipc_by_tbs
                != reopened.curve(stock).ipc_by_tbs)

    def test_timing_only_fields_split_the_cache(self, runner):
        """mlp shares a trace but not a result."""
        import dataclasses
        stock = get_profile("cd")
        deeper = dataclasses.replace(stock, mlp=stock.mlp + 3)
        assert (runner.isolated(deeper).ipc
                != runner.isolated(stock).ipc)

    def test_rejects_impossible_tbs(self, runner):
        with pytest.raises(ValueError):
            runner.isolated(get_profile("bp"), tbs=0)


class TestSchemeResolution:
    def test_ws_partition_is_feasible(self, runner):
        profiles = [get_profile("bp"), get_profile("sv")]
        limits, masks, stack = runner.resolve_scheme("ws", profiles)
        assert masks is None
        assert all(l >= 1 for l in limits)
        assert stack.describe() == "baseline"

    def test_spatial_masks_cover_all_sms(self, runner):
        profiles = [get_profile("bp"), get_profile("sv")]
        limits, masks, _ = runner.resolve_scheme("spatial", profiles)
        assert masks is not None
        covered = set().union(*masks)
        assert covered == set(range(runner.config.num_sms))

    def test_mechanism_suffix_parsing(self, runner):
        profiles = [get_profile("bp"), get_profile("sv")]
        _, _, stack = runner.resolve_scheme("ws-qbmi+dmil", profiles)
        assert stack.bmi == "qbmi" and stack.mil == "dmil"
        _, _, stack = runner.resolve_scheme("ws-smil:3,inf", profiles)
        assert stack.smil_limits == (3, None)
        _, _, stack = runner.resolve_scheme("ws-ucp", profiles)
        assert stack.ucp

    def test_smk_variants(self, runner):
        profiles = [get_profile("bp"), get_profile("sv")]
        _, _, stack = runner.resolve_scheme("smk-p+w", profiles)
        assert stack.smk_quotas is not None
        _, _, stack = runner.resolve_scheme("smk-p+dmil", profiles)
        assert stack.mil == "dmil" and stack.smk_quotas is None

    def test_unknown_scheme_rejected(self, runner):
        with pytest.raises(ValueError):
            runner.resolve_scheme("bogus", [get_profile("bp")])
        with pytest.raises(ValueError):
            runner.resolve_scheme("ws-nope", [get_profile("bp")])


class TestRunMix:
    def test_outcome_metrics_consistent(self, runner):
        outcome = runner.run_mix(mix("bp", "sv"), "ws")
        assert outcome.weighted_speedup == pytest.approx(sum(outcome.norm_ipcs))
        assert outcome.mix_class == "C+M"
        assert outcome.partition and len(outcome.partition) == 2
        assert 0 < outcome.fairness <= 1

    def test_run_pair_with_scheme_name(self):
        outcome = run_pair("pf", "bp", "even", cycles=1500)
        assert outcome.mix_name == "pf+bp"

    def test_run_pair_with_scheme_config(self):
        from repro.core.arbiter import SchemeConfig
        outcome = run_pair("pf", "bp", SchemeConfig(bmi="rbmi"), cycles=1500)
        assert "RBMI" in outcome.scheme


class TestReportingHelpers:
    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2.5], [3, 4.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.500" in text

    def test_format_table_validates_width(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_format_series_downsamples(self):
        text = format_series({"s": list(range(100))}, max_points=10)
        assert len(text.split()) <= 12

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geomean([])
