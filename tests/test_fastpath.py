"""The optimised cycle loop must be bit-identical to the reference.

``GPU(reference=True)`` disables every fast path — per-cycle callback
closures, scheduler sleep hints, the memory-subsystem idle skip and the
engine's cycle leap — leaving the straightforward scan the seed
implementation used.  These tests drive both loops over the scheme
space (GTO/LRR, BMI, MIL variants, SMK gating, UCP, L1D bypass) and
require every collected statistic to match exactly.
"""

import pytest

from repro.config import scaled_config
from repro.core.arbiter import SchemeConfig
from repro.harness.perfbench import result_signature
from repro.sim.engine import GPU, make_launches
from repro.workloads.profiles import get_profile

CONFIG = scaled_config()
CYCLES = 1500

CASES = [
    ("gto-base", ("3m", "bp"), (4, 4), {}, {}),
    ("gto-single", ("3m",), (2,), {}, {}),
    ("lrr-base", ("3m", "bp"), (4, 4), {}, {"scheduler_policy": "lrr"}),
    ("rbmi-dmil", ("st", "sv"), (4, 4), {"bmi": "rbmi", "mil": "dmil"}, {}),
    ("qbmi", ("st", "sv"), (2, 2),
     {"bmi": "qbmi", "qbmi_init_req_per_minst": (4, 4)}, {}),
    ("smil", ("hs", "cd"), (1, 2),
     {"mil": "smil", "smil_limits": (2, 2)}, {}),
    ("ucp", ("3m", "bp"), (2, 2), {"ucp": True, "ucp_interval": 500}, {}),
    ("smk-quota", ("3m", "bp"), (2, 2), {"smk_quotas": (3, 1)}, {}),
    ("bypass", ("st", "sv"), (2, 2), {"l1d_bypass": (True, False)}, {}),
    # MIL caps that bind right as a full LSU drains a slot.
    ("smil-capped", ("cd", "sv"), (2, 6),
     {"mil": "smil", "smil_limits": (8, 8)}, {}),
    # Memory-stall sleep (docs/PERF.md §9) under the benchmark cell's
    # stack (QBMI+DMIL, Req/Minst hints = the profiles' reqs_per_minst),
    # under global DMIL (one shared MILG set fed by SM 0), and under
    # LRR, whose memo-held schedulers are charged per rotation; its
    # bypassed loads return without an L1D fill, so they land while the
    # SM sleeps on.
    ("qbmi-dmil", ("cd", "sv"), (4, 4),
     {"bmi": "qbmi", "mil": "dmil", "qbmi_init_req_per_minst": (6, 3)}, {}),
    ("gdmil", ("cd", "sv"), (4, 4), {"mil": "gdmil"}, {}),
    ("lrr-mem", ("st", "sv"), (4, 4),
     {"mil": "dmil", "l1d_bypass": (True, False)},
     {"scheduler_policy": "lrr"}),
]


def build_gpu(kernels, tbs, scheme_kwargs, cfg_kwargs, reference, **kwargs):
    config = scaled_config(**cfg_kwargs) if cfg_kwargs else CONFIG
    profiles = [get_profile(k) for k in kernels]
    # Launches hold mutable stream state: build fresh ones per GPU.
    launches = make_launches(profiles, list(tbs), config, seed=3)
    gpu = GPU(config, launches, SchemeConfig(**scheme_kwargs),
              reference=reference, **kwargs)
    assert gpu.reference is reference
    return gpu


def run_once(kernels, tbs, scheme_kwargs, cfg_kwargs, reference):
    return build_gpu(kernels, tbs, scheme_kwargs, cfg_kwargs,
                     reference).run(CYCLES)


@pytest.mark.parametrize(
    "kernels,tbs,scheme_kwargs,cfg_kwargs",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES])
def test_fast_loop_matches_reference(kernels, tbs, scheme_kwargs,
                                     cfg_kwargs):
    ref = run_once(kernels, tbs, scheme_kwargs, cfg_kwargs, reference=True)
    fast = run_once(kernels, tbs, scheme_kwargs, cfg_kwargs, reference=False)
    assert result_signature(fast) == result_signature(ref)
    # IPC is the paper's headline metric — compare it explicitly too.
    for slot in range(len(kernels)):
        assert fast.ipc(slot) == ref.ipc(slot)


def test_reference_env_var_controls_default(monkeypatch):
    config = CONFIG
    launches = make_launches([get_profile("3m")], [1], config, seed=0)
    monkeypatch.setenv("REPRO_REFERENCE_LOOP", "1")
    assert GPU(config, launches, SchemeConfig()).reference is True
    monkeypatch.delenv("REPRO_REFERENCE_LOOP")
    launches = make_launches([get_profile("3m")], [1], config, seed=0)
    assert GPU(config, launches, SchemeConfig()).reference is False


def test_mid_run_tb_limit_change_matches_reference():
    """Dynamic reconfiguration (Warped-Slicer §3) crosses the sleep and
    leap machinery: raising a cap must wake a slept SM identically."""
    results = []
    for reference in (True, False):
        launches = make_launches([get_profile("3m"), get_profile("bp")],
                                 [1, 1], CONFIG, seed=7)
        gpu = GPU(CONFIG, launches, SchemeConfig(), reference=reference)
        gpu.run(400)
        for sm_id in range(CONFIG.num_sms):
            gpu.set_tb_limit(sm_id, 0, 3)
        results.append(result_signature(gpu.run(800)))
    assert results[0] == results[1]


@pytest.mark.parametrize(
    "kernels,tbs,scheme_kwargs,cfg_kwargs",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES])
def test_split_run_matches_unsplit(kernels, tbs, scheme_kwargs, cfg_kwargs):
    """``run(a)`` + ``run(n - a)`` == ``run(n)`` on the fast loop: a run
    that ends mid-sleep settles the slept cycles — rotation phase
    included — so the resumed run arbitrates exactly as the unsplit
    one.  Several split points, so some land inside SM sleeps."""
    whole = result_signature(run_once(kernels, tbs, scheme_kwargs,
                                      cfg_kwargs, reference=False))
    for splits in ((701, CYCLES - 701), (250, 333, 1, CYCLES - 584)):
        gpu = build_gpu(kernels, tbs, scheme_kwargs, cfg_kwargs,
                        reference=False)
        for cycles in splits:
            result = gpu.run(cycles)
        assert result_signature(result) == whole, splits


@pytest.mark.parametrize("names", [("dc", "pf"), ("3m", "bp"), ("st", "sv")],
                         ids=lambda names: "+".join(names))
def test_dynamic_ws_fast_matches_reference(names, monkeypatch):
    """Dynamic Warped-Slicer drives one GPU through many run() calls
    with TB limits reconfigured in between — the resume path the
    split-run test pins down, end to end."""
    from repro.cke.dynamic_ws import DynamicWarpedSlicer
    profiles = [get_profile(name) for name in names]
    outcomes = []
    for reference in ("1", "0"):
        monkeypatch.setenv("REPRO_REFERENCE_LOOP", reference)
        dyn = DynamicWarpedSlicer(profiles, CONFIG).execute(3000)
        outcomes.append((dyn.window_insts, dyn.partition,
                         [curve.ipc_by_tbs for curve in dyn.curves],
                         result_signature(dyn.result)))
    assert outcomes[0] == outcomes[1]
