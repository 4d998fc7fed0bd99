"""Benchmark of the simulator: paper-scale cells, an observed run and a
campaign, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 simbench/run.py --workload cell-mm --seed 0 --seconds 25 --trace 0
    python3 simbench/run.py --write-expected

Each sample runs in a fresh interpreter (``sample.py``) with its own
scratch directory under ``.simbench_out/``, and with the environment
switches that select other code paths cleared.  Samples repeat until
``--seconds`` have passed (at least :data:`MIN_SAMPLES`); the run
prints every metric by name and unit, then one JSON line with the
medians and the count of checked operations that failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs
pairs of an untraced and a traced sample and reports the per-layer
metrics; the traced sample's simulated output must equal its untraced
twin's, and the ratio of their wall times is the tracing overhead.
Span totals go to ``.simbench_out/trace-<workload>-seed<N>.json``.

``--write-expected`` re-records ``expected.json``, the simulated
statistics every workload must reproduce at the default seed.  Do it
only for a change that is meant to alter simulated behaviour.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SAMPLE = os.path.join(HERE, "sample.py")
EXPECTED = os.path.join(HERE, "expected.json")
#: workloads (with why each was chosen), metric names and units.
SPEC = os.path.join(ROOT, "BENCHMARK.json")
OUT = os.path.join(ROOT, ".simbench_out")

sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(ROOT, "src"))
from sample import CELLS, DEFAULT_SEED, WORKLOADS, params  # noqa: E402

#: environment switches that would pick another code path or inject
#: faults; samples never inherit them.
CLEARED_ENV = ("REPRO_REFERENCE_LOOP", "REPRO_POOLED_MEM", "REPRO_NO_TRACE",
               "REPRO_FAULT_PLAN", "REPRO_BENCH_WORKERS")

#: Figure 12 gains over Warped-Slicer alone (EXPERIMENTS.md), in
#: percent: weighted speedup, ANTT, fairness.
PAPER_GAINS = {"ws-qbmi": (1.5, 40.5, 17.8), "ws-dmil": (24.6, 56.1, 32.3)}

#: the host-speed probe's loop time (``sample.host_probe``) on the
#: host ``expected.json`` was recorded on.  Host times are reported in
#: seconds of a host that runs the probe this fast: a sample's raw time
#: is scaled by ``PROBE_REF_S`` over its median probe time, which
#: cancels drift in the speed of a shared host between samples.
PROBE_REF_S = 0.02

MIN_SAMPLES = 3
#: no sample starts once this much of the run has passed, so the run
#: ends well inside the 180 s every run must finish in.
HARD_LIMIT_S = 140.0


def sample_env(tmp: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["TMPDIR"] = tmp
    return env


class Sampler:
    """Starts samples in fresh processes and tallies their checks."""

    def __init__(self, workload: str, seed: int, check_expected: bool):
        self.workload = workload
        self.seed = seed
        self.check_expected = check_expected
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.count = 0
        self.started = time.monotonic()

    def run(self, traced: bool = False):
        """One sample's JSON result, or None when it crashed."""
        self.count += 1
        tmp = os.path.join(OUT, "tmp", f"{os.getpid()}-{self.count}")
        os.makedirs(tmp)
        flags = ["--traced"] if traced else []
        if self.check_expected:
            flags += ["--expected", EXPECTED]
        timeout = max(5.0, HARD_LIMIT_S + 25.0
                      - (time.monotonic() - self.started))
        t0 = time.monotonic()
        cmd = [sys.executable, SAMPLE, self.workload, str(self.seed),
               repr(t0), tmp] + flags
        proc = subprocess.Popen(cmd,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                cwd=ROOT, env=sample_env(tmp),
                                start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            # The sample's pool workers share its process group.
            os.killpg(proc.pid, signal.SIGKILL)
            stdout, stderr = proc.communicate()
            stderr += f"\nsample killed after {timeout:.0f} s"
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        result = None
        if proc.returncode == 0 and stdout.strip():
            try:
                result = json.loads(stdout.strip().splitlines()[-1])
            except ValueError:
                result = None
        if result is None:
            self.attempted += 1
            self.failed += 1
            tail = stderr.strip().splitlines()[-3:]
            self.errors.append(f"sample crashed (exit {proc.returncode}): "
                               + " | ".join(tail))
            return None
        checks = result["checks"]
        self.attempted += checks["attempted"]
        self.failed += checks["failed"]
        self.errors += checks["errors"]
        return result

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(label)

    def more(self, seconds: float, done: int, minimum: int,
             last_s: float) -> bool:
        """Whether to start another sample after ``done`` of them, the
        last of which took ``last_s``."""
        elapsed = time.monotonic() - self.started
        if elapsed + last_s > HARD_LIMIT_S:
            return False
        return done < minimum or elapsed < seconds


def spread(values):
    return f"median of {len(values)}; min {min(values):.6g}, " \
           f"max {max(values):.6g}"


def speed_factor(result, metric: str = "wall_s") -> float:
    """Multiplier from a sample's raw host seconds of ``metric`` to
    reference-host seconds, from the probes taken around it (see
    :data:`PROBE_REF_S`)."""
    return PROBE_REF_S / statistics.median(result["probe_s"][metric])


def units(spec: dict, kind: str):
    return [(metric["name"], metric["unit"]) for metric in spec[kind]]


def end_to_end(sampler: Sampler, seconds: float, spec: dict) -> dict:
    results = []
    last = 0.0
    while sampler.more(seconds, len(results), MIN_SAMPLES, last):
        start = time.monotonic()
        result = sampler.run()
        last = time.monotonic() - start
        if result is None:
            break
        results.append(result)
    if not results:
        return {}
    raw = {
        "setup_s": [r["setup_s"] for r in results],
        "wall_s": [r["wall_s"] for r in results],
        "warm_wall_s": [r["warm_wall_s"] for r in results],
        "sim_kips": [r["sim_insts"] / 1000.0 / r["wall_s"] for r in results],
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
    }
    #: the timed operation behind each metric, and the power of the
    #: host speed factor that converts it.
    timed = {"setup_s": ("setup_s", 1), "wall_s": ("wall_s", 1),
             "warm_wall_s": ("warm_wall_s", 1), "sim_kips": ("wall_s", -1),
             "peak_rss_mb": ("wall_s", 0)}
    factors = [speed_factor(r) for r in results]
    print(f"  host speed factor {statistics.median(factors):.4g} "
          f"({spread(factors)}); host times below are reference-host "
          f"seconds, raw in brackets")
    metrics = {}
    for name, unit in units(spec, "end_to_end"):
        metric, power = timed[name]
        values = [v * speed_factor(r, metric) ** power
                  for v, r in zip(raw[name], results)]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(f"  {name:<13} {metrics[name]['value']:>12.6g} {unit:<8} "
              f"({spread(values)}; raw {statistics.median(raw[name]):.6g})")
    if sampler.workload == "campaign":
        print_model_error(results[0]["observed"]["cells"])
    else:
        print("  simulated statistics are the model's own; the model is "
              "unvalidated against hardware")
    save(f"result-{sampler.workload}-seed{sampler.seed}.json",
         {"samples": results, "metrics": metrics})
    return metrics


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def print_model_error(cells) -> None:
    """Each scheme's gain over ``ws`` beside the paper's Figure 12."""
    by_scheme = {}
    for _mix, scheme, _partition, ws, antt, fairness in cells:
        by_scheme.setdefault(scheme, []).append((ws, antt, fairness))

    def means(scheme):
        rows = by_scheme[scheme]
        return [geomean([row[i] for row in rows]) for i in range(3)]

    base = means("ws")
    print("  gain over ws (WS / ANTT / fairness, %), 3 mixes; error is "
          "against the paper's full pair set, not gated:")
    for scheme in by_scheme:
        if scheme == "ws":
            continue
        ws, antt, fair = means(scheme)
        gains = (100 * (ws / base[0] - 1), 100 * (base[1] / antt - 1),
                 100 * (fair / base[2] - 1))
        line = "  ".join(f"{g:+6.1f}" for g in gains)
        paper = PAPER_GAINS.get(scheme)
        if paper is None:
            print(f"    {scheme:<13} {line}   paper: not reported")
            continue
        errors = "  ".join(f"{g - p:+6.1f}" for g, p in zip(gains, paper))
        reported = "  ".join(f"{p:+6.1f}" for p in paper)
        print(f"    {scheme:<13} {line}   paper: {reported}   "
              f"error (pp): {errors}")


def per_layer(sampler: Sampler, seconds: float, spec: dict) -> dict:
    pairs = []
    last = 0.0
    while sampler.more(seconds, len(pairs), 1, last):
        start = time.monotonic()
        plain = sampler.run()
        traced = sampler.run(traced=True) if plain is not None else None
        last = time.monotonic() - start
        if traced is None:
            break
        sampler.check("traced output differs from untraced",
                      traced["observed"] == plain["observed"])
        pairs.append((plain, traced))
    if not pairs:
        return {}
    metrics = {}
    for name, unit in units(spec, "per_layer"):
        if name == "trace.overhead_x":
            values = [t["wall_s"] * speed_factor(t)
                      / (p["wall_s"] * speed_factor(p)) for p, t in pairs]
        elif name == "obs.overhead_x":
            values = [p.get("obs_overhead_x", 0.0) for p, _t in pairs]
        elif unit == "s":
            values = [t["layers"][name] * speed_factor(t) for _p, t in pairs]
        else:
            values = [t["layers"][name] for _p, t in pairs]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(f"  {name:<31} {metrics[name]['value']:>12.6g} {unit}")
    print_shares([t["spans"]["self_s"] for _p, t in pairs])
    save(f"trace-{sampler.workload}-seed{sampler.seed}.json", {
        "metrics": metrics,
        "spans": [t["spans"] for _p, t in pairs],
    })
    return metrics


def print_shares(self_times) -> None:
    """Each layer's share of the traced self time, medians over the
    traced samples (campaign: parent and workers together)."""
    shares = {}
    for layers in self_times:
        total = sum(layers.values())
        for layer, seconds in layers.items():
            shares.setdefault(layer, []).append(seconds / total)
    print("  self-time shares: " + ", ".join(
        f"{layer} {100 * statistics.median(values):.1f}%"
        for layer, values in sorted(shares.items(),
                                    key=lambda item: -max(item[1]))))


def save(name: str, payload: dict) -> None:
    payload = dict(payload, host=host_info())
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)


def host_info() -> dict:
    """The simulator's own host record (nproc as ``cpu_count``, Python
    version) and the checkout's git sha, when it is a git checkout."""
    from repro.harness.perfbench import _host_info
    from repro.obs.ledger import current_git_sha
    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        sha = current_git_sha(ROOT)
    return dict(_host_info(), git_sha=sha or "unknown")


def write_expected() -> int:
    stored = {}
    for workload in WORKLOADS:
        sampler = Sampler(workload, DEFAULT_SEED, check_expected=False)
        result = sampler.run()
        if result is None or sampler.failed:
            print(f"{workload}: {sampler.errors}", file=sys.stderr)
            return 1
        stored[workload] = dict(params=params(workload),
                                **result["observed"])
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1)
        fh.write("\n")
    print(f"wrote {EXPECTED}")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_expected and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no simulator source under {ROOT}/src",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    try:
        if args.write_expected:
            return write_expected()
        return run(args)
    finally:
        shutil.rmtree(os.path.join(OUT, "tmp"), ignore_errors=True)


def run(args) -> int:
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    host = host_info()
    print(f"workload {args.workload}: {why[args.workload]}")
    print(f"seed {args.seed} (expected statistics cover seed "
          f"{DEFAULT_SEED}), nproc {host['cpu_count']}, python "
          f"{host['python']}, git {host['git_sha']}")
    if args.workload in CELLS:
        cell = CELLS[args.workload]
        print(f"  {'+'.join(cell['kernels'])}, {cell['cycles']} cycles, "
              f"caches start empty")
    sampler = Sampler(args.workload, args.seed,
                      check_expected=args.seed == DEFAULT_SEED)
    if args.trace:
        metrics = per_layer(sampler, args.seconds, spec)
    else:
        metrics = end_to_end(sampler, args.seconds, spec)
    for error in sampler.errors:
        print(f"  FAILED {error}")
    if not metrics:
        print("error: no sample completed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": sampler.failed == 0,
                      "attempted": sampler.attempted,
                      "failed": sampler.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
