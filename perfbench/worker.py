"""Run one benchmark workload once, in this (fresh) interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR [--traced | --setup-only]

Prints one JSON object on its last stdout line: timings, digests of the
run's artifacts, the results of the correctness checks that need fpsim,
and (with --traced) per-layer span totals.  ``perfbench/run.py`` starts
this script once per repetition so that every timing is cold: the
accountant's solver cache and every lazily built table live only as long
as this process.

Untraced runs carry exactly one hook, the round clock: one perf_counter
per call of ``fpsim.harness.select_cohort``, i.e. per round start.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Run workloads: fpsim config text, formatted with the workload seed.
RUN_CONFIGS = {
    # The shipped defaults: pop 10 000, cohort 100, V=100 (d=10^4),
    # adaptive clip, 200 rounds, restart at 128.
    "default_adaptive": """
seed = {seed}
rounds = 100
""",
    # The long private shape of acceptance test 12 (cold start): the
    # per-round accountant re-solve dominates and grows with the round.
    "long_small": """
seed = {seed}
rounds = 700
report_goal = 20
population = 2000
timer_rounds = 20
noise_multiplier = 0.25
eta_c = 0.25
eta_s = 1.0
beta = 0.9
clip.mode = fixed
clip.c0 = 0.2
model.vocab_size = 64
data.examples_per_client = 5
data.concentration = 0.5
data.heterogeneity = 0.3
data.eval_examples = 1000
restart.mode = periodic
restart.first = 128
restart.period = 1024
""",
    # SecAgg on: d=10^4 padded to 16384, the only workload that reaches
    # the codec, the Hadamard rotation and the kernels.
    "secagg_wide": """
seed = {seed}
rounds = 100
report_goal = 20
population = 2000
clip.mode = fixed
clip.c0 = 1.0
secagg.enabled = true
""",
}

# The accountant sweep: min_sep = 100000 // 100 = 1000, max_part 3.  It has
# no randomness, so the workload seed does not change its input.
SWEEP_CONFIG = {"z": 7.0, "report_goal": 100, "population": 100_000, "rounds": (2048,)}

SWEEP = "sweep_w1000"

WORKLOADS = (*RUN_CONFIGS, SWEEP)


class SetupDone(Exception):
    """Raised by the round clock to end a setup-only probe at round 0."""


class RoundClock:
    """Timestamps every call of harness.select_cohort (one per round)."""

    def __init__(self, harness, stop_at_first: bool) -> None:
        self.starts: list[float] = []
        inner = harness.select_cohort

        def clocked(*args, **kwargs):
            self.starts.append(time.perf_counter())
            if stop_at_first:
                raise SetupDone
            return inner(*args, **kwargs)

        harness.select_cohort = clocked


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (ru_maxrss is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def import_fpsim():
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import fpsim
    import fpsim.harness  # noqa: F401  (explicit: the clock patches it)

    import_s = time.perf_counter() - started
    if not Path(fpsim.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"fpsim imported from {fpsim.__file__}, not from {SRC}")
    return fpsim, import_s


def environment(fpsim) -> dict[str, object]:
    """Interpreter, numpy, BLAS and kernel backend of this process."""
    import ctypes

    import numpy as np

    env: dict[str, object] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "fpsim_backend": fpsim.BACKEND,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("openblas configuration", "unknown"),
        "blas_threads": None,
    }
    # The thread count of the OpenBLAS that numpy loaded, asked from the
    # library itself (its exported names carry a build-specific prefix).
    with open("/proc/self/maps") as fh:
        libraries = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(library, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                env["blas_threads"] = getter()
                return env
    return env


def run_checks(fpsim, config, out: Path) -> dict[str, str]:
    """Correctness checks on a finished run directory; '' means passed."""
    checks: dict[str, str] = {}
    with open(out / "report.csv", newline="") as fh:
        report = next(csv.DictReader(fh))
    post = fpsim.harness.post_hoc_report(out)
    checks["report_matches_post_hoc"] = "" if (
        float(report["rho"]) == post["rho"] and float(report["epsilon"]) == post["epsilon"]
    ) else f"report.csv rho/eps {report['rho']}/{report['epsilon']} != post hoc {post['rho']}/{post['epsilon']}"

    by_client: dict[int, list[int]] = {}
    rows = 0
    with open(out / "participation.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            by_client.setdefault(int(row["client_id"]), []).append(int(row["round"]))
            rows += 1
    expected_rows = config.rounds * config.report_goal
    checks["participation_rows"] = "" if rows == expected_rows else (
        f"participation.csv has {rows} rows, expected {expected_rows}"
    )
    min_sep = config.rounds
    for rounds in by_client.values():
        rounds.sort()
        min_sep = min([min_sep, *(b - a for a, b in zip(rounds, rounds[1:]))])
    max_part = max((len(r) for r in by_client.values()), default=0)
    cap = -(-config.rounds // config.timer_rounds)
    checks["observed_limits"] = "" if (min_sep >= config.timer_rounds and max_part <= cap) else (
        f"min_sep {min_sep} (timer {config.timer_rounds}), max_part {max_part} (cap {cap})"
    )
    return checks


def run_workload(args, fpsim, import_s: float) -> dict:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.traced:
        tracer = Tracer()
        tracer.install()

    result: dict = {"import_s": import_s}
    if args.workload == SWEEP:
        sweep_cfg = fpsim.SweepConfig(**SWEEP_CONFIG)
        # Set-up for the sweep is what the process does before the
        # accountant runs: importing fpsim and building the config.
        result["setup_s"] = import_s
        if args.setup_only:
            return result
        if tracer:
            tracer.active = True
        started = time.perf_counter()
        rows = fpsim.harness.sweep_privacy(sweep_cfg, out / "sweep.csv")
        result["run_s"] = time.perf_counter() - started
        result["peak_rss_mb"] = peak_rss_mb()
        if tracer:
            tracer.active = False
        result["sweep_rows"] = [list(row) for row in rows]
        result["digests"] = {"sweep.csv": sha256_file(out / "sweep.csv")}
        result["checks"] = {}
    else:
        config = fpsim.ExperimentConfig.from_text(RUN_CONFIGS[args.workload].format(seed=args.seed))
        clock = RoundClock(fpsim.harness, stop_at_first=args.setup_only)
        if tracer:
            tracer.active = True
        started = time.perf_counter()
        try:
            fpsim.harness.run_experiment(config, out)
        except SetupDone:
            return {"setup_s": clock.starts[0] - started, "import_s": import_s}
        result["run_s"] = time.perf_counter() - started
        result["peak_rss_mb"] = peak_rss_mb()
        if tracer:
            tracer.active = False
        starts = clock.starts
        if len(starts) != config.rounds:
            raise RuntimeError(f"round clock saw {len(starts)} round starts, expected {config.rounds}")
        intervals_ms = [(b - a) * 1e3 for a, b in zip(starts, starts[1:])]
        result["setup_s"] = starts[0] - started
        result["rounds"] = config.rounds
        result["rounds_per_s"] = len(intervals_ms) / (starts[-1] - starts[0])
        result["round_samples"] = len(intervals_ms)
        result["round_ms_p50"] = percentile(intervals_ms, 50)
        result["round_ms_p90"] = percentile(intervals_ms, 90)
        metrics = fpsim.harness.read_metrics(out)
        result["final_eval_acc"] = metrics["eval_acc"][-1]
        result["digests"] = {
            name: sha256_file(out / name)
            for name in ("metrics.csv", "checkpoint.bin", "participation.csv", "report.csv")
        }
        result["checks"] = run_checks(fpsim, config, out)
        if not 0.0 <= result["final_eval_acc"] <= 1.0:
            result["checks"]["final_eval_acc"] = f"eval_acc {result['final_eval_acc']} outside [0, 1]"

    result["env"] = environment(fpsim)
    if tracer:
        tracer.write_spans(out / "spans.csv")
        result["layers"] = tracer.summary()
        result["fwht_ops"] = tracer.fwht_ops
        result["fwht_bytes"] = tracer.fwht_bytes
        result["span_count"] = len(tracer.spans)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--traced", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    try:
        fpsim, import_s = import_fpsim()
    except ImportError as exc:
        print(f"cannot import fpsim from {SRC}: {exc}", file=sys.stderr)
        return 3
    try:
        result = run_workload(args, fpsim, import_s)
    except Exception as exc:  # one failed operation: report it, do not hide it
        traceback.print_exc()
        result = {"error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
