"""fpsim benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; fpsim is imported from ./src.
Every repetition is a fresh interpreter (perfbench/worker.py), so every
timing is cold, as a command-line user sees it.

--trace 0 repeats the whole workload until --seconds is used up (at least
twice, so reruns can be compared byte for byte) and adds set-up probes,
runs stopped at the start of round 0, so that set-up time is a median of
at least three samples.  It reports the medians of the end-to-end metrics.

--trace 1 runs the workload untraced, traced, traced, untraced, and reports
the per-layer metrics of the traced runs plus the tracing overhead.

Human-readable detail goes to stdout first; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  The full record of
the run, every repetition included, is written to
.bench_runs/<workload>/seed<N>-trace<T>/result.json.  See
perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import SWEEP, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# Everything a run must finish inside, with room to print the result.
HARD_LIMIT_S = 170.0
MIN_FULL_REPS = 2
MAX_FULL_REPS = 12
MIN_SETUP_SAMPLES = 3
MAX_SETUP_SAMPLES = 9

# Seed-0 digests at the seed commit.  Cohort selection depends only on
# seeds and timers, and the report only on the participation log, so these
# files must not move under any refactor or speed-up.  metrics.csv and
# checkpoint.bin are reported, not pinned: float sums may move at the
# rounding level when training is restructured.
PINNED_SEED0 = {
    "default_adaptive": {
        "participation.csv": "6e183cb9152e4d6c2ee425554d23340ef34ad3087898498a59274b6d0dfc75e2",
        "report.csv": "8f7c4da62cee8c1213eed6067c9e04dafe6b1a4754df64f28586beaede1b6b02",
    },
    "long_small": {
        "participation.csv": "3ab8f9a29853a8d57dd162b7ad59869e79e0b213fbe62084a28d44721230bfc5",
        "report.csv": "f2f9c8f4c940245dfed979b26fc146d68abd1cf958c86aab106836287ee0ada3",
    },
    "secagg_wide": {
        "participation.csv": "75b6628c1244b87e5dde1eacecd6266f9f4e1ef129f430471641d2603c5cdfcc",
        "report.csv": "c5d5b304b7a3a7ece2081da97576d7fcaa96ace82090aeccd8abb88c9ebbc4b5",
    },
}
# (total_rounds, report_goal, z, min_sep, max_part, rho); no randomness, so
# pinned at every seed.
PINNED_SWEEP_ROWS = [[2048, 100, 7.0, 1000, 3, 0.4489795918367347]]

# fpsim is single-threaded.  OpenBLAS's second thread only spins on its
# small matrix products (user CPU 1.9x wall, no wall-time gain, measured on
# secagg_wide), so workers run with one BLAS thread: the same on any core
# count, and the other core stays free.
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}


class NoProgram(Exception):
    """The checkout has no fpsim source to benchmark."""


def run_worker(workload: str, seed: int, out: Path, mode: str, started: float) -> dict:
    """One fresh-interpreter repetition; returns its record (with 'error'
    set when it failed)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--out", str(out)]
    if mode != "full":
        cmd.append(f"--{mode}")
    timeout = HARD_LIMIT_S - (time.perf_counter() - started)
    if timeout <= 1.0:
        return {"error": "no time left in this run", "mode": mode}
    wall = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=WORKER_ENV, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s", "mode": mode}
    wall = time.perf_counter() - wall
    if proc.returncode == 3:
        raise NoProgram(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    if proc.returncode != 0 and "error" not in record:
        record["error"] = f"worker exited {proc.returncode}"
    if "error" in record and proc.stderr:
        record["stderr"] = proc.stderr[-2000:]
    record["mode"] = mode
    record["process_wall_s"] = wall
    return record


def check_record(workload: str, seed: int, record: dict, reference: dict | None) -> list[str]:
    """Failures of one finished repetition: its own checks, the pins, and
    byte identity with the first repetition of the same seed."""
    if "error" in record:
        return [record["error"]]
    if record["mode"] == "setup-only":
        return []
    problems = [f"{name}: {why}" for name, why in record.get("checks", {}).items() if why]
    if workload == SWEEP:
        if record["sweep_rows"] != PINNED_SWEEP_ROWS:
            problems.append(f"sweep rows {record['sweep_rows']} != pinned {PINNED_SWEEP_ROWS}")
    elif seed == 0:
        for name, digest in PINNED_SEED0[workload].items():
            if record["digests"][name] != digest:
                problems.append(f"{name} digest {record['digests'][name]} != pinned {digest}")
    if reference is not None and record["digests"] != reference["digests"]:
        problems.append(f"rerun differs: {record['digests']} vs {reference['digests']}")
    return problems


class Run:
    """Repetitions of one (workload, seed) and their failure accounting."""

    def __init__(self, workload: str, seed: int, out: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.out = out
        self.started = time.perf_counter()
        self.records: list[dict] = []
        self.reference: dict | None = None

    def rep(self, mode: str) -> dict:
        record = run_worker(
            self.workload, self.seed, self.out / f"rep{len(self.records)}", mode, self.started
        )
        record["problems"] = check_record(self.workload, self.seed, record, self.reference)
        if mode != "setup-only" and "error" not in record and self.reference is None:
            self.reference = record
        self.records.append(record)
        return record

    def measured(self, mode: str) -> list[dict]:
        """Repetitions of `mode` that ran to the end.  A repetition that ran
        but failed a check still counts as a measurement; it is counted
        as failed, so the result reads correct=false."""
        return [r for r in self.records if r["mode"] == mode and "error" not in r]

    def elapsed(self) -> float:
        return time.perf_counter() - self.started


def measure(run: Run, seconds: float) -> None:
    """Whole-workload repetitions until `seconds` is used up, then set-up
    probes until set-up time has enough samples."""
    durations: list[float] = []
    while len(durations) < MAX_FULL_REPS:
        record = run.rep("full")
        durations.append(record.get("process_wall_s", 0.0))
        enough = len(run.measured("full")) >= MIN_FULL_REPS or len(durations) >= 2 * MIN_FULL_REPS
        if enough and run.elapsed() + statistics.median(durations) > seconds:
            break
    probes: list[float] = []
    while len(probes) < MAX_SETUP_SAMPLES:
        samples = len(run.measured("full")) + len(run.measured("setup-only"))
        if samples >= MAX_SETUP_SAMPLES:
            break
        estimate = statistics.median(probes) if probes else 0.0
        if samples >= MIN_SETUP_SAMPLES and run.elapsed() + estimate > seconds:
            break
        probes.append(run.rep("setup-only").get("process_wall_s", 0.0))


def median_of(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def end_to_end_metrics(run: Run) -> tuple[dict, dict]:
    full = run.measured("full")
    if not full:
        raise RuntimeError("no repetition of the workload ran to the end")
    setups = [r["setup_s"] for r in full + run.measured("setup-only")]
    metrics = {
        "run_s": {"value": median_of(full, "run_s"), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": median_of(full, "peak_rss_mb"), "unit": "MB"},
    }
    detail = {"samples": {"run_s": len(full), "setup_s": len(setups), "peak_rss_mb": len(full)}}
    if run.workload != SWEEP:
        for key in ("rounds_per_s", "round_ms_p50", "round_ms_p90", "final_eval_acc"):
            detail[key] = median_of(full, key)
        detail["round_samples"] = full[0]["round_samples"]
    return metrics, detail


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(run: Run) -> tuple[dict, dict]:
    plain = run.measured("full")
    traced = run.measured("traced")
    if not plain or not traced:
        raise RuntimeError("no untraced or no traced repetition ran to the end")
    # Counts are deterministic; times are medians over the repetitions.
    layers = traced[0]["layers"]
    metrics: dict[str, tuple[float, str]] = {}
    for name, entry in layers.items():
        if name == "tree.node_draws":
            metrics[name] = (entry["calls"], "count")
        else:
            metrics[f"{name}.calls"] = (entry["calls"], "count")
        self_s = statistics.median(r["layers"][name]["self_s"] for r in traced)
        metrics[f"{name}.self_s"] = (self_s, "s")
    encodes = layers["secagg.encode_client"]["calls"]
    metrics["secagg.attempts_per_encode"] = (ratio(layers["kernels.stochastic_round"]["calls"], encodes), "ratio")
    metrics["vectors.rotations_per_encode"] = (ratio(layers["vectors.randomized_hadamard"]["calls"], encodes), "ratio")
    metrics["kernels.fwht.ops"] = (traced[0]["fwht_ops"], "count")
    metrics["kernels.fwht.bytes"] = (traced[0]["fwht_bytes"], "bytes")
    traced_run_s = median_of(traced, "run_s")
    metrics["trace.run_s"] = (traced_run_s, "s")
    metrics["trace.overhead_s"] = (traced_run_s - median_of(plain, "run_s"), "s")
    metrics["trace.spans"] = (traced[0]["span_count"], "count")
    trains = run.workload != SWEEP
    for key, unit in (("rounds_per_s", "1/s"), ("round_ms_p50", "ms"), ("round_ms_p90", "ms")):
        metrics[f"loop.{key}"] = (median_of(plain, key) if trains else 0.0, unit)
    metrics["loop.round_samples"] = (plain[0]["round_samples"] if trains else 0, "count")
    metrics["quality.final_eval_acc"] = (plain[0]["final_eval_acc"] if trains else 0.0, "fraction")
    detail = {"untraced_run_s": [r["run_s"] for r in plain], "traced_run_s": [r["run_s"] for r in traced]}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail


def host_environment(worker_env: dict) -> dict:
    src = ROOT / "src" / "fpsim"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        **worker_env,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running worker, so no repetition outlives the benchmark.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "fpsim" / "__init__.py").is_file():
        print(f"no fpsim source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    out = ROOT / ".bench_runs" / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    run = Run(args.workload, args.seed, out)
    try:
        if args.trace:
            # ABBA order cancels a linear drift in machine speed out of
            # the tracing overhead.
            for mode in ("full", "traced", "traced", "full"):
                run.rep(mode)
            metrics, detail = per_layer_metrics(run)
        else:
            measure(run, args.seconds)
            metrics, detail = end_to_end_metrics(run)
    except NoProgram as exc:
        print(f"cannot run fpsim: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        for record in run.records:
            print(f"{record['mode']}: {record['problems']}", file=sys.stderr)
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    good = next(r for r in run.records if "env" in r)
    failed = sum(1 for r in run.records if r["problems"])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": host_environment(good["env"]),
        "metrics": metrics,
        "detail": detail,
        "digests": good.get("digests", {}),
        "repetitions": run.records,
    }
    (out / "result.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(report["environment"]))
    for record in run.records:
        status = "ok" if not record["problems"] else "FAILED " + "; ".join(record["problems"])
        shown = {k: record[k] for k in ("run_s", "setup_s", "peak_rss_mb") if k in record}
        print(f"  {record['mode']:>10}  {json.dumps(shown)}  {status}")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    print("detail " + json.dumps(detail))
    print("digests " + json.dumps(report["digests"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(run.records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
