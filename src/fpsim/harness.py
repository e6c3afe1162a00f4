"""Experiment orchestration: full runs, privacy sweeps, run comparison.

A run writes a self-describing directory:

    metrics.csv        one row per round (schema below)
    checkpoint.bin     final parameters ("FPSIM1" magic, little-endian)
    participation.csv  (client_id, round) pairs, the post-hoc privacy log
    report.csv         machine-readable privacy report (one row)
    report.txt         the same report for humans, with caveats
    config.resolved    canonical config text whose hash names the run
    secagg.csv         per-round pipeline diagnostics (SecAgg runs only)

Everything is a pure function of the config (including its seed): running
the same config twice produces byte-identical metrics and checkpoints, and
the cohorts, from cohorts(config), never read training.  The harness owns
the participation log (row t is round t's cohort) and sorts it by client
once (_by_client): participation.csv is that order, and the rho column and
the privacy report account the limits read from it (never above the
timer's worst case).  post_hoc_report replays the config's log and accounts
only a participation.csv equal to it, byte for byte.
"""

from __future__ import annotations

import csv
import math
import struct
from collections.abc import Iterator
from dataclasses import dataclass, replace
from itertools import chain, zip_longest
from pathlib import Path

import numpy as np

from fpsim import accounting
from fpsim.accounting import ParticipationSchema
from fpsim.config import ExperimentConfig, SweepConfig
from fpsim.data import synthesize_clients, synthesize_eval_set
from fpsim.federation import RoundMetrics, RunState, check_exhaustion, run_round, select_cohort
from fpsim.models import NextTokenBOW
from fpsim.seeds import SeedPath

__all__ = [
    "METRICS_COLUMNS",
    "SWEEP_COLUMNS",
    "RunResult",
    "cohorts",
    "start_run",
    "run_experiment",
    "sweep_privacy",
    "compare",
    "write_checkpoint",
    "read_checkpoint",
    "read_metrics",
    "post_hoc_report",
    "privacy_report",
]

METRICS_COLUMNS = (
    "round",
    "eval_acc",
    "train_loss",
    "active_clip",
    "quantile_estimate",
    "cohort_size",
    "cumulative_zcdp",
    "bits_per_update",
)

SWEEP_COLUMNS = ("total_rounds", "report_goal", "z", "min_sep", "max_part", "rho")

REPORT_DELTA = 1e-10

CHECKPOINT_MAGIC = b"FPSIM1"

# participation.csv is formatted and written this many rows at a time, so
# the Python ints and strings of its rows never outgrow one chunk, however
# many rounds and clients a run logs.
_PARTICIPATION_CHUNK_ROWS = 1024


def write_checkpoint(path: str | Path, params: np.ndarray) -> None:
    params = np.asarray(params, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", params.shape[0]))
        fh.write(params.astype("<f8").tobytes())


def read_checkpoint(path: str | Path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    header = len(CHECKPOINT_MAGIC) + 8
    # A file too short for its count is held to the header's own length.
    count = struct.unpack_from("<Q", blob, len(CHECKPOINT_MAGIC))[0] if len(blob) >= header else 0
    expected = header + 8 * count
    if len(blob) != expected:
        raise ValueError(
            f"{path}: malformed checkpoint: {len(blob)} bytes, expected {expected} "
            f"({header}-byte header and {count} float64 parameters)"
        )
    return np.frombuffer(blob, dtype="<f8", offset=header).astype(np.float64)


def _format(value: object) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: tuple[str, ...], rows: list[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format(v) for v in row])


def _by_client(log: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The participation ``log``'s (client_ids, rounds) pairs sorted by client,
    then round: a stable sort of its round-major ids (row t is round t's
    cohort, in which a client is at most once)."""
    order = np.argsort(log, axis=None, kind="stable")
    return log.ravel()[order], order // log.shape[1]


def _participation_text(client_ids: np.ndarray, rounds: np.ndarray) -> Iterator[str]:
    """participation.csv: a ``client_id,round`` header, then the pairs as
    _by_client sorts them, as one joined string per _PARTICIPATION_CHUNK_ROWS."""
    yield "client_id,round\n"
    for start in range(0, client_ids.size, _PARTICIPATION_CHUNK_ROWS):
        rows = slice(start, start + _PARTICIPATION_CHUNK_ROWS)
        pairs = zip(client_ids[rows].tolist(), rounds[rows].tolist())
        yield "".join(f"{c},{r}\n" for c, r in pairs)


def _write_participation(path: Path, client_ids: np.ndarray, rounds: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        fh.writelines(_participation_text(client_ids, rounds))


def read_metrics(run_dir: str | Path) -> dict[str, list[float]]:
    """Metrics CSV as column lists (floats)."""
    path = Path(run_dir) / "metrics.csv"
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        columns: dict[str, list[float]] = {name: [] for name in reader.fieldnames or ()}
        for row in reader:
            for name, value in row.items():
                columns[name].append(float(value))
    return columns


@dataclass(frozen=True)
class RunResult:
    """Where a run landed and its headline numbers."""

    directory: Path
    final_accuracy: float
    final_rho: float
    observed_max_part: int
    observed_min_sep: int
    config_hash: str


def cohorts(config: ExperimentConfig) -> Iterator[list[int]]:
    """Each round's cohort of a run of ``config``, drawn as the round starts.
    Its timers and "selection" seeds never read training: the log is the config's."""
    next_eligible = np.zeros(config.population, dtype=np.int64)
    selection = SeedPath(config.seed).child("selection")
    for t in range(config.rounds):
        yield select_cohort(next_eligible, config, t, selection)


def start_run(config: ExperimentConfig) -> RunState:
    """The state of a run about to play its round 0.  The run's one check of
    what its config cannot vouch for, before synthesis: the timers must not
    exhaust the population, a private worst case must fit the accountant's
    range, and a warm start must have the model's width and finite entries."""
    check_exhaustion(config)
    terms = config.privacy_terms()
    if terms.z_equiv > 0:  # no run's accounted schema exceeds the timer's
        accounting.check_range(terms.timer_schema)
    model = NextTokenBOW(vocab_size=config.vocab_size, window=config.window)
    if config.warm_start:
        theta0 = read_checkpoint(config.warm_start)
        bad = np.count_nonzero(~np.isfinite(theta0))
        if theta0.shape[0] != model.num_params or bad:
            raise ValueError(
                f"{config.warm_start}: warm_start checkpoint has {theta0.shape[0]} parameters, "
                f"{bad} of them not finite; the model needs {model.num_params}, all finite"
            )
    else:
        theta0 = model.init_params()
    root = SeedPath(config.seed)
    data = synthesize_clients(config, root)
    eval_set = synthesize_eval_set(config, root)
    return RunState(config, data, eval_set, theta0)


def run_experiment(config: ExperimentConfig, out_dir: str | Path) -> RunResult:
    """Execute the full training loop and write the run directory."""
    state = start_run(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # Each round scores every distinct eval window once; the same float as
    # the mean of per-example predictions equal to their labels.
    windows, inverse = state.eval_set.distinct_windows()
    log = np.empty((config.rounds, config.report_goal), dtype=np.int64)
    history = []
    for t, cohort_ids in enumerate(cohorts(config)):
        log[t] = cohort_ids
        round_metrics = run_round(state, cohort_ids)
        predictions = state.model.predict(state.theta, windows)[inverse]
        eval_acc = float((predictions == state.eval_set.labels).mean())
        history.append((eval_acc, round_metrics))
    return _finish(state, log, history, out)


def _finish(
    state: RunState, log: np.ndarray, history: list[tuple[float, RoundMetrics]], out: Path
) -> RunResult:
    """Write a finished run's artifacts and report from its participation
    ``log`` and its ``history``, one (eval accuracy, RoundMetrics) a round."""
    config, terms = state.config, state.terms
    client_ids, rounds = _by_client(log)
    # Every prefix at the whole run's limits, in one pass: the config fixes the log.
    schema = _observed_schema(config, client_ids, rounds)
    cumulative_rho = accounting.prefix_zcdp(terms.z_equiv, schema, terms.sensitivity_scale)
    bits = 0 if terms.secagg is None else terms.secagg.bits_per_update
    metrics_rows = [
        (t, acc, m.train_loss, m.active_clip, m.quantile_estimate, config.report_goal, rho, bits)
        for t, ((acc, m), rho) in enumerate(zip(history, cumulative_rho))
    ]
    _write_csv(out / "metrics.csv", METRICS_COLUMNS, metrics_rows)
    write_checkpoint(out / "checkpoint.bin", state.theta)
    _write_participation(out / "participation.csv", client_ids, rounds)
    if terms.secagg is not None:
        _write_csv(
            out / "secagg.csv",
            ("round", "bits_per_update", "linf_clamp_fraction", "roundtrip_residual"),
            [
                (t, bits, m.secagg_clamp_fraction, m.secagg_residual)
                for t, (_, m) in enumerate(history)
            ],
        )
    (out / "config.resolved").write_text(config.canonical_text())

    row = privacy_report(schema, terms.z_equiv, terms.sensitivity_scale, config)
    _write_csv(out / "report.csv", REPORT_COLUMNS, [tuple(row[k] for k in REPORT_COLUMNS)])
    (out / "report.txt").write_text(render_report_text(row))

    return RunResult(
        directory=out,
        final_accuracy=metrics_rows[-1][1],
        final_rho=row["rho"],
        observed_max_part=row["observed_max_part"],
        observed_min_sep=row["observed_min_sep"],
        config_hash=config.config_hash(),
    )


REPORT_COLUMNS = (
    "total_rounds",
    "observed_max_part",
    "observed_min_sep",
    "restart_rounds",
    "noise_multiplier",
    "z_equivalent",
    "sensitivity_scale",
    "rho",
    "delta",
    "epsilon",
    "epsilon_loose",
    "config_hash",
)

CAVEATS = (
    "Guarantees cover the released model updates only. Hyperparameter "
    "tuning performed while choosing this configuration is not accounted.",
    "min_sep / max_part are observed post hoc from the participation log; "
    "the guarantee is conditional on that log.",
)


def render_report_text(row: dict[str, object]) -> str:
    lines = ["privacy report", "=============="]
    for key in REPORT_COLUMNS:
        lines.append(f"{key}: {_format(row[key])}")
    if isinstance(row["rho"], float) and math.isinf(row["rho"]):
        # Only z makes a reported rho infinite (accounting.gaussian_zcdp):
        # z = 0, or a nonzero z whose 2 z^2 underflows.
        cause = (
            "noise multiplier 0"
            if row["z_equivalent"] == 0
            else "rho is infinite: the noise multiplier is too small to account"
        )
        lines.append(f"NOTE: {cause} — this run is NOT differentially private.")
    lines.append("")
    lines.append("caveats:")
    for caveat in CAVEATS:
        lines.append(f"  - {caveat}")
    lines.append("")
    return "\n".join(lines)


def privacy_report(
    schema: ParticipationSchema,
    z_equiv: float,
    sensitivity_scale: float = 1.0,
    config: ExperimentConfig | None = None,
    delta: float = REPORT_DELTA,
) -> dict[str, object]:
    """The report row (REPORT_COLUMNS) for one participation schema, with
    epsilon at ``delta``.  The max_part and min_sep it prints are the
    schema's, the ones rho is accounted at.

    ``config``, when given, supplies the configured noise multiplier and the
    config hash; without it they are ``z_equiv`` and empty.
    """
    rho = accounting.zcdp(z_equiv, schema, sensitivity_scale)
    return {
        "total_rounds": schema.total_rounds,
        "observed_max_part": schema.max_part,
        "observed_min_sep": schema.min_sep,
        "restart_rounds": ";".join(str(r) for r in schema.restart_rounds),
        "noise_multiplier": config.noise_multiplier if config else z_equiv,
        "z_equivalent": z_equiv,
        "sensitivity_scale": sensitivity_scale,
        "rho": rho,
        "delta": delta,
        "epsilon": accounting.zcdp_to_eps(rho, delta),
        "epsilon_loose": math.inf if math.isinf(rho) else accounting.loose_eps(rho, delta),
        "config_hash": config.config_hash() if config else "",
    }


def _observed_schema(
    config: ExperimentConfig, client_ids: np.ndarray, rounds: np.ndarray
) -> ParticipationSchema:
    """The one schema a run is accounted at: the timer's, at the (max_part,
    min_sep) its participation log attains, read from the pairs _by_client
    sorted (min_sep is the run's length when no client takes part twice)."""
    repeat = client_ids[1:] == client_ids[:-1]
    min_sep = int(np.diff(rounds)[repeat].min(initial=config.rounds))
    max_part = int(np.bincount(client_ids).max())
    return replace(config.privacy_terms().timer_schema, max_part=max_part, min_sep=min_sep)


def post_hoc_report(run_dir: str | Path, delta: float = REPORT_DELTA) -> dict[str, object]:
    """Recompute a finished run's privacy report, with epsilon at ``delta``,
    from its resolved config (the `account --run` path).  Its participation.csv
    must be, byte for byte, the log the config's cohorts replay to; any other
    is a ValueError naming the file and its first differing line."""
    run = Path(run_dir)
    config = ExperimentConfig.from_file(run / "config.resolved")
    ids = chain.from_iterable(cohorts(config))
    log = np.fromiter(ids, np.int64, config.rounds * config.report_goal)
    client_ids, rounds = _by_client(log.reshape(config.rounds, config.report_goal))
    del log  # the file is read holding only the sorted pairs
    path, line = run / "participation.csv", 1
    with open(path, "rb") as fh:
        # The empty last chunk reads whatever the file holds past the log.
        for chunk in chain(_participation_text(client_ids, rounds), [""]):
            expected = chunk.encode()
            if (written := fh.read(len(expected) or -1)) != expected:
                lines = zip_longest(written.splitlines(True), expected.splitlines(True))
                line += next(n for n, (got, want) in enumerate(lines) if got != want)
                raise ValueError(f"{path}: line {line} differs from the config's log")
            line += chunk.count("\n")
    terms = config.privacy_terms()
    schema = _observed_schema(config, client_ids, rounds)
    return privacy_report(schema, terms.z_equiv, terms.sensitivity_scale, config, delta)


def sweep_privacy(sweep_cfg: SweepConfig, out_path: str | Path) -> list[tuple]:
    """Write the sweep table (SWEEP_COLUMNS), one row per run config of the
    grid (SweepConfig.run_configs): its rounds, report goal and noise
    multiplier, and the timer's worst case with its rho, the most rho a run
    of that config can report."""
    rows = []
    for config in sweep_cfg.run_configs():
        terms = config.privacy_terms()
        schema = terms.timer_schema
        rho = accounting.zcdp(terms.z_equiv, schema, terms.sensitivity_scale)
        row = (config.rounds, config.report_goal, config.noise_multiplier)
        rows.append((*row, schema.min_sep, schema.max_part, rho))
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, SWEEP_COLUMNS, rows)
    return rows


def compare(
    run_a: str | Path, run_b: str | Path, threshold: float | None = None
) -> list[dict[str, object]]:
    """Align two finished runs: final accuracy, rounds to an accuracy
    threshold (first crossing; default threshold is the smaller of the two
    final accuracies), and final rho."""
    dims = []
    for run in (run_a, run_b):
        params = read_checkpoint(Path(run) / "checkpoint.bin")
        dims.append(params.shape[0])
    if dims[0] != dims[1]:
        raise ValueError(f"model dimensions differ: {dims[0]} vs {dims[1]}")
    tables = [read_metrics(run) for run in (run_a, run_b)]
    finals = [t["eval_acc"][-1] for t in tables]
    if threshold is None:
        threshold = min(finals)
    out = []
    for run, table, final in zip((run_a, run_b), tables, finals):
        crossing = next(
            (int(r) for r, acc in zip(table["round"], table["eval_acc"]) if acc >= threshold),
            None,
        )
        with open(Path(run) / "report.csv", newline="") as fh:
            report = next(csv.DictReader(fh))
        out.append(
            {
                "run": str(run),
                "final_accuracy": final,
                "threshold": threshold,
                "rounds_to_threshold": crossing,
                "rho": float(report["rho"]),
            }
        )
    return out
