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
the same config twice produces byte-identical metrics and checkpoints.
The privacy report is computed from the observed participation log
(tighter than the schedule's worst case) and is internally consistent:
re-running the accountant on the logged limits reproduces the reported
rho exactly.
"""

from __future__ import annotations

import csv
import math
import struct
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from fpsim import accounting
from fpsim.accounting import ParticipationSchema, PrivacyLedger
from fpsim.config import ExperimentConfig, SweepConfig
from fpsim.data import synthesize_clients, synthesize_eval_set
from fpsim.federation import RunState, observed_limits, run_round, select_cohort
from fpsim.models import NextTokenBOW
from fpsim.seeds import SeedPath

__all__ = [
    "METRICS_COLUMNS",
    "RunResult",
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


def _write_participation(path: Path, client_ids: np.ndarray, rounds: np.ndarray) -> None:
    """Write the (client_id, round) pairs sorted by client, then round,
    under a ``client_id,round`` header, _PARTICIPATION_CHUNK_ROWS rows per
    write.  Integers need no csv quoting: each chunk is one joined string."""
    order = np.lexsort((rounds, client_ids))
    with open(path, "w", newline="") as fh:
        fh.write("client_id,round\n")
        for start in range(0, order.size, _PARTICIPATION_CHUNK_ROWS):
            rows = order[start : start + _PARTICIPATION_CHUNK_ROWS]
            pairs = zip(client_ids[rows].tolist(), rounds[rows].tolist())
            fh.write("".join(f"{c},{r}\n" for c, r in pairs))


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


def start_run(config: ExperimentConfig) -> RunState:
    """Synthesize the population and the eval set, read or initialize
    theta0, and build the state of a run about to play its round 0."""
    root = SeedPath(config.seed)
    model = NextTokenBOW(vocab_size=config.vocab_size, window=config.window)
    data = synthesize_clients(config, root)
    eval_set = synthesize_eval_set(config, root)
    if config.warm_start:
        theta0 = read_checkpoint(config.warm_start)
        if theta0.shape[0] != model.num_params:
            raise ValueError(
                f"warm_start checkpoint has {theta0.shape[0]} parameters, "
                f"model needs {model.num_params}"
            )
    else:
        theta0 = model.init_params()
    return RunState(config, data, eval_set, theta0)


def run_experiment(config: ExperimentConfig, out_dir: str | Path) -> RunResult:
    """Execute the full training loop and write the run directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    state = start_run(config)
    selection = SeedPath(config.seed).child("selection")
    # Each round scores every distinct eval window once; the same float as
    # the mean of per-example predictions equal to their labels.
    windows, inverse = state.eval_set.distinct_windows()
    for t in range(config.rounds):
        cohort_ids = select_cohort(state.next_eligible, config, t, selection)
        state.log[t] = cohort_ids
        round_metrics = run_round(state, cohort_ids)
        predictions = state.model.predict(state.theta, windows)[inverse]
        eval_acc = float((predictions == state.eval_set.labels).mean())
        state.history.append((eval_acc, round_metrics))
    return _finish(state, out)


def _finish(state: RunState, out: Path) -> RunResult:
    """Write a finished run's artifacts and report."""
    config, terms = state.config, state.terms
    # The worst case the timer allows after each round, all prefixes in one
    # accountant pass.
    cumulative_rho = accounting.prefix_zcdp(
        terms.z_equiv, terms.timer_schema, terms.sensitivity_scale
    )
    metrics_rows = [
        (
            m.round,
            eval_acc,
            m.train_loss,
            m.active_clip,
            m.quantile_estimate,
            m.cohort_size,
            rho,
            m.bits_per_update,
        )
        for (eval_acc, m), rho in zip(state.history, cumulative_rho)
    ]
    _write_csv(out / "metrics.csv", METRICS_COLUMNS, metrics_rows)
    write_checkpoint(out / "checkpoint.bin", state.theta)
    client_ids = state.log.ravel()
    rounds = np.repeat(np.arange(config.rounds), config.report_goal)
    _write_participation(out / "participation.csv", client_ids, rounds)
    if terms.secagg is not None:
        _write_csv(
            out / "secagg.csv",
            ("round", "bits_per_update", "linf_clamp_fraction", "roundtrip_residual"),
            [
                (m.round, m.bits_per_update, m.secagg_clamp_fraction, m.secagg_residual)
                for _, m in state.history
            ],
        )
    (out / "config.resolved").write_text(config.canonical_text())

    row = _observed_report(config, observed_limits(client_ids, rounds, config.rounds))
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
        # A nonzero z can still leave rho infinite when 2 z^2 underflows.
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
    ledger = PrivacyLedger(schema=schema, z=z_equiv, sensitivity_scale=sensitivity_scale)
    return {
        "total_rounds": schema.total_rounds,
        "observed_max_part": schema.max_part,
        "observed_min_sep": schema.min_sep,
        "restart_rounds": ";".join(str(r) for r in schema.restart_rounds),
        "noise_multiplier": config.noise_multiplier if config else ledger.z,
        "z_equivalent": ledger.z,
        "sensitivity_scale": ledger.sensitivity_scale,
        "rho": ledger.rho,
        "delta": delta,
        "epsilon": ledger.epsilon(delta),
        "epsilon_loose": ledger.loose_epsilon(delta),
        "config_hash": config.config_hash() if config else "",
    }


def _observed_report(
    config: ExperimentConfig, limits: tuple[int, int], delta: float = REPORT_DELTA
) -> dict[str, object]:
    """A run's report row from the (max_part, min_sep) its participation log
    attains (observed_limits), accounted at the run's privacy terms."""
    terms = config.privacy_terms()
    max_part, min_sep = limits
    schema = replace(terms.timer_schema, max_part=max_part, min_sep=min_sep)
    return privacy_report(schema, terms.z_equiv, terms.sensitivity_scale, config, delta)


def post_hoc_report(run_dir: str | Path, delta: float = REPORT_DELTA) -> dict[str, object]:
    """Recompute a finished run's privacy report, with epsilon at ``delta``,
    from its participation log and resolved config (the `account --run`
    path).  A log no run could have written (another header, a malformed
    row, a round outside the run, a negative id, a repeated pair, a
    round without report_goal clients, a client back before timer_rounds
    have passed) is a ValueError naming the file."""
    run = Path(run_dir)
    config = ExperimentConfig.from_file(run / "config.resolved")
    path = run / "participation.csv"
    with open(path) as fh:
        if (header := fh.readline().rstrip("\r\n")) != "client_id,round":
            raise ValueError(f"{path}: header {header!r} is not 'client_id,round'")
    try:
        # numpy parses a named file in C; a header-only log warns, reads (0, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            pairs = np.loadtxt(path, np.int64, delimiter=",", skiprows=1, usecols=(0, 1), ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    client_ids, rounds = pairs.T
    outside = rounds[(rounds < 0) | (rounds >= config.rounds)]
    if outside.size:
        raise ValueError(f"{path}: round {outside[0]} lies outside [0, {config.rounds})")
    if client_ids.min(initial=0) < 0:
        raise ValueError(f"{path}: negative client id {client_ids.min()}")
    limits = observed_limits(client_ids, rounds, config.rounds)
    # A repeated pair is a zero gap between a client's sorted rounds.
    if limits[1] == 0:
        ordered = pairs[np.lexsort((rounds, client_ids))]
        first = np.flatnonzero((ordered[1:] == ordered[:-1]).all(axis=1))[0]
        client_id, round_index = ordered[first]
        raise ValueError(f"{path}: client {client_id} is listed twice for round {round_index}")
    cohort_sizes = np.bincount(rounds, minlength=config.rounds)
    (short,) = np.nonzero(cohort_sizes != config.report_goal)
    if short.size:
        raise ValueError(
            f"{path}: round {short[0]} lists {cohort_sizes[short[0]]} clients, "
            f"not report_goal = {config.report_goal}"
        )
    # With no client back at all, min_sep reads config.rounds.
    if limits[1] < min(config.timer_rounds, config.rounds):
        raise ValueError(
            f"{path}: a client returns {limits[1]} round(s) after its previous one, "
            f"under timer_rounds = {config.timer_rounds}"
        )
    return _observed_report(config, limits, delta)


def sweep_privacy(sweep_cfg: SweepConfig, out_path: str | Path) -> list[tuple]:
    """Accountant sweep plus CSV emission."""
    rows = accounting.sweep(
        z=sweep_cfg.z,
        report_goal=sweep_cfg.report_goal,
        population=sweep_cfg.population,
        total_rounds_range=sweep_cfg.rounds,
        scaling=sweep_cfg.scaling,
    )
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, accounting.SWEEP_COLUMNS, rows)
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
