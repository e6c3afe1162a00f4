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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fpsim import accounting
from fpsim.accounting import ParticipationSchema, PrivacyLedger
from fpsim.clipping import ClipState
from fpsim.config import ExperimentConfig, PrivacyTerms, SweepConfig
from fpsim.data import DataConfig, synthesize_clients, synthesize_eval_set
from fpsim.federation import (
    CohortConfig,
    ServerState,
    observed_limits,
    run_round,
    select_cohort,
)
from fpsim.models import NextTokenBOW
from fpsim.seeds import SeedPath
from fpsim.tree import init_tree

__all__ = [
    "METRICS_COLUMNS",
    "RunResult",
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
    (count,) = struct.unpack_from("<Q", blob, len(CHECKPOINT_MAGIC))
    data = np.frombuffer(blob, dtype="<f8", offset=len(CHECKPOINT_MAGIC) + 8)
    if data.shape[0] != count:
        raise ValueError(f"{path}: truncated checkpoint")
    return data.astype(np.float64)


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


def run_experiment(config: ExperimentConfig, out_dir: str | Path) -> RunResult:
    """Execute the full training loop and write the run directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    terms = config.privacy_terms()

    root = SeedPath(config.seed)
    data_cfg = DataConfig(
        vocab_size=config.vocab_size,
        window=config.window,
        examples_per_client=config.examples_per_client,
        heterogeneity=config.heterogeneity,
        concentration=config.concentration,
        eval_examples=config.eval_examples,
    )
    model = NextTokenBOW(vocab_size=config.vocab_size, window=config.window)
    data = synthesize_clients(data_cfg, config.population, root)
    eval_set = synthesize_eval_set(data_cfg, root)
    eval_contexts, eval_labels = eval_set.contexts[0], eval_set.labels[0]
    next_eligible = np.zeros(config.population, dtype=np.int64)

    if config.warm_start:
        theta0 = read_checkpoint(config.warm_start)
        if theta0.shape[0] != model.num_params:
            raise ValueError(
                f"warm_start checkpoint has {theta0.shape[0]} parameters, "
                f"model needs {model.num_params}"
            )
    else:
        theta0 = model.init_params(root.child("init"))

    clip_state = None
    if config.clip_mode == "adaptive":
        clip_state = ClipState(
            initial_estimate=config.clip_c0,
            target_quantile=config.clip_gamma,
            learning_rate=config.clip_eta_gamma,
            sigma_b=terms.sigma_b,
            cohort_size=config.report_goal,
            seed=root.child("clip"),
        )

    server = ServerState(
        model=model,
        theta0=theta0,
        eta_s=config.eta_s,
        beta=config.beta,
        report_goal=config.report_goal,
        delta_tree=init_tree(
            terms.z_delta, config.clip_c0, model.num_params, root.child("delta-tree")
        ),
        clip=clip_state,
        fixed_clip=config.clip_c0,
        restart_schedule=config.restart_schedule(),
        seed=root.child("federation"),
        eta_c=config.eta_c,
        batch_size=config.batch_size,
        epochs=config.epochs,
        secagg=terms.secagg,
    )
    cohort_cfg = CohortConfig(
        report_goal=config.report_goal,
        timer_rounds=config.timer_rounds,
        availability=config.availability(),
    )

    history = []
    # Row t holds round t's cohort: the participation log.
    log = np.empty((config.rounds, config.report_goal), dtype=np.int64)
    for t in range(config.rounds):
        cohort_ids = select_cohort(next_eligible, cohort_cfg, t, root.child("selection"))
        log[t] = cohort_ids
        round_metrics = run_round(server, cohort_ids, data)
        eval_acc = model.accuracy(server.theta, eval_contexts, eval_labels)
        history.append((eval_acc, round_metrics))

    # The worst case the timer allows after each round, all prefixes in one
    # accountant pass.
    timer_schema = ParticipationSchema(*terms.timer_schema)
    cumulative_rho = accounting.prefix_zcdp(terms.z_equiv, timer_schema)
    metrics_rows = [
        (
            m.round,
            eval_acc,
            m.train_loss,
            m.active_clip,
            m.quantile_estimate,
            m.cohort_size,
            rho * terms.sensitivity_scale**2,
            m.bits_per_update,
        )
        for (eval_acc, m), rho in zip(history, cumulative_rho)
    ]
    _write_csv(out / "metrics.csv", METRICS_COLUMNS, metrics_rows)
    write_checkpoint(out / "checkpoint.bin", server.theta)
    client_ids = log.ravel()
    rounds = np.repeat(np.arange(config.rounds), config.report_goal)
    order = np.lexsort((rounds, client_ids))
    pairs = list(zip(client_ids[order].tolist(), rounds[order].tolist()))
    _write_csv(out / "participation.csv", ("client_id", "round"), pairs)
    if terms.secagg is not None:
        _write_csv(
            out / "secagg.csv",
            ("round", "bits_per_update", "linf_clamp_fraction", "roundtrip_residual"),
            [
                (m.round, m.bits_per_update, m.secagg_clamp_fraction, m.secagg_residual)
                for _, m in history
            ],
        )
    (out / "config.resolved").write_text(config.canonical_text())

    row = _observed_report(config, observed_limits(client_ids, rounds, config.rounds), terms)
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
        lines.append("NOTE: noise multiplier 0 — this run is NOT differentially private.")
    lines.append("")
    lines.append("caveats:")
    for caveat in CAVEATS:
        lines.append(f"  - {caveat}")
    lines.append("")
    return "\n".join(lines)


def privacy_report(
    total_rounds: int,
    min_sep: int,
    max_part: int,
    restart_rounds: tuple[int, ...],
    z_equiv: float,
    sensitivity_scale: float = 1.0,
    config: ExperimentConfig | None = None,
    delta: float = REPORT_DELTA,
) -> dict[str, object]:
    """The report row (REPORT_COLUMNS) for one participation schema, with
    epsilon at ``delta``.

    ``config``, when given, supplies the configured noise multiplier and the
    config hash; without it they are ``z_equiv`` and empty.
    """
    schema = ParticipationSchema(
        total_rounds=total_rounds,
        min_sep=min_sep,
        max_part=max_part,
        restart_rounds=restart_rounds,
    )
    ledger = PrivacyLedger(schema=schema, z=z_equiv, sensitivity_scale=sensitivity_scale)
    return {
        "total_rounds": ledger.schema.total_rounds,
        "observed_max_part": max_part,
        "observed_min_sep": min_sep,
        "restart_rounds": ";".join(str(r) for r in ledger.schema.restart_rounds),
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
    config: ExperimentConfig,
    limits: tuple[int, int],
    terms: PrivacyTerms,
    delta: float = REPORT_DELTA,
) -> dict[str, object]:
    """A run's report row from the (max_part, min_sep) its participation log
    attains (observed_limits), accounted at the run's privacy terms."""
    total_rounds, _, _, restart_rounds = terms.timer_schema
    max_part, min_sep = limits
    return privacy_report(
        total_rounds,
        min_sep,
        max_part,
        restart_rounds,
        terms.z_equiv,
        terms.sensitivity_scale,
        config,
        delta,
    )


def post_hoc_report(run_dir: str | Path, delta: float = REPORT_DELTA) -> dict[str, object]:
    """Recompute a finished run's privacy report, with epsilon at ``delta``,
    from its participation log and resolved config (the `account --run`
    path).  A log no run could have written (a round outside the run, a
    negative id, a repeated pair, a round without report_goal clients, a
    client back before timer_rounds have passed) is a ValueError naming the
    file."""
    run = Path(run_dir)
    config = ExperimentConfig.from_file(run / "config.resolved")
    path = run / "participation.csv"
    with open(path, newline="") as fh:
        rows = [(int(row["client_id"]), int(row["round"])) for row in csv.DictReader(fh)]
    pairs = np.array(rows, dtype=np.int64).reshape(-1, 2)
    client_ids, rounds = pairs.T
    outside = rounds[(rounds < 0) | (rounds >= config.rounds)]
    if outside.size:
        raise ValueError(f"{path}: round {outside[0]} lies outside [0, {config.rounds})")
    if client_ids.min(initial=0) < 0:
        raise ValueError(f"{path}: negative client id {client_ids.min()}")
    unique, counts = np.unique(pairs, axis=0, return_counts=True)
    if (counts > 1).any():
        client_id, round_index = unique[counts > 1][0]
        raise ValueError(f"{path}: client {client_id} is listed twice for round {round_index}")
    cohort_sizes = np.bincount(rounds, minlength=config.rounds)
    (short,) = np.nonzero(cohort_sizes != config.report_goal)
    if short.size:
        raise ValueError(
            f"{path}: round {short[0]} lists {cohort_sizes[short[0]]} clients, "
            f"not report_goal = {config.report_goal}"
        )
    limits = observed_limits(client_ids, rounds, config.rounds)
    # With no client back at all, min_sep reads config.rounds.
    if limits[1] < min(config.timer_rounds, config.rounds):
        raise ValueError(
            f"{path}: a client returns {limits[1]} round(s) after its previous one, "
            f"under timer_rounds = {config.timer_rounds}"
        )
    return _observed_report(config, limits, config.privacy_terms(), delta)


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
