"""Command-line entry points.

    fpsim run --config experiment.cfg [--out DIR]
    fpsim sweep --grid sweep.cfg [--out FILE]
    fpsim account (--run DIR | --rounds N --min-sep N --max-part N --z Z
                   [--restarts R1,R2,...] [--sensitivity-scale F]) [--delta D]
    fpsim compare RUN_A RUN_B [--threshold X]

Output locations default under FPSIM_OUTPUT_ROOT (falling back to ./runs).
All outputs are plain CSV/text.  Exit status is 0 on success and 1 on any
configuration or runtime failure, with a diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from fpsim import harness
from fpsim.accounting import ParticipationSchema
from fpsim.config import ConfigError, ExperimentConfig, SweepConfig

__all__ = ["main"]


def _output_root() -> Path:
    return Path(os.environ.get("FPSIM_OUTPUT_ROOT", "runs"))


def _cmd_run(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_file(args.config)
    out = Path(args.out) if args.out else _output_root() / config.config_hash()[:12]
    result = harness.run_experiment(config, out)
    print(f"run directory: {result.directory}")
    print(f"final accuracy: {result.final_accuracy!r}")
    print(f"rho (observed schema): {result.final_rho!r}")
    print(f"config hash: {result.config_hash}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    sweep_cfg = SweepConfig.from_file(args.grid)
    out = Path(args.out) if args.out else _output_root() / "sweep.csv"
    rows = harness.sweep_privacy(sweep_cfg, out)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


# What each error of the account flags' report names, and the flag that sets it.
_REPORT_FLAGS = (
    ("total_rounds", "--rounds"),
    ("min_sep", "--min-sep"),
    ("max_part", "--max-part"),
    ("restart round", "--restarts"),
    ("sensitivity_scale", "--sensitivity-scale"),
    ("z must", "--z"),
    ("delta must", "--delta"),
)


def _report_from_flags(args: argparse.Namespace) -> dict[str, object]:
    """The report row the account flags give; an invalid flag fails naming it."""
    try:
        restarts = tuple(int(r) for r in args.restarts.split(",")) if args.restarts else ()
    except ValueError as exc:
        raise ConfigError(f"--restarts: {exc}") from exc
    scale = 1.0 if args.sensitivity_scale is None else args.sensitivity_scale
    try:
        schema = ParticipationSchema(args.rounds, args.min_sep, args.max_part, restarts)
        return harness.privacy_report(schema, args.z, scale, delta=args.delta)
    except ValueError as exc:
        flag = next((flag for named, flag in _REPORT_FLAGS if named in str(exc)), "schema")
        raise ConfigError(f"{flag}: {exc}") from exc


def _cmd_account(args: argparse.Namespace) -> int:
    # The schema flags, the four that the flags path needs first.
    names = ("rounds", "min_sep", "max_part", "z", "restarts", "sensitivity_scale")
    flags = {"--" + name.replace("_", "-"): getattr(args, name) for name in names}
    if args.run:
        given = [flag for flag, value in flags.items() if value is not None]
        if given:
            raise ConfigError(f"--run accounts the run's own schema; drop {' '.join(given)}")
        row = harness.post_hoc_report(args.run, args.delta)
    else:
        missing = [flag for flag in list(flags)[:4] if flags[flag] is None]
        if missing:
            raise ConfigError(
                f"account needs --run or explicit schema flags; missing {' '.join(missing)}"
            )
        row = _report_from_flags(args)
    print(harness.render_report_text(row), end="")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    rows = harness.compare(args.run_a, args.run_b, args.threshold)
    columns = ("run", "final_accuracy", "threshold", "rounds_to_threshold", "rho")
    print(",".join(columns))
    for row in rows:
        print(",".join(str(row[c]) for c in columns))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpsim",
        description="Deterministic desk-scale simulator of federated learning "
        "with differential privacy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one training run from a config file")
    run.add_argument("--config", required=True, help="experiment config file")
    run.add_argument("--out", help="run directory (default: under FPSIM_OUTPUT_ROOT)")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="privacy sweep over a schedule grid")
    sweep.add_argument("--grid", required=True, help="sweep config file")
    sweep.add_argument("--out", help="output CSV path")
    sweep.set_defaults(func=_cmd_sweep)

    account = sub.add_parser("account", help="privacy report for a run or a schema")
    account.add_argument("--run", help="finished run directory (post-hoc accounting)")
    account.add_argument("--rounds", type=int, help="total rounds")
    account.add_argument("--min-sep", type=int, help="minimum separation between participations")
    account.add_argument("--max-part", type=int, help="maximum participations per client")
    account.add_argument("--restarts", help="comma-separated restart rounds")
    account.add_argument("--z", type=float, help="noise multiplier")
    account.add_argument(
        "--sensitivity-scale", type=float,
        help="sensitivity multiplier (secure-aggregation inflation; default 1)",
    )
    account.add_argument("--delta", type=float, default=harness.REPORT_DELTA)
    account.set_defaults(func=_cmd_account)

    cmp_parser = sub.add_parser("compare", help="align two finished runs")
    cmp_parser.add_argument("run_a")
    cmp_parser.add_argument("run_b")
    cmp_parser.add_argument("--threshold", type=float, help="accuracy threshold")
    cmp_parser.set_defaults(func=_cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
