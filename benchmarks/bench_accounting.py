"""Benchmark the accountant layer: the per-round column, cold solves, a
range refusal and a cold privacy sweep.

Every timing starts from an empty solver cache, so it includes building the
DP tables the computation needs, as a fresh process would.  One more cold
call per case, untimed and under tracemalloc, gives its peak of traced
memory and the bytes of the step-end tables the solver keeps afterwards.
Run from the repo root:

    python benchmarks/bench_accounting.py
    python benchmarks/bench_accounting.py --repeats 5
"""

from __future__ import annotations

import argparse
import tempfile
import time
import tracemalloc
from pathlib import Path

from fpsim import accounting, harness
from fpsim.accounting import ParticipationSchema
from fpsim.config import SweepConfig

# The cumulative_zcdp column of perfbench's long_small run at seed 0: 700
# rounds, a 20-round timer, the periodic restart at round 128, and the
# observed limits of its log (max_part 14, min_sep 20).
COLUMN_SCHEMA = ParticipationSchema(700, 20, 14, (128,))

# The same run's timer worst case, max_part ceil(700 / 20) = 35: what the
# column accounted before it read the log, and what `fpsim sweep` and
# `fpsim account` with flags report for that timer.
TIMER_SCHEMA = ParticipationSchema(700, 20, 35, (128,))

# One 2048-round tree at min_sep 1000: the wide-table cold solve.
WIDE_SCHEMA = ParticipationSchema(2048, 1000, 3)

# Twice as wide and twice as long.
WIDER_SCHEMA = ParticipationSchema(4096, 2000, 3)

# Production-scale timers: min_sep 4000 and 8000, where dense int32 tables
# would take 64 MB and 256 MB each.
WIDEST_SCHEMAS = (ParticipationSchema(8192, 4000, 3), ParticipationSchema(16384, 8000, 3))

# Every round hit at min_sep 1: thousands of 1x1 tables, so the per-table
# cost of the build dominates, not its arithmetic.
TINY_SCHEMA = ParticipationSchema(1024, 1, 1024)

# One participation a round over 33000 rounds (``fpsim account --rounds
# 33000 --min-sep 1 --max-part 33000``): past the solver's int32 range, so
# the call is the refusal.
REFUSED_SCHEMA = ParticipationSchema(33000, 1, 33000)

# The production shape of acceptance test 11: min_sep 313, at most 7
# participations, the periodic restarts (first 128, period 1024) over 2048
# rounds.  Its prefix column is the case where the fold's split sums run
# on wide tables.
PRODUCTION_SCHEMA = ParticipationSchema(2048, 313, 7, (128, 1152))

# Acceptance test 10's grid: populations 10^5, 3 * 10^5 and 10^6 at report
# goal 100 and z 7, each at scaling 1 and 2, over 2048 rounds: six rows,
# min_sep 500 to 10000.
SWEEP_GRIDS = tuple(
    SweepConfig(7.0, 100, population, (2048,), scaling=(1.0, 2.0))
    for population in (100_000, 300_000, 1_000_000)
)


def _sweep(out: Path) -> None:
    """The sweep of every grid in SWEEP_GRIDS, each written to ``out``."""
    for grid in SWEEP_GRIDS:
        harness.sweep_privacy(grid, out / "sweep.csv")


def _refused(schema: ParticipationSchema) -> None:
    """worst_case_sensitivity_sq of ``schema``, which must be refused."""
    try:
        accounting.worst_case_sensitivity_sq(schema)
    except OverflowError:
        return
    raise AssertionError(f"{schema} was not refused")


def _time_cold(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time of one call from an empty solver cache,
    in seconds."""
    best = float("inf")
    for _ in range(repeats):
        accounting._SOLVER_CACHE.clear()
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _memory_cold(fn) -> tuple[int, int]:
    """(tracemalloc peak, bytes of the cached step-end tables) of one call
    from an empty solver cache."""
    accounting._SOLVER_CACHE.clear()
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tables = sum(
        array.nbytes
        for solver in accounting._SOLVER_CACHE.values()
        for level in solver._levels
        for array in level
    )
    return peak, tables


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3, help="cold calls per timing")
    args = parser.parse_args()

    sweep_dir = tempfile.TemporaryDirectory()
    cases = tuple(
        (
            f"{label}, {schema.total_rounds} rounds",
            schema,
            lambda schema=schema: accounting.prefix_sensitivity_sq(schema),
        )
        for label, schema in (
            ("prefix column", COLUMN_SCHEMA),
            ("prefix, timer worst case", TIMER_SCHEMA),
            ("prefix column", PRODUCTION_SCHEMA),
            ("prefix column", WIDEST_SCHEMAS[1]),
        )
    ) + tuple(
        (
            f"cold solve, {schema.total_rounds} rounds",
            schema,
            lambda schema=schema: accounting.worst_case_sensitivity_sq(schema),
        )
        for schema in (WIDE_SCHEMA, WIDER_SCHEMA, *WIDEST_SCHEMAS, TINY_SCHEMA, PRODUCTION_SCHEMA)
    ) + (
        (
            f"range refusal, {REFUSED_SCHEMA.total_rounds} rounds",
            REFUSED_SCHEMA,
            lambda: _refused(REFUSED_SCHEMA),
        ),
        ("sweep_privacy, test_10 grid", None, lambda: _sweep(Path(sweep_dir.name))),
    )
    print(
        f"accountant (seconds per call, best of {args.repeats}, cold solver cache; "
        "peak traced MB and cached-table MB of one more cold call)"
    )
    print(
        f"  {'case':<36}{'min_sep':>8}{'max_part':>9}{'restarts':>9}"
        f"{'seconds':>10}{'peak MB':>10}{'tables MB':>11}"
    )
    for label, schema, call in cases:
        seconds = _time_cold(call, args.repeats)
        peak, tables = _memory_cold(call)
        # The sweep's six rows span several schemas.
        shape = ("-",) * 3
        if schema is not None:
            shape = (schema.min_sep, schema.max_part, len(schema.restart_rounds))
        print(
            f"  {label:<36}{shape[0]:>8}{shape[1]:>9}{shape[2]:>9}"
            f"{seconds:>10.4f}{peak / 1e6:>10.1f}{tables / 1e6:>11.3f}"
        )
    sweep_dir.cleanup()


if __name__ == "__main__":
    main()
