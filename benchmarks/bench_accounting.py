"""Benchmark the accountant layer: the per-round column and cold solves.

Every timing starts from an empty solver cache, so it includes building the
DP tables the computation needs, as a fresh process would. Run from the
repo root:

    python benchmarks/bench_accounting.py
    python benchmarks/bench_accounting.py --repeats 5
"""

from __future__ import annotations

import argparse
import time

from fpsim import accounting
from fpsim.accounting import ParticipationSchema
from fpsim.tree import RestartSchedule

# The timer's worst case for a 700-round run with a 20-round timer and the
# periodic restart at round 128: the cumulative_zcdp column of such a run.
COLUMN_SCHEMA = ParticipationSchema(700, 20, 35, (128,))

# One 2048-round tree at min_sep 1000: the wide-table cold solve.
WIDE_SCHEMA = ParticipationSchema(2048, 1000, 3)

# Every round hit at min_sep 1: thousands of 1x1 tables, so the per-table
# cost of the build dominates, not its arithmetic.
TINY_SCHEMA = ParticipationSchema(1024, 1, 1024)

# The production shape of acceptance test 11: min_sep 313, at most 7
# participations, periodic restarts over 2048 rounds.
PRODUCTION_SCHEMA = ParticipationSchema(2048, 313, 7, RestartSchedule.periodic(2048).rounds)


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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3, help="cold calls per timing")
    args = parser.parse_args()

    cases = (
        (
            f"prefix column, {COLUMN_SCHEMA.total_rounds} rounds",
            COLUMN_SCHEMA,
            lambda: accounting.prefix_sensitivity_sq(COLUMN_SCHEMA),
        ),
    ) + tuple(
        (
            f"cold solve, {schema.total_rounds} rounds",
            schema,
            lambda schema=schema: accounting.worst_case_sensitivity_sq(schema),
        )
        for schema in (WIDE_SCHEMA, TINY_SCHEMA, PRODUCTION_SCHEMA)
    )
    print(f"accountant (seconds per call, best of {args.repeats}, cold solver cache)")
    print(f"  {'case':<28}{'min_sep':>8}{'max_part':>9}{'restarts':>9}{'seconds':>10}")
    for label, schema, call in cases:
        seconds = _time_cold(call, args.repeats)
        restarts = len(schema.restart_rounds)
        print(f"  {label:<28}{schema.min_sep:>8}{schema.max_part:>9}{restarts:>9}{seconds:>10.3f}")


if __name__ == "__main__":
    main()
