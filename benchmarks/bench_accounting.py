"""Benchmark the accountant layer: the per-round column and cold solves.

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
import time
import tracemalloc

from fpsim import accounting
from fpsim.accounting import ParticipationSchema

# The timer's worst case for a 700-round run with a 20-round timer and the
# periodic restart at round 128: the cumulative_zcdp column of such a run.
COLUMN_SCHEMA = ParticipationSchema(700, 20, 35, (128,))

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

# The production shape of acceptance test 11: min_sep 313, at most 7
# participations, the periodic restarts (first 128, period 1024) over 2048
# rounds.  Its prefix column is
# where the fold's split sums run on wide tables.
PRODUCTION_SCHEMA = ParticipationSchema(2048, 313, 7, (128, 1152))


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

    cases = tuple(
        (
            f"prefix column, {schema.total_rounds} rounds",
            schema,
            lambda schema=schema: accounting.prefix_sensitivity_sq(schema),
        )
        for schema in (COLUMN_SCHEMA, PRODUCTION_SCHEMA)
    ) + tuple(
        (
            f"cold solve, {schema.total_rounds} rounds",
            schema,
            lambda schema=schema: accounting.worst_case_sensitivity_sq(schema),
        )
        for schema in (WIDE_SCHEMA, WIDER_SCHEMA, *WIDEST_SCHEMAS, TINY_SCHEMA, PRODUCTION_SCHEMA)
    )
    print(
        f"accountant (seconds per call, best of {args.repeats}, cold solver cache; "
        "peak traced MB and cached-table MB of one more cold call)"
    )
    print(
        f"  {'case':<28}{'min_sep':>8}{'max_part':>9}{'restarts':>9}"
        f"{'seconds':>10}{'peak MB':>10}{'tables MB':>11}"
    )
    for label, schema, call in cases:
        seconds = _time_cold(call, args.repeats)
        peak, tables = _memory_cold(call)
        restarts = len(schema.restart_rounds)
        print(
            f"  {label:<28}{schema.min_sep:>8}{schema.max_part:>9}{restarts:>9}"
            f"{seconds:>10.3f}{peak / 1e6:>10.1f}{tables / 1e6:>11.3f}"
        )


if __name__ == "__main__":
    main()
