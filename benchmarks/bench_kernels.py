"""Time the two hot kernels: the fast Walsh-Hadamard transform and
stochastic rounding (fpsim._kernels, numpy), the SecAgg block encode
that calls them (SecAggRound.add, per client, in a 1-row block and in the
13-row block run_round encodes at d = 10^4, each call folding its codes
into the round's running total), and one whole SecAgg round at the
secagg_wide shape (its 20 clients trained, encoded and summed, the sum
decoded). Run from the repo root:

    PYTHONPATH=src python benchmarks/bench_kernels.py
    PYTHONPATH=src python benchmarks/bench_kernels.py --sizes 4096 262144 --repeats 50
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from fpsim import ExperimentConfig
from fpsim.federation import run_round
from fpsim.harness import cohorts, start_run
from fpsim._kernels import fwht_inplace, stochastic_round
from fpsim.secagg import SecAggConfig, SecAggRound
from fpsim.seeds import SeedPath

# The secagg_wide benchmark shape: d = 10^4 padded to 16384, scale 100,
# clip norm 1, cohort 20.
ENCODE_DIM = 10_000
ENCODE_SCALE = 100.0
ENCODE_CLIP = 1.0
ENCODE_COHORT = 20

# Client rows per SecAggRound.add call: one client, and run_round's block at
# d = 10^4 (1 MB of float64 deltas, 13 rows).
ENCODE_ROWS = (1, 13)


def _time_per_call(fn, repeats: int) -> float:
    """Best-of-three wall time per call, in microseconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        best = min(best, (time.perf_counter() - start) / repeats)
    return best * 1e6


def bench_fwht(size: int, repeats: int) -> dict[str, float]:
    """The transform includes one copy of its input; "copy only" is that cost."""
    base = np.random.default_rng(0).normal(size=size)

    def call():
        fwht_inplace(base.copy())

    return {"copy only": _time_per_call(base.copy, repeats), "fwht": _time_per_call(call, repeats)}


def bench_round(size: int, repeats: int) -> dict[str, float]:
    rng = np.random.default_rng(1)
    x = rng.normal(size=size) * 100
    u = rng.uniform(size=size)
    out = np.empty(size)
    return {"round": _time_per_call(lambda: stochastic_round(x, u, out), repeats)}


def bench_encode(rows: int, repeats: int) -> float:
    """One SecAggRound.add call of ``rows`` clients at the secagg_wide
    shape, its rounding generators and the fold into the running total
    included, in microseconds per client.  Each update has norm about 2, so
    the clip scales it.  Every call adds the same clients to one round, its
    client count reset so that the cohort size never refuses them."""
    config = SecAggConfig(ENCODE_CLIP, ENCODE_SCALE, ENCODE_DIM, ENCODE_COHORT)
    secagg = SecAggRound(config, SeedPath(0), 0)
    deltas = np.random.default_rng(2).normal(size=(rows, ENCODE_DIM)) * 0.02
    client_ids = range(rows)

    def call():
        secagg.clients = 0
        secagg.add(deltas, client_ids)

    return _time_per_call(call, max(1, repeats // rows)) / rows


def bench_secagg_round(repeats: int) -> float:
    """One run_round of the secagg_wide config (population 2000, fixed
    clip 1, SecAgg on), in microseconds; every call is the next round of
    one run on the same cohort."""
    cfg = ExperimentConfig(
        population=2000,
        report_goal=ENCODE_COHORT,
        clip_mode="fixed",
        clip_c0=ENCODE_CLIP,
        secagg_enabled=True,
    )
    state = start_run(cfg)
    cohort_ids = next(cohorts(cfg))
    return _time_per_call(lambda: run_round(state, cohort_ids), max(1, repeats // 10))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[1024, 8192, 16384, 65536, 524288],
        help="vector lengths to benchmark (powers of two)",
    )
    parser.add_argument("--repeats", type=int, default=100, help="calls per timing loop")
    args = parser.parse_args()

    for label, bench in (("fwht_inplace", bench_fwht), ("stochastic_round", bench_round)):
        print(f"{label} (microseconds per call, best of 3)")
        rows = [(size, bench(size, args.repeats)) for size in args.sizes]
        names = list(rows[0][1])
        print(f"  {'size':>8}" + "".join(f"{name:>14}" for name in names))
        for size, result in rows:
            print(f"  {size:>8}" + "".join(f"{result[name]:>14.1f}" for name in names))
        print()

    print("SecAggRound.add (microseconds per client, best of 3)")
    print(f"  {'d':>8}{'rows':>8}{'encode':>14}")
    for rows in ENCODE_ROWS:
        print(f"  {ENCODE_DIM:>8}{rows:>8}{bench_encode(rows, args.repeats):>14.1f}")
    print()

    print("secagg_wide run_round (microseconds per call, best of 3)")
    print(f"  {'clients':>8}{'round':>14}")
    print(f"  {ENCODE_COHORT:>8}{bench_secagg_round(args.repeats):>14.1f}")


if __name__ == "__main__":
    main()
