"""Time the two hot kernels: the fast Walsh-Hadamard transform and
stochastic rounding (fpsim._kernels, numpy). Run from the repo root:

    python benchmarks/bench_kernels.py
    python benchmarks/bench_kernels.py --sizes 4096 262144 --repeats 50
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from fpsim._kernels import fwht_inplace, stochastic_round


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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[1024, 8192, 65536, 524288],
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


if __name__ == "__main__":
    main()
