"""Time the two hot kernels: the fast Walsh-Hadamard transform and
stochastic rounding (fpsim._kernels, numpy), and the SecAgg client encode
that calls them. Run from the repo root:

    python benchmarks/bench_kernels.py
    python benchmarks/bench_kernels.py --sizes 4096 262144 --repeats 50
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from fpsim._kernels import fwht_inplace, stochastic_round
from fpsim.secagg import derive_config, encode_client
from fpsim.seeds import SeedPath, sign_vector

# The secagg_wide benchmark shape: d = 10^4 padded to 16384, scale 100,
# clip norm 1, cohort 20.
ENCODE_DIM = 10_000
ENCODE_SCALE = 100.0
ENCODE_CLIP = 1.0
ENCODE_COHORT = 20


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


def bench_encode(repeats: int) -> float:
    """One encode_client call at the secagg_wide shape, its rounding
    generators included.  The update has norm about 2, so the clip scales it."""
    config = derive_config(ENCODE_CLIP, ENCODE_SCALE, ENCODE_DIM, ENCODE_COHORT)
    signs = sign_vector(SeedPath(0).child("rotation"), config.padded_dim)
    delta = np.random.default_rng(2).normal(size=ENCODE_DIM) * 0.02
    seed = SeedPath(0).child("client")
    return _time_per_call(lambda: encode_client(delta, config, signs, seed), repeats)


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

    print("encode_client (microseconds per call, best of 3)")
    print(f"  {'d':>8}{'encode':>14}")
    print(f"  {ENCODE_DIM:>8}{bench_encode(args.repeats):>14.1f}")


if __name__ == "__main__":
    main()
