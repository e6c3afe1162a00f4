"""Time the data and training layers: population synthesis, one cohort's
local SGD, one whole round, and one eval-set accuracy, at the default
config's shapes (V = 100, window 1, 50 examples per client, cohort 100,
batch 16, 1000 eval examples).  ``sgd_step`` is one stacked minibatch step
at the shape a round trains at: ``NextTokenBOW.local_sgd`` on one block of
``_BLOCK_BYTES // (8 d)`` = 13 clients, one epoch of one 16-example batch.
Synthesis is timed at 10^4, 10^5 and 10^6 clients of 50 examples, with
its traced peak (tracemalloc, in MiB, the token matrix it returns
included), and at 10^4 x 500 and 2500 x 2000 examples, where the urn's
rescan of each client's history grows with the square of its length.  Each
synthesis row has a ``_fallback`` share: of the keys its global draws look
up in the guide table, the expected share whose bucket sends them on to
the search of the row-shifted CDF (the useful-to-attempted ratio of the
guide is one minus it).  The eval stream,
one chain walked a token at a time, is timed at 10^3, 10^4 and 10^5
examples, so its cost per token shows.  The eval is timed both ways:
``accuracy`` scores every example, and ``distinct_eval`` scores each
distinct window once and indexes the predictions back, as a run does
every round.  Both are also timed at the long small-model shape (V = 64,
concentration 0.5, 1000 eval examples).  ``run_round`` is timed at
report goals 100 and 1000 (V = 100), with the peak of the memory one round
allocates (tracemalloc, in MiB): the round works in fixed-size blocks of
clients, so the peak does not grow with the report goal.  Each round row
also counts the minor page faults per timed round (``ru_minflt``), so a
change that makes the round's large arrays come from fresh mmaps instead
of reused heap shows as a count.  ``participation_2048x100`` sorts a
2048-round, 100-client log (each round 100 distinct uniform ids below
10^5, as a cohort holds a client once) by client and writes
its participation.csv, as a finished run does, with the traced peak of
the sort and the write beyond the log itself;
``post_hoc_report_2048x100`` is its reader, ``post_hoc_report`` on the
log a run of that size writes (population 10^5), with its traced peak;
most of its time is the replay of the config's cohorts that checks the log.
``tree_add_round`` is the tree-noise layer at a run's shapes: 700 rounds
of a d = 10^4 TreeState and of the d = 1 clip-count tree, both restarted
at round 128, in ms per round (one add_round on each tree).  Run from the
repo root:

    PYTHONPATH=src python benchmarks/bench_training.py
    PYTHONPATH=src python benchmarks/bench_training.py --repeats 5

Each number is the best of ``--repeats`` timings, in milliseconds per call.
The last line is the same record as JSON, with the core count and the
traced peaks.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from fpsim import ExperimentConfig, post_hoc_report
from fpsim.data import _global_table, _guide_table, _shifted_table
from fpsim.data import synthesize_clients, synthesize_eval_set
from fpsim.federation import _BLOCK_BYTES, batch_orders, cohort_update, run_round
from fpsim.harness import _by_client, _write_participation, cohorts, start_run
from fpsim.models import NextTokenBOW
from fpsim.seeds import SeedPath
from fpsim.tree import TreeState

COHORT = 100
BATCH_SIZE = 16


def _best_ms(fn, repeats: int, calls: int = 1) -> float:
    """Best-of-``repeats`` wall time per call of ``fn``, in milliseconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - start) / calls)
    return best * 1e3


def _traced_peak_mb(fn) -> float:
    """The peak of the memory one call of ``fn`` allocates (tracemalloc),
    in MiB, what it returns included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _fallback_share(cfg: ExperimentConfig, seed: SeedPath, tokens: np.ndarray) -> float:
    """The expected share of a synthesis's guide lookups that fall back to
    the search: a key prev + u, u uniform, falls back with the share of
    row prev's buckets that hold V, averaged here over the previous token
    of every step but the first (whose start token is not kept)."""
    vocab = cfg.vocab_size
    guide, scale = _guide_table(_shifted_table(_global_table(cfg, seed)), vocab)
    share = (guide[:-1].reshape(vocab, scale) == vocab).mean(axis=1)
    prev = np.bincount(tokens[:, :-1].ravel(), minlength=vocab)
    return float(share @ prev / prev.sum())


def _time_synthesis(record: dict, name: str, cfg, seed, repeats: int, peak: bool) -> None:
    """Record synthesize_clients' best time on ``cfg``, its fallback share
    and, with ``peak``, its traced peak."""
    record[f"{name}_ms"] = _best_ms(lambda: synthesize_clients(cfg, seed), repeats)
    if peak:
        record[f"{name}_peak_mb"] = _traced_peak_mb(lambda: synthesize_clients(cfg, seed))
    tokens = synthesize_clients(cfg, seed).tokens
    record[f"{name}_fallback"] = _fallback_share(cfg, seed, tokens)


def _time_eval(record: dict, suffix: str, cfg, theta, seed, repeats: int) -> None:
    """Record ``accuracy`` and ``distinct_eval`` per call on ``cfg``'s eval
    set, and how many distinct windows it holds."""
    model = NextTokenBOW(vocab_size=cfg.vocab_size, window=cfg.window)
    eval_set = synthesize_eval_set(cfg, seed)
    contexts, labels = eval_set.contexts[0], eval_set.labels[0]
    windows, inverse = eval_set.distinct_windows()

    def distinct_eval():
        return float((model.predict(theta, windows)[inverse] == eval_set.labels).mean())

    def accuracy():
        return float((model.predict(theta, contexts) == labels).mean())

    assert distinct_eval() == accuracy()
    record[f"eval_windows{suffix}"] = len(windows)
    record[f"accuracy{suffix}_ms"] = _best_ms(accuracy, repeats, calls=50)
    record[f"distinct_eval{suffix}_ms"] = _best_ms(distinct_eval, repeats, calls=50)


def _time_round(record: dict, report_goal: int, repeats: int) -> None:
    """Record one run_round's best time, its minor page faults per round
    and its traced peak allocation at ``report_goal`` clients of the
    default shape."""
    cfg = ExperimentConfig(population=report_goal, report_goal=report_goal)
    state = start_run(cfg)
    cohort_ids = next(cohorts(cfg))
    record[f"run_round_{report_goal}_peak_mb"] = _traced_peak_mb(
        lambda: run_round(state, cohort_ids)
    )
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    record[f"run_round_{report_goal}_ms"] = _best_ms(
        lambda: run_round(state, cohort_ids), repeats, calls=5
    )
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    record[f"run_round_{report_goal}_minflt"] = faults / (repeats * 5)


def _time_participation(
    record: dict, repeats: int, rounds: int = 2048, report_goal: int = 100
) -> None:
    """Record the best time and traced peak of sorting a log of ``rounds``
    rows of ``report_goal`` distinct uniform client ids below 10^5 by client
    and writing its participation.csv."""
    rng = np.random.default_rng(0)
    log = np.stack([rng.choice(100_000, report_goal, replace=False) for _ in range(rounds)])
    name = f"participation_{rounds}x{report_goal}"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "participation.csv"

        def write():
            _write_participation(path, *_by_client(log))

        record[f"{name}_peak_mb"] = _traced_peak_mb(write)
        record[f"{name}_ms"] = _best_ms(write, repeats)


def _time_post_hoc(
    record: dict, repeats: int, rounds: int = 2048, report_goal: int = 100
) -> None:
    """Record post_hoc_report's best time and traced peak on the log of a
    run of ``rounds`` x ``report_goal`` clients from a population of 10^5,
    written as the run writes it.  The report replays the config's cohorts
    to check the log, so the time and the peak include that replay."""
    cfg = ExperimentConfig(rounds=rounds, population=100_000, report_goal=report_goal)
    log = np.array(list(cohorts(cfg)))
    name = f"post_hoc_report_{rounds}x{report_goal}"
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp)
        (run / "config.resolved").write_text(cfg.canonical_text())
        _write_participation(run / "participation.csv", *_by_client(log))
        record[f"{name}_peak_mb"] = _traced_peak_mb(lambda: post_hoc_report(run))
        record[f"{name}_ms"] = _best_ms(lambda: post_hoc_report(run), repeats)


def _time_tree(record: dict, repeats: int, rounds: int = 700, restart: int = 128) -> None:
    """Record TreeState.add_round per round for a d = 10^4 update tree and
    a d = 1 count tree, both restarted at ``restart``."""
    update = np.random.default_rng(0).normal(size=10_000)
    count = np.array([3.0])

    def run():
        trees = (
            (TreeState(1.0, 0.1, update.size, SeedPath(0).child("delta-tree")), update),
            (TreeState(5.0, 1.0, 1, SeedPath(0).child("clip-count")), count),
        )
        for t in range(rounds):
            for tree, x in trees:
                if t == restart:
                    tree.restart(tree.clip_norm)
                tree.add_round(x)

    record["tree_add_round_ms"] = _best_ms(run, repeats) / rounds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3, help="timings per case (best is kept)")
    args = parser.parse_args()

    seed = SeedPath(0)
    record: dict[str, object] = {
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "repeats": args.repeats,
    }
    for population in (10_000, 100_000, 1_000_000):
        cfg = ExperimentConfig(population=population)
        # One timing of the 10^6 population: each takes seconds and ~0.2 GB.
        repeats = 1 if population == 1_000_000 else args.repeats
        _time_synthesis(record, f"synthesize_clients_{population}", cfg, seed, repeats, True)
    for examples in (1000, 10_000, 100_000):
        cfg = ExperimentConfig(eval_examples=examples)
        record[f"synthesize_eval_set_{examples}_ms"] = _best_ms(
            lambda: synthesize_eval_set(cfg, seed), args.repeats, calls=max(1, 20_000 // examples)
        )
    for population, examples in ((10_000, 500), (2500, 2000)):
        cfg = ExperimentConfig(population=population, examples_per_client=examples)
        name = f"synthesize_clients_{population}x{examples}"
        _time_synthesis(record, name, cfg, seed, args.repeats, False)

    cfg = ExperimentConfig()
    data = synthesize_clients(cfg, seed)
    model = NextTokenBOW(vocab_size=cfg.vocab_size, window=cfg.window)
    theta = np.random.default_rng(0).normal(size=model.num_params) * 0.01
    cohort = np.arange(0, 10_000, 10_000 // COHORT)
    contexts, labels = data.contexts[cohort], data.labels[cohort]

    def step():
        rng = seed.child("local-order").generator()
        orders = batch_orders(rng, COHORT, cfg.examples_per_client, 1)
        cohort_update(model, theta, contexts, labels, orders, 0.1, 1.0, BATCH_SIZE)

    record["cohort_update_ms"] = _best_ms(step, args.repeats, calls=20)
    block = _BLOCK_BYTES // (8 * model.num_params)
    stack = np.tile(theta, (block, 1))
    block_contexts, block_labels = contexts[:block, :BATCH_SIZE], labels[:block, :BATCH_SIZE]
    block_orders = np.broadcast_to(np.arange(BATCH_SIZE), (1, block, BATCH_SIZE))
    record["sgd_step_ms"] = _best_ms(
        lambda: model.local_sgd(stack, block_contexts, block_labels, block_orders, 0.1, BATCH_SIZE),
        args.repeats,
        calls=100,
    )
    for report_goal in (100, 1000):
        _time_round(record, report_goal, args.repeats)

    _time_participation(record, args.repeats)
    _time_post_hoc(record, args.repeats)
    _time_tree(record, args.repeats)
    _time_eval(record, "", cfg, theta, seed, args.repeats)
    small = ExperimentConfig(vocab_size=64, concentration=0.5, eval_examples=1000)
    small_theta = np.random.default_rng(0).normal(size=small.vocab_size**2) * 0.01
    _time_eval(record, "_v64", small, small_theta, seed, args.repeats)

    cores = record["nproc"]
    print(
        f"data and training layers (ms per call, best of {args.repeats}, {cores} cores;"
        " peaks in MB, minor faults per round, fallback shares of guide lookups)"
    )
    for name, value in record.items():
        if name.endswith(("_ms", "_mb", "_minflt", "_fallback")):
            digits = 4 if name.endswith("_fallback") else 2
            print(f"  {name:<32}{value:>10.{digits}f}")
    print(json.dumps(record))


if __name__ == "__main__":
    main()
