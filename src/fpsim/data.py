"""Synthetic federated next-token corpus.

Each client holds a short token stream sampled from a Markov chain whose
transition rows are a mixture of a shared global table and a per-client
one:

    P_i(next | prev) = (1 - heterogeneity) * global[prev] + heterogeneity * local_i[prev]

All rows are Dirichlet(concentration * 1) draws; a small concentration
makes them peaked, so next-token prediction is learnable well above chance.
heterogeneity = 0 gives every client the same (public) distribution — the
pretraining corpus for warm starts; larger values push clients apart, the
desk-scale stand-in for real federated text.

The population is one packed (population, examples + window) token matrix
in the narrowest unsigned type that holds the vocabulary (token_dtype:
uint8 up to V = 256, uint16 up to 65 536), and every client's chain
advances in the same vectorised step, one step per token.  A global draw
inverts its row's CDF by one gather from a guide table over the
row-shifted CDF (Chen & Asau 1974); only the ~2% of keys (at V = 100)
whose bucket holds an entry or starts at a row boundary are searched in
the table itself.  Local rows are never materialised: repeated draws from
one Dirichlet(alpha * 1) row are a Pólya urn (Blackwell & MacQueen 1973),
so a client's local draw at context c copies one of its N earlier local
draws at c, chosen uniformly, with probability N / (V * alpha + N), and
otherwise is a uniform token.  The urn's only state is a matrix holding
the context of each local draw and -1 for each global one, in the
narrowest integer type that holds the vocabulary, so a client's balls at c
are one compare.  All clients' streams come from one generator, so the
data is a pure function of (seed, population), not of the client id alone.

The held-out eval stream is one chain of the global rows only, so it is not
vectorised but walked in Python scalars: one bisect of the same shifted
table per token, drawing the tokens a one-client vectorised chain draws
without that chain's array calls on one-element arrays at every step.  It
is stored in the same narrow type.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from fpsim.config import ExperimentConfig
from fpsim.seeds import SeedPath

__all__ = ["TokenDataset", "synthesize_clients", "synthesize_eval_set", "token_dtype"]


def token_dtype(vocab: int) -> np.dtype:
    """The type every stored token of a V-token vocabulary has: the
    narrowest one holding V - 1, uint8 up to V = 256 and uint16 up to
    65 536."""
    return np.min_scalar_type(vocab - 1)


@dataclass(frozen=True)
class TokenDataset:
    """(context window, next token) pairs of every client, as views of one
    (clients, n + window) token matrix of token_dtype(V): ``contexts``
    (clients, n, window) slides over each row and ``labels`` (clients, n)
    is its tail."""

    tokens: np.ndarray
    window: int

    @cached_property
    def contexts(self) -> np.ndarray:
        return sliding_window_view(self.tokens[:, :-1], self.window, axis=1)

    @property
    def labels(self) -> np.ndarray:
        return self.tokens[:, self.window :]

    def distinct_windows(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct context windows over all examples, (k, window) in
        lexicographic order, and each example's row among them, shaped like
        ``labels``.  At most V ** window windows are distinct, so scoring
        these k and indexing by the second array scores every example."""
        windows, inverse = np.unique(
            self.contexts.reshape(-1, self.window), axis=0, return_inverse=True
        )
        return windows, inverse.reshape(self.labels.shape)


# Bytes of _chains' guide table: 2048 one-byte buckets per row at V = 100.
_GUIDE_BYTES = 1 << 18


def _global_table(config: ExperimentConfig, seed: SeedPath) -> np.ndarray:
    """Row-wise cumulative transition table of the shared global chain."""
    rng = seed.child("global-table").generator()
    vocab = config.vocab_size
    rows = rng.dirichlet(np.full(vocab, config.concentration), size=vocab)
    return rows.cumsum(axis=1)


def _shifted_table(global_cdf: np.ndarray) -> np.ndarray:
    """Row r's CDF shifted by r, flattened: one search inverts every row's
    CDF."""
    return (global_cdf + np.arange(global_cdf.shape[0])[:, None]).ravel()


def _guide_table(shifted_cdf: np.ndarray, vocab: int) -> tuple[np.ndarray, int]:
    """The guide over the row-shifted table, and S, its buckets per unit of
    key: bucket b holds the keys in [b / S, (b + 1) / S), and S is the
    largest power of two (at least 1) whose V * S buckets of the narrowest
    type holding V fit in _GUIDE_BYTES, so key * S and its floor are exact.
    A bucket of row r that holds no entry and does not start at an integer
    holds the count of row r's entries below it, the token its keys draw.
    Every other bucket, and the last (key V), holds V: search.  So does a
    bucket above all of row r's entries, whose count is V."""
    dtype = np.min_scalar_type(vocab)
    scale = 1 << max(0, (_GUIDE_BYTES // (vocab * dtype.itemsize)).bit_length() - 1)
    # Each entry's bucket in its row, S for the entries at r + 1 and above.
    local = np.empty((vocab, vocab), dtype=np.intp)
    np.multiply(shifted_cdf.reshape(vocab, vocab), scale, out=local, casting="unsafe")
    local -= np.arange(0, vocab * scale, scale)[:, None]
    # The last entry in each occupied bucket carries its count along the row.
    rows, entries = np.nonzero(np.diff(local, axis=1, append=scale))
    occupied = local[rows, entries]
    guide = np.zeros(vocab * scale + 1, dtype=dtype)
    counts = guide[:-1].reshape(vocab, scale)
    counts[rows, occupied] = entries + 1
    np.maximum.accumulate(counts, axis=1, out=counts)
    counts[rows, occupied] = vocab
    guide[::scale] = vocab
    return guide, scale


def _chains(
    global_cdf: np.ndarray,
    concentration: float,
    population: int,
    length: int,
    heterogeneity: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """(population, length) token streams of the mixed chain, each the
    view past a uniform start token that is not part of the stream.
    Sampling a mixture is a coin flip selecting the row.

    A global draw inverts row prev's CDF at u: it is where the key prev + u
    falls in the row-shifted table, less prev * V.  Wherever "entry <= key"
    is true up to one index of the table and false after it, every binary
    search returns that index, whatever bracket it starts from.  The table
    is non-decreasing except where a row's CDF ends a few ulps above 1: its
    last entries can then sit an ulp above the next row's first ones, which
    are r + 1 exactly when that row's first probability is near zero.  A
    key with prev = r lies in [r, r + 1]; the entries of rows after r are
    at least r + 1, row r is non-decreasing, and the entries of rows before
    r exceed r only by row r - 1's few-ulp overshoot, which lies in the
    bucket starting at r.  So every key in a bucket of the guide
    (_guide_table) that holds no entry and does not start at an integer
    sees one such index, the same for all of them, and the guide holds its
    token.  The other keys, those where u is within a few ulps of 0 or 1
    among them, are searched in sorted order, each binary search starting
    where the last one ended.  Neither the guide nor key order changes a
    draw but where the table steps down at a row boundary, a chance of
    order r * 2^-52 per draw; there a search depends on the neighbouring
    searched key's search as well.

    The tokens are stored in token_dtype(V), but every key, offset and
    product is computed on an int64 copy of the previous column: on the
    stored type, prev * vocab would wrap (uint8 * 100 stays uint8 under
    NEP 50), and the int64 copy draws the tokens the int64 chain always
    drew.

    The eval stream, one chain at heterogeneity 0, is not drawn here but
    walked by _walk, which draws the same tokens.
    """
    vocab = global_cdf.shape[0]
    shifted_cdf = _shifted_table(global_cdf)
    guide, scale = _guide_table(shifted_cdf, vocab)
    tokens = np.empty((population, length + 1), dtype=token_dtype(vocab))
    # The context each local draw was made at (none at heterogeneity 0), -1
    # for a global draw: -vocab's type is the narrowest holding -1 and every token.
    kept = population if heterogeneity else 0
    contexts = np.full((kept, length + 1), -1, dtype=np.min_scalar_type(-vocab))
    tokens[:, 0] = rng.integers(vocab, size=population)
    for s in range(1, length + 1):
        prev = tokens[:, s - 1].astype(np.int64)
        keys = prev + rng.random(population)
        draws = guide[(keys * scale).astype(np.intp)]
        fallback = np.flatnonzero(draws == vocab)
        fallback = fallback[keys[fallback].argsort()]
        found = shifted_cdf.searchsorted(keys[fallback], side="right")
        found -= prev[fallback] * vocab
        draws[fallback] = np.clip(found, 0, vocab - 1)
        tokens[:, s] = draws
        if heterogeneity == 0.0:
            continue
        rows = np.flatnonzero(rng.random(population) < heterogeneity)
        context = prev[rows].astype(contexts.dtype)
        # The urn's balls: each client's earlier local draws at this context.
        balls = contexts[rows, 1:s] == context[:, None]
        contexts[rows, s] = context
        count = np.einsum("ij->i", balls, dtype=np.intp)
        pick = rng.random(rows.shape[0]) * (vocab * concentration + count)
        fresh = rng.integers(vocab, size=rows.shape[0])
        copy = pick < count
        if copy.any():
            # floor(pick) indexes the copied ball among the row's balls.
            ball = (balls[copy].cumsum(axis=1) > pick[copy, None]).argmax(axis=1)
            fresh[copy] = tokens[rows[copy], 1 + ball]
        tokens[rows, s] = fresh
    return tokens[:, 1:]


def _walk(global_cdf: np.ndarray, length: int, rng: np.random.Generator) -> np.ndarray:
    """The (length,) token stream of one global chain, past a uniform start
    token: the tokens of _chains(global_cdf, _, 1, length, 0.0, rng)[0].

    That chain reads the start token and then one uniform per step, and
    nothing else, so one rng.random(length) call yields the same doubles.
    The walk then inverts each row's CDF in Python scalars, bisecting a
    memoryview of the same row-shifted table.  bisect_right and a one-key
    ndarray.searchsorted(side="right") both search [0, len) with the same
    midpoints, moving the lower end where "entry <= key", so they return
    the same index even where the table steps down (see _chains); and
    int + float is the same IEEE addition as int64 + float64.
    """
    vocab = global_cdf.shape[0]
    top = vocab - 1
    table = _shifted_table(global_cdf).data
    prev = int(rng.integers(vocab, size=1)[0])
    tokens = np.empty(length, dtype=token_dtype(vocab))
    out = tokens.data
    for i, u in enumerate(rng.random(length).data):
        token = bisect_right(table, prev + u) - prev * vocab
        prev = out[i] = 0 if token < 0 else top if token > top else token
    return tokens


def synthesize_clients(config: ExperimentConfig, seed: SeedPath) -> TokenDataset:
    """Every client's examples_per_client examples, in one TokenDataset."""
    tokens = _chains(
        _global_table(config, seed),
        config.concentration,
        config.population,
        config.examples_per_client + config.window,
        config.heterogeneity,
        seed.child("client-streams").generator(),
    )
    return TokenDataset(tokens, config.window)


def synthesize_eval_set(config: ExperimentConfig, seed: SeedPath) -> TokenDataset:
    """Held-out stream from the global (public) distribution only: one
    client of eval_examples examples, walked token by token (_walk)."""
    tokens = _walk(
        _global_table(config, seed),
        config.eval_examples + config.window,
        seed.child("eval-stream").generator(),
    )
    return TokenDataset(tokens[None, :], config.window)
