"""Tests for the synthetic next-token data generator.

Clients draw token streams from a mixture of one shared transition table and
a per-client table, with the mixture weight controlling heterogeneity. The
per-client tables are never built: local draws follow the Pólya urn that
marginalises a Dirichlet row. The tests pin determinism, shape contracts,
the sliding-window views, the urn's exactness, the memory bound, and the
statistical fingerprints that federated experiments rely on, and that the
vectorised sampler and the scalar eval walk draw the same tokens as the
reference in oracles.py.
"""

import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpsim import ExperimentConfig
from fpsim.data import _GUIDE_BYTES, _chains, _global_table, _guide_table, _walk, token_dtype
from fpsim.data import synthesize_clients, synthesize_eval_set
from fpsim.seeds import SeedPath
from oracles import reference_chains


def _cfg(population=1, **kw):
    """The corpus knobs under test, in a config of ``population`` clients
    (a one-client report goal and no noise, so any population is valid)."""
    base = dict(
        population=population,
        report_goal=1,
        noise_multiplier=0.0,
        vocab_size=12,
        window=1,
        examples_per_client=40,
        heterogeneity=0.3,
        concentration=0.1,
        eval_examples=200,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestDeterminism:
    def test_same_seed_same_data(self):
        cfg = _cfg(5)
        a = synthesize_clients(cfg, seed=SeedPath(1).child("data"))
        b = synthesize_clients(cfg, seed=SeedPath(1).child("data"))
        np.testing.assert_array_equal(a.tokens, b.tokens)
        np.testing.assert_array_equal(a.contexts, b.contexts)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seed_different_data(self):
        cfg = _cfg(3)
        a = synthesize_clients(cfg, seed=SeedPath(1).child("data"))
        b = synthesize_clients(cfg, seed=SeedPath(2).child("data"))
        assert not np.array_equal(a.labels, b.labels)

    def test_clients_differ_from_each_other(self):
        cfg = _cfg(4)
        data = synthesize_clients(cfg, seed=SeedPath(3).child("data"))
        assert not np.array_equal(data.labels[0], data.labels[1])

    def test_eval_set_deterministic(self):
        cfg = _cfg()
        a = synthesize_eval_set(cfg, seed=SeedPath(4).child("data"))
        b = synthesize_eval_set(cfg, seed=SeedPath(4).child("data"))
        np.testing.assert_array_equal(a.contexts, b.contexts)
        np.testing.assert_array_equal(a.labels, b.labels)


class TestShapes:
    def test_client_dataset_shapes(self):
        cfg = _cfg(3, window=2, examples_per_client=25)
        data = synthesize_clients(cfg, seed=SeedPath(5).child("data"))
        assert data.tokens.shape == (3, 27)
        assert data.tokens.dtype == np.uint8
        assert data.contexts.shape == (3, 25, 2)
        assert data.labels.shape == (3, 25)

    @pytest.mark.parametrize("vocab, dtype", [(2, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_tokens_are_stored_in_the_narrowest_type_holding_the_vocabulary(self, vocab, dtype):
        cfg = _cfg(4, vocab_size=vocab, examples_per_client=30)
        data = synthesize_clients(cfg, seed=SeedPath(5).child("data"))
        eval_set = synthesize_eval_set(cfg, seed=SeedPath(5).child("data"))
        assert data.tokens.dtype == dtype and eval_set.tokens.dtype == dtype
        assert token_dtype(vocab) == dtype

    def test_tokens_in_vocabulary(self):
        cfg = _cfg(5, vocab_size=7)
        data = synthesize_clients(cfg, seed=SeedPath(6).child("data"))
        assert data.tokens.min() >= 0 and data.tokens.max() < 7

    def test_eval_set_size(self):
        cfg = _cfg(eval_examples=333)
        ds = synthesize_eval_set(cfg, seed=SeedPath(7).child("data"))
        assert ds.contexts.shape == (1, 333, 1)
        assert ds.labels.shape == (1, 333)


class TestWindowStructure:
    def test_examples_slide_over_one_stream(self):
        """Consecutive examples come from one token stream: each label becomes
        the last context token of the next example, for every client."""
        cfg = _cfg(4, window=3, examples_per_client=30)
        data = synthesize_clients(cfg, seed=SeedPath(8).child("data"))
        contexts, labels = data.contexts, data.labels
        np.testing.assert_array_equal(contexts[:, 1:, :-1], contexts[:, :-1, 1:])
        np.testing.assert_array_equal(contexts[:, 1:, -1], labels[:, :-1])

    def test_contexts_and_labels_are_views_of_the_token_matrix(self):
        data = synthesize_clients(_cfg(3, window=2), seed=SeedPath(8).child("data"))
        assert np.shares_memory(data.contexts, data.tokens)
        assert np.shares_memory(data.labels, data.tokens)


class TestHeterogeneity:
    def test_zero_heterogeneity_matches_shared_distribution(self):
        """With mixture weight 0 every client samples the shared chain, so
        pooled next-token frequencies given a context token agree across two
        big client groups (chi-square-free: L1 distance on empirical rows)."""
        cfg = _cfg(20, vocab_size=5, heterogeneity=0.0, examples_per_client=400)
        data = synthesize_clients(cfg, seed=SeedPath(9).child("data"))

        def empirical_row(contexts, labels, token):
            nxt = labels[contexts[:, :, -1] == token]
            return np.bincount(nxt, minlength=5) / max(len(nxt), 1)

        for token in range(5):
            a = empirical_row(data.contexts[:10], data.labels[:10], token)
            b = empirical_row(data.contexts[10:], data.labels[10:], token)
            assert np.abs(a - b).sum() < 0.25

    def test_high_heterogeneity_separates_clients(self):
        """With mixture weight ~1 each client follows its own chain; the
        average cross-client disagreement in conditional rows must exceed the
        zero-heterogeneity baseline."""

        def mean_pairwise_row_distance(h, seed):
            cfg = _cfg(6, vocab_size=5, heterogeneity=h, examples_per_client=400)
            data = synthesize_clients(cfg, seed=seed)
            rows = []
            for contexts, labels in zip(data.contexts, data.labels):
                row = np.zeros((5, 5))
                for token in range(5):
                    nxt = labels[contexts[:, -1] == token]
                    if len(nxt):
                        row[token] = np.bincount(nxt, minlength=5) / len(nxt)
                rows.append(row)
            dists = [
                np.abs(rows[i] - rows[j]).sum()
                for i in range(6)
                for j in range(i + 1, 6)
            ]
            return float(np.mean(dists))

        seed = SeedPath(10).child("data")
        assert mean_pairwise_row_distance(0.95, seed) > 2 * mean_pairwise_row_distance(0.0, seed)

    @pytest.mark.parametrize("alpha", [0.1, 1.0])
    def test_local_draws_coincide_at_the_dirichlet_rate(self, alpha):
        """Two draws from one Dirichlet(alpha * 1) row over V tokens are
        equal with probability (alpha + 1) / (V alpha + 1).  At
        heterogeneity 1 every draw is local, so the first two draws at each
        (client, context) pair coincide at that rate, pooled over pairs
        (2000 clients give ~15k-25k pairs; the bound is ~4.5 standard
        errors)."""
        vocab = 10
        cfg = _cfg(2000, vocab_size=vocab, heterogeneity=1.0, concentration=alpha)
        data = synthesize_clients(cfg, seed=SeedPath(12).child("data"))
        contexts, labels = data.contexts[:, :, 0], data.labels
        hits = pairs = 0
        for token in range(vocab):
            at = contexts == token
            rows = np.flatnonzero(at.sum(axis=1) >= 2)
            first = at[rows].argmax(axis=1)
            at[rows, first] = False
            second = at[rows].argmax(axis=1)
            hits += int((labels[rows, first] == labels[rows, second]).sum())
            pairs += rows.shape[0]
        expected = (alpha + 1) / (vocab * alpha + 1)
        assert pairs > 10_000
        assert abs(hits / pairs - expected) < 4.5 * np.sqrt(expected * (1 - expected) / pairs)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            _cfg(vocab_size=1)
        with pytest.raises(ValueError):
            _cfg(heterogeneity=1.5)
        with pytest.raises(ValueError):
            _cfg(window=0)


class _Stream:
    """A stand-in generator serving fixed doubles in order: ``random(n)``
    takes the next n, ``integers(high, size)`` the next ``size`` scaled to
    [0, high)."""

    def __init__(self, doubles: np.ndarray):
        self._doubles = doubles
        self._used = 0

    def random(self, size: int) -> np.ndarray:
        start, self._used = self._used, self._used + size
        return self._doubles[start : self._used].copy()

    def integers(self, high: int, size: int) -> np.ndarray:
        return (self.random(size) * high).astype(np.int64)


def _edged(size: int, seed: int) -> np.ndarray:
    """``size`` uniform doubles, every other one replaced in turn by 0, one
    or two steps of Generator.random's spacing above 0, or one, two or four
    below 1: keys at the shifted table's row boundaries."""
    ulp = 2.0**-53
    edges = np.array([0.0, ulp, 2 * ulp, 1 - ulp, 1 - 2 * ulp, 1 - 4 * ulp])
    doubles = np.random.default_rng(seed).random(size)
    doubles[1::2] = np.resize(edges, doubles[1::2].shape)
    return doubles


class TestMatchesReferenceChains:
    """The sampler reads most global draws from its guide table, searches
    the rest in sorted order, and keeps the urn as a matrix of local-draw
    contexts; reference_chains searches every key in population order and
    keeps a bool mask.  Both read the same generator in the same order, so
    they must draw the same tokens."""

    @settings(max_examples=120, deadline=None)
    @given(
        vocab=st.integers(2, 130),
        window=st.integers(1, 4),
        examples=st.integers(1, 76),
        heterogeneity=st.one_of(
            st.just(0.0), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.just(1.0)
        ),
        concentration=st.floats(0.01, 2.0),
        population=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_token_for_token(
        self, vocab, window, examples, heterogeneity, concentration, population, seed
    ):
        cfg = _cfg(
            population,
            vocab_size=vocab,
            window=window,
            examples_per_client=examples,
            heterogeneity=heterogeneity,
            concentration=concentration,
        )
        root = SeedPath(seed)
        want = reference_chains(
            _global_table(cfg, root),
            concentration,
            population,
            examples + window,
            heterogeneity,
            root.child("client-streams").generator(),
        )
        got = synthesize_clients(cfg, root).tokens
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=80, deadline=None)
    @given(
        vocab=st.integers(2, 300),
        window=st.integers(1, 4),
        examples=st.integers(1, 2000),
        concentration=st.floats(0.01, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_eval_stream_token_for_token(self, vocab, window, examples, concentration, seed):
        """The eval set is walked in scalars; it must hold the tokens of the
        reference's one-client chain at heterogeneity 0, and so must the
        walk of the same table on a stream of edge uniforms."""
        cfg = _cfg(
            vocab_size=vocab, window=window, eval_examples=examples, concentration=concentration
        )
        root = SeedPath(seed)
        cdf = _global_table(cfg, root)
        length = examples + window
        want = reference_chains(
            cdf, concentration, 1, length, 0.0, root.child("eval-stream").generator()
        )
        got = synthesize_eval_set(cfg, root).tokens
        assert got.dtype == (np.uint8 if vocab <= 256 else np.uint16)
        np.testing.assert_array_equal(got, want)
        doubles = _edged(length + 1, seed)
        want = reference_chains(cdf, concentration, 1, length, 0.0, _Stream(doubles))
        np.testing.assert_array_equal(_walk(cdf, length, _Stream(doubles)), want[0])

    @pytest.mark.parametrize("heterogeneity", [0.0, 0.5])
    def test_cdf_rows_ending_ulps_from_one(self, heterogeneity):
        """Rows whose CDF ends a few ulps above or below 1 and whose first
        entry is near zero: the row-shifted table then steps down by an ulp
        at some row boundaries, so it is not sorted, and the sorted-key
        search must still draw what the population-order search draws.

        At heterogeneity 0 the one-client walk must also draw what the
        one-client search draws, on generator draws and on a stream whose
        uniforms sit at 0 and just below 1, where a key lands on the row
        boundaries: there the bisection's side, its clamp to [0, V) and the
        start token drawn first all show."""
        vocab = 9
        rng = np.random.default_rng(17)
        cdf = rng.dirichlet(np.full(vocab, 0.3), size=vocab).cumsum(axis=1)
        cdf[:, 0] = 10.0 ** -rng.uniform(17, 300, size=vocab)
        cdf[:, -1] = 1.0 + np.array([3, 4, -2, 2, -4, 1, 8, -1, 0]) * np.finfo(float).eps
        cdf = np.maximum.accumulate(cdf, axis=1)
        shifted = (cdf + np.arange(vocab)[:, None]).ravel()
        assert (np.diff(shifted) < 0).any() and (cdf[:, -1] < 1.0).any()
        for seed in range(5):
            got = _chains(cdf, 0.2, 200, 60, heterogeneity, np.random.default_rng(seed))
            want = reference_chains(cdf, 0.2, 200, 60, heterogeneity, np.random.default_rng(seed))
            np.testing.assert_array_equal(got, want)
        if heterogeneity != 0.0:
            return
        for seed in range(5):
            got = _walk(cdf, 2000, np.random.default_rng(seed))
            want = reference_chains(cdf, 0.2, 1, 2000, 0.0, np.random.default_rng(seed))
            np.testing.assert_array_equal(got, want[0])
        for seed in range(5):
            doubles = _edged(2001, seed)
            got = _walk(cdf, 2000, _Stream(doubles))
            want = reference_chains(cdf, 0.2, 1, 2000, 0.0, _Stream(doubles))
            np.testing.assert_array_equal(got, want[0])


def test_default_population_matches_reference_chains():
    """At the default config's shape, 10^4 clients of 51 tokens (V = 100,
    heterogeneity 0.3), with the seed a run of seed 0 draws it from, each
    step sends a few hundred keys to the search, and every token still
    equals the reference's."""
    cfg = ExperimentConfig()
    root = SeedPath(0)
    want = reference_chains(
        _global_table(cfg, root),
        cfg.concentration,
        cfg.population,
        cfg.examples_per_client + cfg.window,
        cfg.heterogeneity,
        root.child("client-streams").generator(),
    )
    got = synthesize_clients(cfg, root).tokens
    assert got.shape == (10_000, 51)
    np.testing.assert_array_equal(got, want)


def _step_down_cdf(vocab: int, seed: int) -> np.ndarray:
    """Row CDFs that end a few ulps above or below 1 and start near zero,
    so the row-shifted table steps down at some row boundaries."""
    rng = np.random.default_rng(seed)
    cdf = rng.dirichlet(np.full(vocab, 0.3), size=vocab).cumsum(axis=1)
    cdf[:, 0] = 10.0 ** -rng.uniform(17, 300, size=vocab)
    ends = rng.choice([-4, -2, -1, 0, 1, 2, 3, 4, 8], size=vocab)
    cdf[:, -1] = 1.0 + ends * np.finfo(float).eps
    return np.maximum.accumulate(cdf, axis=1)


class TestGuideTable:
    """Every key in a bucket the guide answers draws the token a one-key
    search of the row-shifted table draws; every other bucket holds V."""

    @staticmethod
    def _check(cdf: np.ndarray, rng: np.random.Generator) -> None:
        vocab = cdf.shape[0]
        shifted = (cdf + np.arange(vocab)[:, None]).ravel()
        guide, scale = _guide_table(shifted, vocab)
        assert scale & (scale - 1) == 0 and guide.shape == (vocab * scale + 1,)
        assert guide.nbytes - guide.itemsize <= _GUIDE_BYTES or scale == 1
        edges = rng.integers(vocab * scale + 1, size=500) / scale
        whole = np.arange(vocab + 1.0)
        keys = np.concatenate(
            [
                edges,
                np.nextafter(edges, -1.0),
                whole,
                np.nextafter(whole, -1.0),
                np.nextafter(whole, np.inf),
                rng.integers(vocab, size=500) + rng.random(500),
            ]
        )
        keys = keys[(keys >= 0) & (keys <= vocab)]
        # A key at an integer r is drawn from prev = r (u = 0) or from
        # prev = r - 1 (u rounded up to 1).
        prevs = np.concatenate([np.floor(keys), np.ceil(keys) - 1])
        keys = np.concatenate([keys, keys])
        valid = (prevs >= 0) & (prevs < vocab) & (keys - prevs <= 1)
        keys, prevs = keys[valid], prevs[valid].astype(np.int64)
        answers = guide[(keys * scale).astype(np.intp)]
        assert (guide[::scale] == vocab).all()
        table = shifted.tolist()
        for key, prev, answer in zip(keys.tolist(), prevs.tolist(), answers.tolist()):
            searched = min(max(bisect_right(table, key) - prev * vocab, 0), vocab - 1)
            assert answer in (vocab, searched), (key, prev)
        # Every bucket holding an entry of the table falls back.
        assert (guide[(shifted * scale).astype(np.intp)] == vocab).all()

    @settings(max_examples=60, deadline=None)
    @given(
        vocab=st.integers(2, 300),
        concentration=st.floats(0.01, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_monotone_tables(self, vocab, concentration, seed):
        rng = np.random.default_rng(seed)
        cdf = rng.dirichlet(np.full(vocab, concentration), size=vocab).cumsum(axis=1)
        self._check(cdf, rng)

    @pytest.mark.parametrize("vocab", [2, 9, 100, 257])
    def test_step_down_tables(self, vocab):
        cdf = _step_down_cdf(vocab, 17)
        shifted = (cdf + np.arange(vocab)[:, None]).ravel()
        assert (np.diff(shifted) < 0).any() or vocab == 2
        self._check(cdf, np.random.default_rng(vocab))


def test_synthesis_memory_is_a_small_multiple_of_the_token_matrix():
    """A population of 10^5 at the default corpus shape (V = 100, so one
    byte per stored token) peaks (tracemalloc) under 6 bytes per token: no
    int64 token matrix, no per-client rows, no (population, vocab)
    temporaries.  At heterogeneity 0 no local draw is made, so no urn
    context matrix is kept either: under 2.5 bytes per token."""
    for heterogeneity, bytes_per_token in ((0.3, 6), (0.0, 2.5)):
        config = ExperimentConfig(population=100_000, heterogeneity=heterogeneity)
        tracemalloc.start()
        try:
            data = synthesize_clients(config, seed=SeedPath(13))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert data.tokens.shape == (100_000, 51)
        assert peak < bytes_per_token * data.tokens.size, heterogeneity
