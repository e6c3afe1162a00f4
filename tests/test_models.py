"""Tests for the bag-of-words softmax model and its stacked local SGD.

The gradient is the one quantity everything downstream trusts blindly, so it
is checked against central finite differences of the loss — an oracle that
shares no code with the analytic backward pass.  Local SGD updates a stack
of parameter rows in place, so the gradient is read off one full-batch step
of rate 1.  Local SGD and the logits must also equal, byte for byte, their
plain formulation in tests/oracles.py.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpsim import NextTokenBOW, TokenDataset, batch_orders
from oracles import accuracy, reference_local_sgd, reference_logits


def _step(model, stack, contexts, labels, lr):
    """One full-batch local SGD step of every row, in place; each row's
    loss before it."""
    rows, n = labels.shape
    return model.local_sgd(stack, contexts, labels, batch_orders(None, rows, n, 1), lr, n)


def _loss_grad(model, stack, contexts, labels):
    """Each row's minibatch loss and gradient, read off one stacked SGD step
    of rate 1 on a copy."""
    after = stack.copy()
    losses = _step(model, after, contexts, labels, 1.0)
    return losses, stack - after


def _losses(model, stack, contexts, labels):
    return _loss_grad(model, stack, contexts, labels)[0]


def _check_finite_differences(model, stack, contexts, labels, rng, checks_per_row=6):
    _, grad = _loss_grad(model, stack, contexts, labels)
    h = 1e-6
    for row in range(stack.shape[0]):
        for i in rng.choice(model.num_params, size=checks_per_row, replace=False):
            up, down = stack.copy(), stack.copy()
            up[row, i] += h
            down[row, i] -= h
            numeric = (
                _losses(model, up, contexts, labels) - _losses(model, down, contexts, labels)
            ) / (2 * h)
            # A row's loss depends on that row's parameters only.
            expected = np.zeros(stack.shape[0])
            expected[row] = grad[row, i]
            np.testing.assert_allclose(numeric, expected, rtol=0, atol=1e-6)


class TestLocalSGD:
    """NextTokenBOW is multinomial logistic (softmax) regression on the
    window-mean one-hot features; these pin its loss, gradient, learning
    and input checks through local_sgd."""

    def test_parameter_count(self):
        m = NextTokenBOW(vocab_size=5, window=3)
        assert m.num_params == 25
        assert m.init_params().shape == (25,)

    def test_initial_loss_is_log_k(self):
        """Zero weights give uniform class probabilities: loss = ln(V) in
        every row."""
        m = NextTokenBOW(vocab_size=7, window=2)
        rng = np.random.default_rng(0)
        contexts = rng.integers(0, 7, size=(3, 10, 2))
        labels = rng.integers(0, 7, size=(3, 10))
        losses = _losses(m, np.zeros((3, m.num_params)), contexts, labels)
        np.testing.assert_allclose(losses, np.log(7), rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        """One row (C = 1): central differences of the loss reproduce the
        gradient the step applies."""
        m = NextTokenBOW(vocab_size=4, window=1)
        rng = np.random.default_rng(1)
        stack = rng.normal(size=(1, m.num_params)) * 0.5
        contexts = rng.integers(0, 4, size=(1, 6, 1))
        labels = rng.integers(0, 4, size=(1, 6))
        _check_finite_differences(m, stack, contexts, labels, rng, checks_per_row=m.num_params)

    def test_gradient_descent_reduces_loss(self):
        """Full-batch steps on a noisy token map lower every row's loss
        monotonically."""
        m = NextTokenBOW(vocab_size=3, window=2)
        rng = np.random.default_rng(2)
        contexts = rng.integers(0, 3, size=(2, 60, 2))
        noise = rng.integers(0, 3, size=(2, 60))
        labels = np.where(rng.random((2, 60)) < 0.8, contexts[:, :, 0], noise)
        stack = np.zeros((2, m.num_params))
        losses = [_step(m, stack, contexts, labels, 0.5) for _ in range(150)]
        losses = np.array(losses)
        assert np.all(losses[-1] < losses[0] * 0.75)
        assert np.all(losses[:-1] >= losses[1:])

    def test_accuracy_on_separable_data(self):
        """Windows (a, a + 1 mod V) labelled a are linearly separable in the
        bag-of-words features."""
        m = NextTokenBOW(vocab_size=4, window=2)
        tokens = np.arange(4)
        contexts = np.stack([tokens, (tokens + 1) % 4], axis=1)
        stack = np.zeros((1, m.num_params))
        for _ in range(200):
            _step(m, stack, contexts[None], tokens[None], 1.0)
        assert accuracy(m, stack[0], contexts, tokens) == 1.0

    def test_uniform_model_accuracy_is_chance_like(self):
        """With zero weights argmax ties break consistently; accuracy is that
        of a constant prediction."""
        m = NextTokenBOW(vocab_size=4, window=2)
        rng = np.random.default_rng(3)
        contexts = rng.integers(0, 4, size=(1000, 2))
        labels = rng.integers(0, 4, size=1000)
        acc = accuracy(m, m.init_params(), contexts, labels)
        assert acc == pytest.approx((labels == 0).mean())

    def test_input_validation(self):
        m = NextTokenBOW(vocab_size=3, window=2)
        contexts = np.zeros((1, 2, 2), dtype=np.int64)
        labels = np.zeros((1, 2), dtype=np.int64)
        orders = batch_orders(None, 1, 2, 1)
        with pytest.raises(ValueError):
            m.local_sgd(np.zeros((1, 7)), contexts, labels, orders, 0.1, 2)
        with pytest.raises(ValueError):
            m.local_sgd(np.zeros((1, 9)), contexts[:, :, :1], labels, orders, 0.1, 2)
        with pytest.raises(ValueError):
            m.local_sgd(np.zeros((2, 9)), contexts, labels, orders, 0.1, 2)
        with pytest.raises(ValueError):
            m.local_sgd(np.zeros((9, 2)).T, contexts, labels, orders, 0.1, 2)
        with pytest.raises(ValueError):
            m.local_sgd(np.zeros((1, 9)), contexts, labels[:, :1], orders, 0.1, 2)
        with pytest.raises(ValueError):
            m.local_sgd(np.zeros((1, 9)), contexts[0], labels, orders, 0.1, 2)
        with pytest.raises(ValueError, match="orders"):
            m.local_sgd(np.zeros((1, 9)), contexts, labels, orders[:, :, :1], 0.1, 2)
        with pytest.raises(ValueError, match="batch_size"):
            m.local_sgd(np.zeros((1, 9)), contexts, labels, orders, 0.1, 0)
        with pytest.raises(ValueError, match="empty"):
            m.local_sgd(np.zeros((1, 9)), contexts[:, :0], labels[:, :0], orders[..., :0], 0.1, 2)
        with pytest.raises(ValueError):
            m.predict(np.zeros(7), contexts[0])
        with pytest.raises(ValueError):
            NextTokenBOW(vocab_size=1)
        with pytest.raises(ValueError):
            NextTokenBOW(vocab_size=3, window=0)


class TestNextTokenBOW:
    def test_dimensions(self):
        m = NextTokenBOW(vocab_size=50)
        assert m.vocab_size == 50
        assert m.window == 1
        assert m.num_params == 2500

    def test_featurize_single_token_window(self):
        """Window 1: the features are exact one-hot rows, so the logits are
        exact weight columns, row by row of the stack."""
        m = NextTokenBOW(vocab_size=5, window=1)
        stack = np.random.default_rng(5).normal(size=(2, 25))
        contexts = np.array([[[0], [3], [4]], [[2], [2], [1]]])
        logits = m.logits(stack, contexts)
        for row in range(2):
            weights = stack[row].reshape(5, 5)
            np.testing.assert_array_equal(logits[row], weights[:, contexts[row, :, 0]].T)

    def test_featurize_multi_token_window_averages(self):
        """The features of a window are the mean of its one-hot rows, so the
        logits are the mean of its tokens' weight columns."""
        m = NextTokenBOW(vocab_size=4, window=2)
        stack = np.random.default_rng(6).normal(size=(1, 16))
        weights = stack[0].reshape(4, 4)
        logits = m.logits(stack, np.array([[[1, 3], [2, 2]]]))[0]
        np.testing.assert_array_equal(logits[0], (weights[:, 1] + weights[:, 3]) / 2)
        np.testing.assert_array_equal(logits[1], weights[:, 2])

    def test_learns_a_deterministic_successor_map(self):
        """Token i is always followed by (i+1) mod V; the model must learn
        the permutation to perfect accuracy."""
        v = 6
        m = NextTokenBOW(vocab_size=v, window=1)
        contexts = np.arange(v).reshape(-1, 1)
        labels = (np.arange(v) + 1) % v
        stack = m.init_params().reshape(1, -1)
        for _ in range(300):
            _step(m, stack, contexts[None], labels[None], 2.0)
        assert accuracy(m, stack[0], contexts, labels) == 1.0

    def test_gradient_matches_finite_differences(self):
        """A stack of four rows (C > 1) with window 2: every row's gradient
        matches central differences of that row's loss, and no row's loss
        moves with another row's parameters."""
        m = NextTokenBOW(vocab_size=3, window=2)
        rng = np.random.default_rng(4)
        stack = rng.normal(size=(4, m.num_params)) * 0.3
        contexts = rng.integers(0, 3, size=(4, 5, 2))
        labels = rng.integers(0, 3, size=(4, 5))
        _check_finite_differences(m, stack, contexts, labels, rng)

    def test_token_range_validated(self):
        m = NextTokenBOW(vocab_size=4)
        stack = np.zeros((1, 16))
        with pytest.raises(ValueError):
            m.logits(stack, np.array([[[4]]]))
        with pytest.raises(ValueError):
            m.logits(stack, np.array([[[-1]]]))


class TestDistinctWindowEval:
    """A run scores each distinct eval window once and indexes the scores
    back to the examples; that must equal scoring every example."""

    @settings(max_examples=150, deadline=None)
    @given(
        v=st.integers(2, 40),
        window=st.integers(1, 3),
        n=st.integers(1, 300),
        alphabet=st.integers(1, 40),
        discrete=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_example_accuracy(self, v, window, n, alphabet, discrete, seed):
        rng = np.random.default_rng(seed)
        # Tokens from the first ``alphabet`` ids, so windows repeat often.
        tokens = rng.integers(0, min(alphabet, v), size=(1, n + window))
        if discrete:
            weights = rng.choice([-1.0, 0.0, 0.5], size=(v, v))
        else:
            weights = rng.normal(size=(v, v))
        weights[:, rng.random(v) < 0.3] = 0.0
        tied = rng.integers(0, v, size=v // 2)
        weights[:, tied] = weights[:, [int(rng.integers(v))]]
        params = weights.reshape(-1)
        dataset = TokenDataset(tokens, window)
        model = NextTokenBOW(vocab_size=v, window=window)

        windows, inverse = dataset.distinct_windows()
        contexts, labels = dataset.contexts[0], dataset.labels[0]
        assert inverse.shape == dataset.labels.shape
        assert len(windows) == len({tuple(row) for row in contexts.tolist()})
        np.testing.assert_array_equal(windows[inverse[0]], contexts)
        predictions = model.predict(params, windows)[inverse]
        np.testing.assert_array_equal(predictions[0], model.predict(params, contexts))
        full = accuracy(model, params, contexts, labels)
        assert float((predictions == dataset.labels).mean()) == full


class TestMatchesReferenceStep:
    """local_sgd, logits and predict keep the plain formulation's bytes: the
    window mean, the along-axis label gather and scatter, np.add.at's
    in-order accumulation of repeated columns, and one fancy-index gather
    per minibatch."""

    @settings(max_examples=120, deadline=None)
    @given(
        vocab=st.integers(2, 130),
        window=st.integers(1, 4),
        rows=st.integers(1, 20),
        n=st.integers(1, 17),
        batch_size=st.integers(1, 17),
        epochs=st.integers(1, 2),
        alphabet=st.integers(1, 130),
        scale=st.sampled_from([0.01, 1.0, 40.0]),
        lr=st.floats(1e-3, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_step_logits_and_predict_bytes(
        self, vocab, window, rows, n, batch_size, epochs, alphabet, scale, lr, seed
    ):
        rng = np.random.default_rng(seed)
        model = NextTokenBOW(vocab_size=vocab, window=window)
        stack = rng.normal(size=(rows, model.num_params)) * scale
        # Contexts from the first ``alphabet`` ids repeat within a batch, so
        # the scatter adds into the same column more than once.
        contexts = rng.integers(0, min(alphabet, vocab), size=(rows, n, window))
        labels = rng.integers(0, vocab, size=(rows, n))
        orders = batch_orders(rng, rows, n, epochs)

        expected = reference_logits(vocab, stack, contexts)
        assert model.logits(stack, contexts).tobytes() == expected.tobytes()
        np.testing.assert_array_equal(
            model.predict(stack[0], contexts[0]), expected[0].argmax(axis=1)
        )
        got, want = stack.copy(), stack.copy()
        losses = model.local_sgd(got, contexts, labels, orders, lr, batch_size)
        want_losses = reference_local_sgd(
            vocab, window, want, contexts, labels, orders, lr, batch_size
        )
        assert losses.tobytes() == want_losses.tobytes()
        assert got.tobytes() == want.tobytes()

    def test_label_range_validated(self):
        m = NextTokenBOW(vocab_size=4)
        contexts = np.zeros((1, 2, 1), dtype=np.int64)
        orders = batch_orders(None, 1, 2, 1)
        for bad in (4, -1):
            with pytest.raises(ValueError, match="vocabulary range"):
                m.local_sgd(np.zeros((1, 16)), contexts, np.array([[0, bad]]), orders, 0.1, 2)
