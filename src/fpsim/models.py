"""The built-in model: a bag-of-words next-token predictor.

A model, to the training loop, is three things: initial parameters (a flat
float64 vector), a stacked minibatch SGD step, and a top-1 accuracy
evaluator.  NextTokenBOW is a linear softmax classifier over the vocabulary
whose features are the mean of the context window's one-hot vectors, so a
vocabulary of V tokens costs V*V parameters — a few-megabyte model that
trains in seconds at desk scale.  The features are never built: the logits
of a window are the mean of its tokens' weight columns, and the gradient is
scattered back into those columns.

The step is written for numpy's per-call cost, with the float arithmetic
of the plain formulation (tests/oracles.py) kept to the byte:

- A window's logits are its first token's column gather, plus each later
  token's gather in window order, divided by the window length only when
  it exceeds one.  That is what ``.mean(axis=2)`` of the gathered
  (rows, batch, window, V) columns computes: numpy reduces an outer axis
  by adding its slices in order, then divides by the count.
- The labels' probabilities are read and written through one flat index
  ``(row * batch + example) * V + label``, the elements that
  ``take_along_axis`` and ``put_along_axis`` address.
- The flat offset of each stack row's class rows, ``row * d + class * V``,
  is built once per block of rows by the caller of the private step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fpsim.seeds import SeedPath

__all__ = ["NextTokenBOW"]


@dataclass(frozen=True)
class NextTokenBOW:
    """Next-token prediction from a bag-of-words context window.

    Parameters are the flattened (vocab_size x vocab_size) weight matrix,
    class by feature, with no bias terms.  Inputs are integer arrays of
    token ids whose last axis is the window.
    """

    vocab_size: int
    window: int = 1

    def __post_init__(self) -> None:
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if self.window < 1:
            raise ValueError("window must be >= 1")

    @property
    def num_params(self) -> int:
        return self.vocab_size * self.vocab_size

    def init_params(self, seed: SeedPath | None = None) -> np.ndarray:
        """Zero weights: the canonical convex starting point; the seed is
        accepted for interface uniformity but not needed."""
        del seed
        return np.zeros(self.num_params, dtype=np.float64)

    def _check(self, stack: np.ndarray, contexts: np.ndarray) -> None:
        """Validate a parameter stack and its (rows, batch, window) windows."""
        if stack.ndim != 2 or stack.shape[1] != self.num_params:
            raise ValueError("params must be (rows, num_params) for this model")
        if not stack.flags.c_contiguous:
            raise ValueError("params must be C-contiguous")
        if contexts.ndim != 3 or contexts.shape[::2] != (stack.shape[0], self.window):
            raise ValueError("inputs must be (rows, batch, window) token ids")
        self._check_tokens(contexts)

    def _check_tokens(self, tokens: np.ndarray) -> None:
        if tokens.size and (tokens.min() < 0 or tokens.max() >= self.vocab_size):
            raise ValueError("token ids out of vocabulary range")

    def _column_base(self, rows: int) -> np.ndarray:
        """(rows, 1, 1, vocab_size) flat offsets into a stack of ``rows``
        parameter rows: row r's class-c weights start at r * num_params +
        c * vocab_size, so adding a token id gives that token's column."""
        v = self.vocab_size
        return (np.arange(rows) * self.num_params)[:, None, None, None] + np.arange(v) * v

    def _window_logits(self, flat: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """(rows, batch, vocab_size) logits from the (rows, batch, window,
        vocab_size) flat column indices: the in-order sum of the window's
        gathers over the window length, byte for byte ``.mean(axis=2)``."""
        logits = flat[columns[:, :, 0]]
        for k in range(1, self.window):
            logits += flat[columns[:, :, k]]
        if self.window > 1:
            logits /= self.window
        return logits

    def logits(self, stack: np.ndarray, contexts: np.ndarray) -> np.ndarray:
        """(rows, batch, vocab_size) logits of row r's parameters on row r's
        windows: the mean of the window tokens' weight columns."""
        self._check(stack, contexts)
        columns = self._column_base(stack.shape[0]) + contexts[..., None]
        return self._window_logits(stack.reshape(-1), columns)

    def sgd_step(
        self, stack: np.ndarray, contexts: np.ndarray, labels: np.ndarray, lr: float
    ) -> np.ndarray:
        """One minibatch SGD step of every row of ``stack``, in place.

        Row r holds one client's flat parameters; ``contexts[r]`` (batch,
        window) and ``labels[r]`` (batch,) are its minibatch.  Returns each
        row's mean cross-entropy before the step.

        The logits are the window tokens' column gathers summed in window
        order and divided by the window length when it exceeds one, which
        is how numpy's mean over the window adds and divides; the labels'
        probabilities are read and written through one flat index, the
        elements take_along_axis and put_along_axis address.  So the step
        keeps the bytes of the plain formulation (tests/oracles.py).
        """
        self._check(stack, contexts)
        if labels.shape != contexts.shape[:2]:
            raise ValueError("labels must be (rows, batch)")
        self._check_tokens(labels)
        return self._step(
            stack.reshape(-1), self._column_base(stack.shape[0]), contexts, labels, lr
        )

    def _step(
        self,
        flat: np.ndarray,
        base: np.ndarray,
        contexts: np.ndarray,
        labels: np.ndarray,
        lr: float,
    ) -> np.ndarray:
        """sgd_step on validated inputs: ``flat`` is the stack's flat view
        and ``base`` its _column_base."""
        columns = base + contexts[..., None]
        probs = self._window_logits(flat, columns)
        # A fresh gather, so the softmax runs in place.
        probs -= probs.max(axis=2, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=2, keepdims=True)
        rows, batch = labels.shape
        flat_probs = probs.reshape(-1)
        at = np.arange(rows * batch) * self.vocab_size + labels.ravel()
        picked = flat_probs[at]
        log_picked = np.log(np.maximum(picked, 1e-300)).reshape(rows, batch)
        # Negated after the mean, as -log(p).mean() is: a zero mean gives -0.0.
        losses = np.add.reduce(log_picked, axis=1)
        losses /= batch
        np.negative(losses, out=losses)
        flat_probs[at] = picked - 1.0
        probs *= -lr / (batch * self.window)
        scatter = np.broadcast_to(probs[:, :, None, :], columns.shape)
        np.add.at(flat, columns.ravel(), scatter.ravel())
        return losses

    def predict(self, params: np.ndarray, contexts: np.ndarray) -> np.ndarray:
        """Top-1 token of each of (n, window) contexts, (n,); argmax ties
        resolve to the lowest token id.  A window's prediction depends on
        that window alone, so equal windows get equal predictions."""
        stack = np.asarray(params, dtype=np.float64).reshape(1, -1)
        return self.logits(stack, np.asarray(contexts)[None])[0].argmax(axis=1)

    def accuracy(self, params: np.ndarray, contexts: np.ndarray, labels: np.ndarray) -> float:
        """Top-1 accuracy on (n, window) contexts."""
        return float((self.predict(params, contexts) == np.asarray(labels)).mean())
