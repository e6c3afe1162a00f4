"""The built-in model: a bag-of-words next-token predictor.

A model, to the training loop, is three things: initial parameters (a flat
float64 vector), a stacked minibatch SGD step, and a top-1 accuracy
evaluator.  NextTokenBOW is a linear softmax classifier over the vocabulary
whose features are the mean of the context window's one-hot vectors, so a
vocabulary of V tokens costs V*V parameters — a few-megabyte model that
trains in seconds at desk scale.  The features are never built: the logits
of a window are the mean of its tokens' weight columns, and the gradient is
scattered back into those columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fpsim.seeds import SeedPath

__all__ = ["NextTokenBOW"]


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=-1, keepdims=True)
    return shifted


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

    def _columns(self, stack: np.ndarray, contexts: np.ndarray) -> np.ndarray:
        """Flat indices into ``stack`` of every window token's weight column,
        (rows, batch, window, vocab_size)."""
        if stack.ndim != 2 or stack.shape[1] != self.num_params:
            raise ValueError("params must be (rows, num_params) for this model")
        if not stack.flags.c_contiguous:
            raise ValueError("params must be C-contiguous")
        if contexts.ndim != 3 or contexts.shape[::2] != (stack.shape[0], self.window):
            raise ValueError("inputs must be (rows, batch, window) token ids")
        if contexts.size and (contexts.min() < 0 or contexts.max() >= self.vocab_size):
            raise ValueError("token ids out of vocabulary range")
        v = self.vocab_size
        rows = np.arange(stack.shape[0]) * self.num_params
        return rows[:, None, None, None] + np.arange(v) * v + contexts[..., None]

    def logits(self, stack: np.ndarray, contexts: np.ndarray) -> np.ndarray:
        """(rows, batch, vocab_size) logits of row r's parameters on row r's
        windows: the mean of the window tokens' weight columns."""
        return stack.reshape(-1)[self._columns(stack, contexts)].mean(axis=2)

    def sgd_step(
        self, stack: np.ndarray, contexts: np.ndarray, labels: np.ndarray, lr: float
    ) -> np.ndarray:
        """One minibatch SGD step of every row of ``stack``, in place.

        Row r holds one client's flat parameters; ``contexts[r]`` (batch,
        window) and ``labels[r]`` (batch,) are its minibatch.  Returns each
        row's mean cross-entropy before the step.
        """
        columns = self._columns(stack, contexts)
        if labels.shape != contexts.shape[:2]:
            raise ValueError("labels must be (rows, batch)")
        flat = stack.reshape(-1)
        probs = _softmax_rows(flat[columns].mean(axis=2))
        picked = np.take_along_axis(probs, labels[..., None], axis=2)
        losses = -np.log(np.maximum(picked[..., 0], 1e-300)).mean(axis=1)
        np.put_along_axis(probs, labels[..., None], picked - 1.0, axis=2)
        probs *= -lr / (labels.shape[1] * self.window)
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
