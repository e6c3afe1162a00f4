"""The built-in model: a bag-of-words next-token predictor.

A model, to the training loop, is three things: initial parameters (a flat
float64 vector), local minibatch SGD of a stack of parameter rows
(``local_sgd``), and a top-1 prediction per context window (``predict``),
which a run scores its eval set with.  NextTokenBOW is a linear softmax
classifier over the vocabulary whose features are the mean of the context
window's one-hot vectors, so a vocabulary of V tokens costs V*V parameters
— a few-megabyte model that trains in seconds at desk scale.  The features
are never built: the logits of a window are the mean of its tokens' weight
columns, and the gradient is scattered back into those columns.

Each minibatch step is written for numpy's per-call cost, with the float
arithmetic of the plain formulation (tests/oracles.py) kept to the byte:

- A window's logits are its first token's column gather, plus each later
  token's gather in window order, divided by the window length only when
  it exceeds one.  That is what ``.mean(axis=2)`` of the gathered
  (rows, batch, window, V) columns computes: numpy reduces an outer axis
  by adding its slices in order, then divides by the count.
- The labels' probabilities are read and written through one flat index
  ``(row * batch + example) * V + label``, the elements that
  ``take_along_axis`` and ``put_along_axis`` address.
- The flat offset of each stack row's class rows, ``row * d + class * V``,
  is built once per call of ``local_sgd``, for all its minibatches.
- Token ids arrive in the data's narrow type (``data.token_dtype``) and are
  cast to ``np.intp`` once per call, so every step's column and label
  index arithmetic runs in one type, not intp + uint8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    @property
    def num_params(self) -> int:
        return self.vocab_size * self.vocab_size

    def init_params(self) -> np.ndarray:
        """Zero weights: the canonical convex starting point."""
        return np.zeros(self.num_params, dtype=np.float64)

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
        windows (rows, batch, window): the mean of the window tokens' weight
        columns.  Nothing is checked: ``stack`` is (rows, num_params) and every
        token id is below vocab_size, as the run's config and data make them."""
        contexts = contexts.astype(np.intp, copy=False)
        columns = self._column_base(stack.shape[0]) + contexts[..., None]
        return self._window_logits(stack.reshape(-1), columns)

    def local_sgd(
        self,
        stack: np.ndarray,
        contexts: np.ndarray,
        labels: np.ndarray,
        orders: np.ndarray,
        lr: float,
        batch_size: int,
    ) -> np.ndarray:
        """Local minibatch SGD of every row of ``stack``, in place; returns
        each row's mean minibatch loss, each taken before its step.

        Row r holds one client's flat parameters, and ``contexts[r]`` (n,
        window) and ``labels[r]`` (n,) are its examples.  ``orders[e, r]``
        is row r's batch order in epoch e (federation.batch_orders); the
        epoch's minibatches are its consecutive slices of batch_size
        examples, the last one possibly short.  Each row is computed
        alone, so its outputs do not depend on the other rows.

        Nothing is re-checked: ``stack`` is a C-contiguous (rows,
        num_params) float64 array, n >= 1, and every token id is below
        vocab_size, as the run's validated config and its synthesized data
        make them.
        """
        rows, n = labels.shape
        contexts = contexts.astype(np.intp, copy=False)
        labels = labels.astype(np.intp, copy=False)
        # The column base is built once; each epoch's examples are gathered
        # in batch order once, so a minibatch is a slice.
        flat = stack.reshape(-1)
        base = self._column_base(rows)
        row_index = np.arange(rows)[:, None]
        losses = np.zeros(rows)
        steps = 0
        for epoch_orders in orders:
            epoch_contexts = contexts[row_index, epoch_orders]
            epoch_labels = labels[row_index, epoch_orders]
            for start in range(0, n, batch_size):
                batch = slice(start, start + batch_size)
                losses += self._step(
                    flat, base, epoch_contexts[:, batch], epoch_labels[:, batch], lr
                )
                steps += 1
        return losses / steps

    def _step(
        self,
        flat: np.ndarray,
        base: np.ndarray,
        contexts: np.ndarray,
        labels: np.ndarray,
        lr: float,
    ) -> np.ndarray:
        """One minibatch SGD step of every row, in place: ``flat`` is the
        stack's flat view, ``base`` its _column_base, and ``contexts``
        (rows, batch, window) and ``labels`` (rows, batch) the validated
        minibatch.  Returns each row's mean cross-entropy before the step."""
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
