"""Saliency and query-relevance signals.

Two kinds of signal feed the selection stages. Before the LLM, each token's
saliency is the mean attention it receives inside its own window (from the
last encoder block), used to reweight diversity distances. Inside the LLM,
the query is the last text token; its attention over the surviving tokens of
one modality is averaged per window and pushed through a temperature softmax
to give per-window relevance weights.

An oracle gives saliency as one non-negative vector per modality,
window-major over that modality's rows.
"""

from __future__ import annotations

import numpy as np

from .core import StreamError, WindowLayout, exact_array, outside_array


def softmax(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax along the last axis, shifted by the maximum so that large
    logits stay finite. The one softmax of the package: window relevance
    and every oracle's attention go through it. Works in place on one
    temporary, so a large attention matrix costs a single allocation; out,
    of x's shape and float dtype (x itself, to overwrite a fresh array),
    takes that temporary's place, so there is none."""
    z = np.subtract(x, x.max(axis=-1, keepdims=True), out=out,
                    dtype=np.result_type(x, 1.0))
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def real_weights(w, n: int) -> np.ndarray | None:
    """w as float64 when it is a 1-d vector of n finite, non-negative real
    (bool, integer or float) numbers, else None. The one rule for weights
    and scores from outside: its kind is checked before anything is
    converted, so a bad vector raises no numpy warning."""
    w = outside_array(w)
    if w.dtype.kind in "biuf" and w.shape == (n,):
        w = w.astype(np.float64, copy=False)
        if w.min(initial=0.0) >= 0.0 and w.max(initial=0.0) < np.inf:
            return w
    return None


def window_relevance(
    means_v: np.ndarray,
    means_a: np.ndarray,
    layout: WindowLayout,
    tau: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-window relevance weights (s_v, s_a) from per-window mean query
    scores.

    means_v / means_a hold each window's mean post-softmax query attention
    over its current visual / audio tokens, as core.window_blocks takes
    them; softmax(mean/tau) runs over the windows where layout has the
    modality, and the other entries are not read. Each weight vector sums
    to 1 over those windows and is 0 elsewhere; an infinite mean/tau, and
    means exact_array cannot hold as float64, are a StreamError.
    """
    if not tau > 0.0:  # a NaN tau fails this too
        raise StreamError(f"tau must be positive, got {tau}")
    weights = []
    for name, means, counts in (("visual", means_v, layout.n_v),
                                ("audio", means_a, layout.n_a)):
        means = exact_array(means, np.float64, f"{name} means")
        if means.shape != counts.shape:
            raise StreamError(f"{name} means have shape {means.shape}, the "
                              f"layout holds {layout.T} windows")
        present = counts > 0
        with np.errstate(over="ignore"):
            logits = means[present] / tau
        if not np.isfinite(logits).all():
            raise StreamError(f"{name} window means over tau={tau} overflow")
        w = np.zeros(layout.T, dtype=np.float64)
        if present.any():
            w[present] = softmax(logits)
        weights.append(w)
    return tuple(weights)


def window_weights(s_v: np.ndarray, s_a: np.ndarray,
                   layout: WindowLayout) -> np.ndarray:
    """Combined weight of each window: the mean of s_v and s_a where both
    modalities are present, the present one's weight where only one is, and
    0 in a window with neither."""
    present_v, present_a = layout.n_v > 0, layout.n_a > 0
    return np.where(present_v & present_a, 0.5 * (s_v + s_a),
                    np.where(present_v, s_v, np.where(present_a, s_a, 0.0)))
