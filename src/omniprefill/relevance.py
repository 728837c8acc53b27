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

import dataclasses

import numpy as np

from .core import StreamError, WindowLayout, freeze_fields, segments


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, shifted by the maximum so that large
    logits stay finite. The one softmax of the package: window relevance
    and every oracle's attention go through it. Works in place on one
    temporary, so a large attention matrix costs a single allocation."""
    z = np.subtract(x, x.max(axis=-1, keepdims=True),
                    dtype=np.result_type(x, 1.0))
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


@dataclasses.dataclass(frozen=True)
class RelevanceScores:
    """Per-window relevance weights after the temperature softmax.

    s_v and s_a each sum to 1 over the windows where the modality is present
    (absent windows carry weight 0). s[t] averages the two weights where both
    modalities are present and equals the present one, unhalved, where only
    one is; it is renormalized by consumers that need a distribution.
    """

    s_v: np.ndarray
    s_a: np.ndarray
    s: np.ndarray
    tau: float

    def __post_init__(self):
        freeze_fields(self, np.float64, "s_v", "s_a", "s")
        if not (self.s_v.ndim == 1 and self.s_v.shape == self.s_a.shape
                == self.s.shape):
            raise StreamError("s_v, s_a and s must be 1-d and the same length")
        for name in ("s_v", "s_a", "s"):
            w = getattr(self, name)
            if not np.all(np.isfinite(w) & (w >= 0)):
                raise StreamError(
                    f"{name} weights must be finite and non-negative")

    @property
    def T(self) -> int:
        return int(self.s.shape[0])


def _window_means(scores: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-window mean of a per-token score vector laid out window-major."""
    means = np.zeros(counts.shape[0], dtype=np.float64)
    for n, windows, starts in segments(counts):
        means[windows] = scores[starts[:, None] + np.arange(n)].mean(axis=1)
    return means, counts > 0


def window_relevance(
    scores_v: np.ndarray,
    scores_a: np.ndarray,
    layout: WindowLayout,
    tau: float,
) -> RelevanceScores:
    """Window weights from per-token query scores.

    scores_v / scores_a are the post-softmax query attention over the current
    visual / audio tokens, in storage order. Each modality's window means go
    through softmax(mean/tau) over the windows where it is present.
    """
    if not tau > 0.0:  # a NaN tau fails this too
        raise StreamError(f"tau must be positive, got {tau}")
    scores_v = np.asarray(scores_v, dtype=np.float64)
    scores_a = np.asarray(scores_a, dtype=np.float64)
    if scores_v.shape[0] != layout.total_visual:
        raise StreamError(
            f"visual scores length {scores_v.shape[0]} != layout total "
            f"{layout.total_visual}"
        )
    if scores_a.shape[0] != layout.total_audio:
        raise StreamError(
            f"audio scores length {scores_a.shape[0]} != layout total "
            f"{layout.total_audio}"
        )

    weights = []
    for scores, counts in ((scores_v, layout.n_v), (scores_a, layout.n_a)):
        means, present = _window_means(scores, counts)
        w = np.zeros(layout.T, dtype=np.float64)
        if present.any():
            w[present] = softmax(means[present] / tau)
        weights.append(w)
    s_v, s_a = weights
    return RelevanceScores(s_v=s_v, s_a=s_a, s=window_weights(s_v, s_a, layout),
                           tau=float(tau))


def window_weights(s_v: np.ndarray, s_a: np.ndarray,
                   layout: WindowLayout) -> np.ndarray:
    """Combined weight of each window: the mean of s_v and s_a where both
    modalities are present, the present one's weight where only one is, and
    0 in a window with neither."""
    present_v, present_a = layout.n_v > 0, layout.n_a > 0
    return np.where(present_v & present_a, 0.5 * (s_v + s_a),
                    np.where(present_v, s_v, np.where(present_a, s_a, 0.0)))
