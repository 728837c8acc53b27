"""Saliency and query-relevance signals.

Two kinds of signal feed the selection stages. Before the LLM, each token's
saliency is the mean attention it receives inside its own window (from the
last encoder block), used to reweight diversity distances. Inside the LLM,
the query is the last text token; its attention over the surviving tokens of
one modality is averaged per window and pushed through a temperature softmax
to give per-window relevance weights.

Saliency vectors are plain non-negative float arrays, one entry per token of
one (window, modality) group.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .core import WindowLayout, segments


def _stable_softmax(x: np.ndarray) -> np.ndarray:
    z = np.exp(x - x.max())
    return z / z.sum()


def mean_received_attention(attn: np.ndarray) -> np.ndarray:
    """Mean attention each token receives: column means of a row-stochastic
    attention matrix. A (heads, n, n) stack is averaged over heads first.
    """
    a = np.asarray(attn, dtype=np.float64)
    if a.ndim == 3:
        a = a.mean(axis=0)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"attention must be square, got shape {a.shape}")
    rows = a.sum(axis=1)
    if a.shape[0] and not np.allclose(rows, 1.0, atol=1e-6):
        worst = int(np.abs(rows - 1.0).argmax())
        raise ValueError(
            f"attention rows must sum to 1 (post-softmax); row {worst} "
            f"sums to {rows[worst]:.8f}"
        )
    return a.mean(axis=0)


def query_scores(
    query: np.ndarray, keys: np.ndarray, scale: float | None = None
) -> np.ndarray:
    """Scaled dot-product attention of one query over n keys, softmaxed.

    scale defaults to 1/sqrt(d).
    """
    q = np.asarray(query, dtype=np.float64).reshape(-1)
    k = np.asarray(keys, dtype=np.float64)
    if k.ndim != 2 or k.shape[1] != q.shape[0]:
        raise ValueError(f"keys shape {k.shape} does not match query dim {q.shape[0]}")
    if k.shape[0] == 0:
        raise ValueError("query_scores needs at least one key")
    if scale is None:
        scale = 1.0 / np.sqrt(q.shape[0])
    return _stable_softmax(k @ q * scale)


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
        for name in ("s_v", "s_a", "s"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def T(self) -> int:
        return int(self.s.shape[0])


def _window_means(scores: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-window mean of a per-token score vector laid out window-major."""
    means = np.zeros(counts.shape[0], dtype=np.float64)
    for _, windows, index in segments(counts):
        means[windows] = scores[index].mean(axis=1)
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
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    scores_v = np.asarray(scores_v, dtype=np.float64)
    scores_a = np.asarray(scores_a, dtype=np.float64)
    if scores_v.shape[0] != layout.total_visual:
        raise ValueError(
            f"visual scores length {scores_v.shape[0]} != layout total "
            f"{layout.total_visual}"
        )
    if scores_a.shape[0] != layout.total_audio:
        raise ValueError(
            f"audio scores length {scores_a.shape[0]} != layout total "
            f"{layout.total_audio}"
        )

    weights = {}
    presents = {}
    for name, scores, counts in (
        ("v", scores_v, layout.n_v),
        ("a", scores_a, layout.n_a),
    ):
        means, present = _window_means(scores, counts)
        w = np.zeros(layout.T, dtype=np.float64)
        if present.any():
            w[present] = _stable_softmax(means[present] / tau)
        weights[name] = w
        presents[name] = present

    both = presents["v"] & presents["a"]
    only_v = presents["v"] & ~presents["a"]
    only_a = presents["a"] & ~presents["v"]
    s = np.zeros(layout.T, dtype=np.float64)
    s[both] = 0.5 * (weights["v"][both] + weights["a"][both])
    s[only_v] = weights["v"][only_v]
    s[only_a] = weights["a"][only_a]
    return RelevanceScores(s_v=weights["v"], s_a=weights["a"], s=s, tau=float(tau))
