"""Applying budgets inside windows, and the final non-text removal.

Within each (window, modality) group the budgeted number of tokens survives,
chosen by descending query-relevance score with ties to the earlier position.
Selection never reorders anything; text rows pass through untouched. Once
cross-modal fusion is done, late_removal drops every remaining non-text row.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .allocator import BudgetPlan
from .core import (
    AUDIO,
    TEXT,
    VISUAL,
    InfeasibleBudgetError,
    StreamError,
    TokenStream,
    freeze_fields,
    segments,
)


@dataclasses.dataclass(frozen=True)
class LayerSelection:
    """What one drop layer kept: surviving non-text positions plus per-window
    drop counts."""

    layer: int
    kept: np.ndarray  # original positions of surviving non-text tokens
    dropped_v: np.ndarray
    dropped_a: np.ndarray

    def __post_init__(self):
        freeze_fields(self, np.int64, "kept", "dropped_v", "dropped_a")


def select_topk(scores: np.ndarray, budget: int) -> np.ndarray:
    """Indices of the budget highest scores, ascending; ties prefer the
    earlier index."""
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    if budget > n:
        raise InfeasibleBudgetError(f"budget {budget} exceeds group size {n}")
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if budget == n:
        return np.arange(n, dtype=np.int64)
    # stable sort on negated scores keeps the earlier index first among ties
    order = np.argsort(-scores, kind="stable")
    return np.sort(order[:budget]).astype(np.int64)


def apply_budget(
    stream: TokenStream,
    plan: BudgetPlan,
    scores_v: np.ndarray,
    scores_a: np.ndarray,
    layer: int = 0,
) -> tuple[TokenStream, LayerSelection]:
    """Per-window per-modality top-k according to a plan built for this
    stream's current layout.

    Each modality's rows must be window-major, as every stage lays them
    out. Windows are ranked through core.segments: one stable row-wise sort
    of descending scores per window size, so ties go to the earlier row
    exactly as select_topk breaks them window by window, and the work stays
    proportional to the rows, however ragged the windows.
    """
    keep = stream.modality == TEXT
    dropped = {}
    for m, scores, budget in ((VISUAL, scores_v, plan.b_v),
                              (AUDIO, scores_a, plan.b_a)):
        rows = stream.rows_of(m)
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != rows.shape:
            raise StreamError(
                f"scores length {scores.shape[0]} does not match the "
                f"{rows.shape[0]} current tokens of that modality"
            )
        wins = stream.window_id[rows]
        if rows.size and int(wins.max()) >= plan.T:
            raise StreamError("stream window ids exceed the plan's window count")
        if np.any(wins[1:] < wins[:-1]):
            raise StreamError("window ids decrease along the modality's rows")
        counts = np.bincount(wins, minlength=plan.T)
        over = np.flatnonzero(budget > counts)
        if over.size:
            t = int(over[0])
            raise InfeasibleBudgetError(
                f"plan asks for {int(budget[t])} of {int(counts[t])} tokens "
                f"in window {t}"
            )
        if np.any(budget < 0):
            raise StreamError("budget must be non-negative")
        for n, windows, index in segments(counts):
            # offsets of each window's tokens, best first
            ranked = np.argsort(-scores[index], axis=1, kind="stable")
            ranked += index[:, :1]
            keep[rows[ranked[np.arange(n) < budget[windows][:, None]]]] = True
        dropped[m] = counts - budget

    new_stream = stream.take(np.flatnonzero(keep))
    kept_nontext = new_stream.position[new_stream.modality != TEXT]
    return new_stream, LayerSelection(
        layer=layer,
        kept=kept_nontext,
        dropped_v=dropped[VISUAL],
        dropped_a=dropped[AUDIO],
    )


def late_removal(stream: TokenStream) -> TokenStream:
    """Drop every non-text row; text order is preserved. Idempotent."""
    return stream.take(stream.rows_of(TEXT))
