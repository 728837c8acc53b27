"""Applying budgets inside windows, and the final non-text removal.

Within each (window, modality) group the budgeted number of tokens survives,
chosen by descending query-relevance score with ties to the earlier position.
Selection never reorders anything and never touches text rows. Once
cross-modal fusion is done, late_removal drops every remaining non-text row.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .allocator import BudgetPlan
from .core import (
    TEXT,
    InfeasibleBudgetError,
    StreamError,
    TokenStream,
    WindowLayout,
    exact_array,
    freeze_fields,
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
    earlier index. Scores that are not a vector exact_array holds as
    float64, and a negative budget, are a StreamError."""
    scores = exact_array(scores, np.float64, "scores")
    if scores.ndim != 1:
        raise StreamError(f"scores must be a vector, got shape {scores.shape}")
    n = scores.shape[0]
    if budget > n:
        raise InfeasibleBudgetError(f"budget {budget} exceeds group size {n}")
    if budget < 0:
        raise StreamError("budget must be non-negative")
    if budget == n:
        return np.arange(n, dtype=np.int64)
    # stable sort on negated scores keeps the earlier index first among ties
    order = np.argsort(-scores, kind="stable")
    return np.sort(order[:budget]).astype(np.int64)


def apply_budget(
    plan: BudgetPlan,
    blocks_v: list,
    blocks_a: list,
    layout: WindowLayout,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-window per-modality top-k according to a plan built for layout.

    blocks_v / blocks_a are each modality's current scores as
    core.window_blocks gathers them over layout's counts. Returns, per
    modality, keep flags over those tokens, window-major. A window whose
    budget is its count is kept whole; a size class with any other window
    is ranked by one stable row-wise sort of descending scores, so ties go
    to the earlier token exactly as select_topk breaks them.
    """
    if plan.T != layout.T:
        raise StreamError(f"plan covers {plan.T} windows, the layout "
                          f"{layout.T}")
    kept = []
    for blocks, budget, counts, total in (
            (blocks_v, plan.b_v, layout.n_v, layout.total_visual),
            (blocks_a, plan.b_a, layout.n_a, layout.total_audio)):
        held = sum(block.size for _, _, block in blocks)
        if held != total:
            raise StreamError(f"score blocks hold {held} tokens, the layout "
                              f"{total}")
        over = np.flatnonzero(budget > counts)
        if over.size:
            t = int(over[0])
            raise InfeasibleBudgetError(
                f"plan asks for {int(budget[t])} of {int(counts[t])} tokens "
                f"in window {t}"
            )
        if np.any(budget < 0):
            raise StreamError("budget must be non-negative")
        keep = np.repeat(budget == counts, counts)
        partial = (budget > 0) & (budget < counts)
        for windows, starts, block in blocks:
            if partial[windows].any():
                # a stable ascending sort of each row read backwards, taken
                # backwards, ranks by descending score with ties to the
                # earlier token, and without a negated copy of the block:
                # rank j of the reversed order is offset n - 1 - j
                n = block.shape[1]
                ranked = np.argsort(block[:, ::-1], axis=1, kind="stable")
                np.subtract(starts[:, None] + (n - 1), ranked, out=ranked)
                keep[ranked[:, ::-1][np.arange(n)
                                     < budget[windows][:, None]]] = True
                del ranked
        kept.append(keep)
    return tuple(kept)


def late_removal(stream: TokenStream) -> TokenStream:
    """Drop every non-text row; text order is preserved. Idempotent."""
    return stream.take(stream.rows_of(TEXT))
