"""Two-level token budget allocation at one drop layer.

The layer's total non-text budget, round(r_v*N_v + r_a*N_a) over the
original modality totals, is spread across windows in proportion to their
relevance weights, then split inside each window between visual and audio by
the relevance-weighted share

    B_tv = s_v[t]*r_v*N_v / (s_v[t]*r_v*N_v + s_a[t]*r_a*N_a) * B_t.

Only the combined total is conserved; per-modality totals float with the
relevance signal, which is what lets budget shift across modalities toward
whichever one the query cares about. Integerization floors every slot, caps
it at the window's current capacity, then hands out the shortfall one token
at a time: first by largest remainder, then by relevance, always deferring
to caps, until the total lands exactly.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .core import InfeasibleBudgetError, WindowLayout, freeze_fields
from .relevance import RelevanceScores


@dataclasses.dataclass(frozen=True)
class BudgetPlan:
    """Integer per-window budgets: b[t] = b_v[t] + b_a[t]."""

    b: np.ndarray
    b_v: np.ndarray
    b_a: np.ndarray
    totals: tuple[int, int, int]  # (total_v, total_a, total)

    def __post_init__(self):
        freeze_fields(self, np.int64, "b", "b_v", "b_a")
        if not np.array_equal(self.b, self.b_v + self.b_a):
            raise ValueError("b must equal b_v + b_a per window")

    @property
    def T(self) -> int:
        return int(self.b.shape[0])


def allocate(
    rel: RelevanceScores,
    r_v: float,
    r_a: float,
    layout: WindowLayout,
    totals: tuple[float, float] | None = None,
) -> BudgetPlan:
    """Build the budget plan for one drop layer.

    layout holds the per-window capacities as the stream currently stands;
    totals holds the original (N_v, N_a) the ratios refer to and defaults to
    the layout's own sums when no earlier selection has run. The rounded
    total must fit the current capacity; otherwise InfeasibleBudgetError.
    Callers whose earlier flooring may have shrunk capacity below the nominal
    budget (see run_pipeline) pass proportionally reduced totals instead.
    """
    T = layout.T
    if rel.T != T:
        raise ValueError(f"relevance covers {rel.T} windows, layout has {T}")
    n_v0, n_a0 = totals if totals is not None else (
        layout.total_visual, layout.total_audio
    )
    total_real = r_v * n_v0 + r_a * n_a0
    target = int(round(total_real))  # ties to even; the one rounding site
    cap_v = layout.n_v.astype(np.int64)
    cap_a = layout.n_a.astype(np.int64)
    capacity = int(cap_v.sum() + cap_a.sum())
    if target > capacity:
        raise InfeasibleBudgetError(
            f"budget {target} exceeds remaining capacity {capacity}"
        )

    s_sum = rel.s.sum()
    if s_sum > 0.0:
        share = rel.s / s_sum
    else:
        share = np.full(T, 1.0 / T)
    b_real = total_real * share

    # intra-window split
    num_v = rel.s_v * (r_v * n_v0)
    num_a = rel.s_a * (r_a * n_a0)
    den = num_v + num_a
    spread = den > 0.0
    capacity_t = cap_v + cap_a
    bv_real = np.where(
        spread,
        b_real * num_v / np.where(spread, den, 1.0),
        np.where(capacity_t > 0,
                 b_real * cap_v / np.maximum(capacity_t, 1), 0.0),
    )
    ba_real = b_real - bv_real

    # integerize: floor, cap, then place the shortfall deterministically
    reals = np.concatenate([bv_real, ba_real])  # slot i<T visual, else audio
    caps = np.concatenate([cap_v, cap_a])
    base = np.minimum(np.floor(reals).astype(np.int64), caps)
    deficit = target - int(base.sum())
    assert deficit >= 0, "floor+cap can never overshoot the rounded total"

    slot_window = np.concatenate([np.arange(T), np.arange(T)])
    slot_is_audio = np.repeat([0, 1], T)
    frac = reals - np.floor(reals)
    slot_share = share[slot_window]
    # first pass by largest remainder, later passes by relevance share; each
    # pass gives one token to every slot below its cap, in order, until the
    # total lands. The later order is built only when a second pass runs
    order = np.lexsort((slot_is_audio, slot_window, -slot_share, -frac))
    later = None
    while deficit > 0:
        open_slots = order[base[order] < caps[order]][:deficit]
        if open_slots.size == 0:
            raise InfeasibleBudgetError(
                "no spare capacity left while budget remains"
            )
        base[open_slots] += 1
        deficit -= open_slots.size
        if deficit > 0 and later is None:
            order = later = np.lexsort((slot_is_audio, slot_window,
                                        -slot_share))

    b_v = base[:T]
    b_a = base[T:]
    return BudgetPlan(
        b=b_v + b_a,
        b_v=b_v,
        b_a=b_a,
        totals=(int(b_v.sum()), int(b_a.sum()), int(b_v.sum() + b_a.sum())),
    )
