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
import math
import sys

import numpy as np

from .core import (EngineError, InfeasibleBudgetError, StreamError,
                   WindowLayout, freeze_fields)
from .relevance import real_weights, window_weights


@dataclasses.dataclass(frozen=True)
class BudgetPlan:
    """Integer per-window budgets b_v and b_a, with b[t] = b_v[t] + b_a[t]
    and totals = (total_v, total_a, total) derived from them."""

    b_v: np.ndarray
    b_a: np.ndarray
    b: np.ndarray = dataclasses.field(init=False)
    totals: tuple[int, int, int] = dataclasses.field(init=False)

    def __post_init__(self):
        freeze_fields(self, np.int64, "b_v", "b_a")
        b = self.b_v + self.b_a
        b.setflags(write=False)
        total_v, total_a = int(self.b_v.sum()), int(self.b_a.sum())
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "totals", (total_v, total_a, total_v + total_a))

    @property
    def T(self) -> int:
        return int(self.b.shape[0])


def allocate(
    s_v: np.ndarray,
    s_a: np.ndarray,
    r_v: float,
    r_a: float,
    layout: WindowLayout,
    totals: tuple[float, float] | None = None,
) -> BudgetPlan:
    """Build the budget plan for one drop layer.

    s_v and s_a, the relevance weights window_relevance gives, must hold
    one finite, non-negative real number per window (else StreamError);
    each window's share of the budget follows their window_weights, which
    must not sum past the float range. layout holds the per-window
    capacities as the stream currently stands; totals holds the original
    (N_v, N_a) the ratios refer to and defaults to the layout's own sums
    when no earlier selection has run. The rounded total must fit the
    current capacity; otherwise InfeasibleBudgetError. Callers whose
    earlier flooring may have shrunk capacity below the nominal budget (see
    run_pipeline) pass proportionally reduced totals instead.
    """
    T = layout.T
    checked = [real_weights(w, T) for w in (s_v, s_a)]
    for name, w, weights in zip(("s_v", "s_a"), (s_v, s_a), checked):
        if weights is None:
            raise StreamError(
                f"{name} weights must be finite and non-negative"
                if np.shape(w) == (T,) else f"{name} weights have shape "
                f"{np.shape(w)}, the layout holds {T} windows")
    s_v, s_a = checked
    n_v0, n_a0 = totals if totals is not None else (
        layout.total_visual, layout.total_audio
    )
    for name, value in (("r_v", r_v), ("r_a", r_a), ("total N_v", n_v0),
                        ("total N_a", n_a0)):
        # a NaN fails it too, and so does an int too large for a float
        if not 0.0 <= value <= sys.float_info.max:
            raise EngineError(
                f"{name} must be finite and non-negative, got {value}")
    total_real = r_v * n_v0 + r_a * n_a0
    # ties to even; the one rounding site. Finite factors can still
    # overflow to an infinite budget, which no capacity holds
    target = int(round(total_real)) if total_real < math.inf else math.inf
    capacity = layout.total_visual + layout.total_audio
    if target > capacity:
        raise InfeasibleBudgetError(
            f"budget {target} exceeds remaining capacity {capacity}"
        )

    # window shares, then the split inside each window into slot i < T
    # visual, else audio. Weights so large that either overflows are
    # refused, without numpy's warnings
    cap_v, cap_a = layout.n_v, layout.n_a
    capacity_t = cap_v + cap_a
    reals = np.empty(2 * T)
    with np.errstate(over="ignore", invalid="ignore"):
        s = window_weights(s_v, s_a, layout)
        s_sum = s.sum()
        share = s / s_sum if s_sum > 0.0 else np.full(T, 1.0 / T)
        b_real = total_real * share
        num_v = s_v * (r_v * n_v0)
        num_a = s_a * (r_a * n_a0)
        den = num_v + num_a
        spread = den > 0.0
        reals[:T] = np.where(
            spread,
            b_real * num_v / np.where(spread, den, 1.0),
            np.where(capacity_t > 0,
                     b_real * cap_v / np.maximum(capacity_t, 1), 0.0),
        )
    if not s_sum < math.inf:
        raise EngineError("relevance weights sum past the float range")
    bad = np.flatnonzero(~(np.isfinite(den) & np.isfinite(reals[:T])))
    if bad.size:
        t = bad[0]
        raise EngineError(f"window {t}: relevance weights s_v={s_v[t]:.6g}"
                          f", s_a={s_a[t]:.6g} overflow its budget split")
    del num_v, num_a, den, spread, capacity_t
    np.subtract(b_real, reals[:T], out=reals[T:])
    del b_real

    # integerize: floor, cap, then place the shortfall deterministically
    caps = np.concatenate([cap_v, cap_a])
    floors = np.floor(reals)
    base = floors.astype(np.int64)
    np.minimum(base, caps, out=base)
    rem = np.subtract(reals, floors, out=reals)
    del reals, floors
    deficit = target - int(base.sum())
    assert deficit >= 0, "floor+cap can never overshoot the rounded total"

    # slots window by window, visual before audio: the last tie-break
    order = np.arange(2 * T).reshape(2, T).T.ravel()
    # first pass: one token to each of the `deficit` open slots (below their
    # cap) of largest remainder, ties by larger share, then that order
    if deficit > 0:
        open_slots = order[(base < caps)[order]]
        if open_slots.size > deficit:
            open_slots = _largest_remainders(open_slots, rem[open_slots],
                                             share, deficit)
        base[open_slots] += 1
        deficit -= open_slots.size
    del rem
    # later passes by larger share, then that order: one token to every
    # open slot, in order, until the total lands
    if deficit > 0:
        order = order.reshape(T, 2)[np.argsort(-share, kind="stable")].ravel()
    while deficit > 0:
        open_slots = order[(base < caps)[order]]
        if open_slots.size == 0:
            raise InfeasibleBudgetError(
                "no spare capacity left while budget remains"
            )
        # q passes at once, while every open slot has room for them all
        q = max(1, min(deficit // open_slots.size,
                       int((caps - base)[open_slots].min())))
        open_slots = open_slots[:deficit]
        base[open_slots] += q
        deficit -= q * open_slots.size

    return BudgetPlan(b_v=base[:T], b_a=base[T:])


def _largest_remainders(slots, rem, share, k):
    """The k of `slots` (window by window, visual before audio) that come
    first by descending remainder rem, then descending window share, then
    slot order; rem holds one remainder per slot. One partition finds the
    k-th remainder; of the slots tied at it, a stable sort by share keeps
    as many as are still needed."""
    cut = np.partition(rem, rem.size - k)[rem.size - k]
    above = rem > cut
    tied = slots[rem == cut]
    tied = tied[np.argsort(-share[tied % share.size], kind="stable")]
    return np.concatenate([slots[above], tied[:k - np.count_nonzero(above)]])
