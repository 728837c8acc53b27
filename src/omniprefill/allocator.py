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

from .core import (EngineError, InfeasibleBudgetError, Owned, StreamError,
                   WindowLayout, field_value, freeze_fields, outside_array,
                   real)
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
        total_v = int(np.add.reduce(self.b_v))
        total_a = int(np.add.reduce(self.b_a))
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
    run_pipeline) pass proportionally reduced totals instead. r_v, r_a and
    the totals must be finite, non-negative real numbers, not bools or
    strings; else EngineError. Each slot-sized step writes into an array
    it keeps, so at T = 2,048 the call holds about 0.11 MiB.
    """
    T = layout.T
    checked = [real_weights(w, T) for w in (s_v, s_a)]
    for name, w, weights in zip(("s_v", "s_a"), (s_v, s_a), checked):
        if weights is None:
            shape = outside_array(w).shape
            raise StreamError(
                f"{name} weights must be finite and non-negative"
                if shape == (T,) else f"{name} weights have shape {shape}, "
                f"the layout holds {T} windows")
    s_v, s_a = checked
    n_v0, n_a0 = totals if totals is not None else (
        layout.total_visual, layout.total_audio
    )
    for name, value in (("r_v", r_v), ("r_a", r_a), ("total N_v", n_v0),
                        ("total N_a", n_a0)):
        # an int or a float is a real number already; an int past the
        # float range, which real() cannot convert, fails the range below
        number = (value if type(value) in (int, float)
                  else field_value(name, real, value, EngineError))
        # a NaN fails it too, and so does an int too large for a float
        if not 0.0 <= number <= sys.float_info.max:
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
    # visual, else audio, each written where it is kept. Weights so large
    # that either overflows are refused, without numpy's warnings
    cap_v, cap_a = layout.n_v, layout.n_a
    reals = np.empty(2 * T)
    real_v, b_real = reals[:T], reals[T:]
    with np.errstate(over="ignore", invalid="ignore"):
        share = window_weights(s_v, s_a, layout)
        s_sum = share.sum()
        if not s_sum < math.inf:
            raise EngineError("relevance weights sum past the float range")
        if s_sum > 0.0:
            share /= s_sum
        else:
            share.fill(1.0 / T)
        np.multiply(share, total_real, out=b_real)
        # num_v = s_v * r_v N_v, den = num_v + s_a * r_a N_a, and the
        # visual slot b_real * num_v / den where den > 0
        np.multiply(s_v, r_v * n_v0, out=real_v)
        den = np.multiply(s_a, r_a * n_a0)
        den += real_v
        real_v *= b_real
        spread = den > 0.0
        np.divide(real_v, den, out=real_v, where=spread)
    finite = np.isfinite(den)
    finite &= np.isfinite(real_v)
    if not finite.all():
        t = finite.argmin()  # the first window at fault
        raise EngineError(f"window {t}: relevance weights s_v={s_v[t]:.6g}"
                          f", s_a={s_a[t]:.6g} overflow its budget split")
    del den, finite
    # a window without weight splits by its capacities, if it has any
    flat = (~spread).nonzero()[0]
    if flat.size:
        capacity_t = cap_v[flat] + cap_a[flat]
        real_v[flat] = np.where(
            capacity_t > 0,
            b_real[flat] * cap_v[flat] / np.maximum(capacity_t, 1), 0.0)
    del spread, flat
    b_real -= real_v  # the audio slots

    # integerize: floor, cap, then place the shortfall deterministically.
    # The floors go straight into int64; reals - base is reals - floor
    # exactly, as a float64 floor converts to int64 and back unchanged
    base = np.empty(2 * T, dtype=np.int64)
    np.floor(reals, out=base, casting="unsafe")
    rem = np.subtract(reals, base, out=reals)
    del reals, real_v, b_real
    np.minimum(base[:T], cap_v, out=base[:T])
    np.minimum(base[T:], cap_a, out=base[T:])
    deficit = target - int(base.sum())
    assert deficit >= 0, "floor+cap can never overshoot the rounded total"

    # slot t < T is window t's visual slot, T + t its audio one; the slots
    # below their caps are a mask, refreshed in place, not a slot index
    open_ = np.empty(2 * T, dtype=bool)

    def count_open() -> int:
        np.less(base[:T], cap_v, out=open_[:T])
        np.less(base[T:], cap_a, out=open_[T:])
        return int(np.count_nonzero(open_))

    # first pass: one token to each of the `deficit` open slots of largest
    # remainder, ties by larger share, then window by window, visual first
    if deficit > 0:
        n_open = count_open()
        chosen = (open_ if n_open <= deficit
                  else _largest_remainders(open_, rem, share, deficit))
        np.add(base, 1, out=base, where=chosen)
        deficit -= min(n_open, deficit)
        del chosen
    del rem
    # later passes: one token to every open slot until the total lands;
    # a last pass with fewer tokens than open slots gives them by larger
    # share, then window by window, visual first
    by_share = (-share).argsort(kind="stable") if deficit > 0 else None
    while deficit > 0:
        n_open = count_open()
        if n_open == 0:
            raise InfeasibleBudgetError(
                "no spare capacity left while budget remains"
            )
        if n_open > deficit:
            ranked = open_.reshape(2, T)[:, by_share].T.copy()
            flags = ranked.ravel()
            flags[flags.nonzero()[0][deficit]:] = False
            open_.reshape(2, T)[:, by_share] = ranked.T
            np.add(base, 1, out=base, where=open_)
            break
        # q passes at once, while every open slot has room for them all;
        # no q exceeds the deficit, so the room is counted up to it
        room = min(int(np.min(cap - b, where=o, initial=deficit))
                   for cap, b, o in ((cap_v, base[:T], open_[:T]),
                                     (cap_a, base[T:], open_[T:])))
        q = max(1, min(deficit // n_open, room))
        np.add(base, q, out=base, where=open_)
        deficit -= q * n_open

    # the plan adopts base's halves, frozen, rather than copying them
    base.setflags(write=False)
    return BudgetPlan(b_v=Owned(base[:T]), b_a=Owned(base[T:]))


def _largest_remainders(open_, rem, share, k):
    """The mask of the k open slots (of more than k) that come first by
    descending remainder, then descending window share, then window by
    window, visual first. rem, every slot's remainder in [0, 1), is
    overwritten: closed slots take -1, so one partition of one copy finds
    the k-th; of the slots tied at it, a stable sort by share keeps as
    many as are still needed."""
    T = share.size
    rem[~open_] = -1.0
    kth = rem.size - k
    cut = rem.copy()
    cut.partition(kth)
    cut = cut[kth]
    chosen = rem >= cut
    if np.count_nonzero(chosen) == k:  # every slot at the cut is kept
        return chosen
    chosen = rem > cut
    # j = 2t + m: window t's slot of modality m, in slot order
    tied = (rem == cut).reshape(2, T).T.ravel().nonzero()[0]
    tied = tied[(-share[tied // 2]).argsort(kind="stable")]
    tied = tied[:k - np.count_nonzero(chosen)]
    chosen.reshape(2, T)[tied % 2, tied // 2] = True
    return chosen
