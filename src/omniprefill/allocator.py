"""Two-level token budget allocation at one drop layer.

The layer's total non-text budget, round(r_v*N_v + r_a*N_a) over the
original modality totals, is spread across windows in proportion to their
relevance weights, then split inside each window between visual and audio by
the relevance-weighted share

    B_tv = s_v[t]*r_v*N_v / (s_v[t]*r_v*N_v + s_a[t]*r_a*N_a) * B_t.

Only the combined total is conserved; per-modality totals float with the
relevance signal, which is what lets budget shift across modalities toward
whichever one the query cares about. Integerization floors every slot, caps
it at the window's current capacity, raises the slots below their caps to
one common fill level and hands out the few tokens left by largest
remainder, then by relevance, so the total lands exactly.
"""

from __future__ import annotations

import bisect
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
    strings; else EngineError. At T = 2,048 the call holds 0.12 MiB.
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
    if totals is None:
        totals = layout.total_visual, layout.total_audio
    elif not isinstance(totals, (tuple, list)) or len(totals) != 2:
        raise EngineError(f"totals must be (N_v, N_a), got {totals!r:.60}")
    n_v0, n_a0 = totals
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
        # visual slot b_real * num_v / den; a window without weight splits
        # by its capacities, num_v = its visual count, den = its count or 1
        np.multiply(s_v, r_v * n_v0, out=real_v)
        den = np.multiply(s_a, r_a * n_a0)
        den += real_v
        flat = den == 0.0
        np.copyto(real_v, cap_v, where=flat)
        np.copyto(den, np.maximum(cap_v + cap_a, 1), where=flat)
        real_v *= b_real
        real_v /= den
    finite = np.isfinite(den)
    finite &= np.isfinite(real_v)
    if not finite.all():
        t = finite.argmin()  # the first window at fault
        raise EngineError(f"window {t}: relevance weights s_v={s_v[t]:.6g}"
                          f", s_a={s_a[t]:.6g} overflow its budget split")
    del den, finite, flat
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

    # slot t < T is window t's visual slot, T + t its audio one; open
    # slots, those below their caps, are a mask, not a slot index
    open_ = np.empty(2 * T, dtype=bool)
    np.less(base[:T], cap_v, out=open_[:T])
    np.less(base[T:], cap_a, out=open_[T:])
    n_open = int(np.count_nonzero(open_))
    if 0 < n_open <= deficit:
        # every open slot gains a token, so remainders rank nothing: each
        # rises to the highest level q >= deficit // n_open the deficit
        # covers, capped at its room. The rooms, summed as uint64 (exact
        # past 2**63 - 1), take the remainders' buffer, then zero it
        room = rem.view(np.int64)
        np.subtract(cap_v, base[:T], out=room[:T])
        np.subtract(cap_a, base[T:], out=room[T:])
        q = deficit // n_open
        q += bisect.bisect_right(
            range(q + 1, int(room.max()) + 1), deficit, key=lambda level:
            int(np.minimum(room, level).view(np.uint64).sum()))
        np.greater(room, q, out=open_)  # still below their caps
        n_open = int(np.count_nonzero(open_))
        np.minimum(room, q, out=room)
        base += room
        deficit -= int(room.view(np.uint64).sum())
        room.fill(0)
    if deficit > 0:  # the tokens left, one each
        assert deficit < n_open, "the target fits the capacity"
        np.add(base, 1, out=base,
               where=_largest_remainders(open_, rem, share, deficit))

    # the plan adopts base's halves, frozen, rather than copying them
    base.setflags(write=False)
    return BudgetPlan(b_v=Owned(base[:T]), b_a=Owned(base[T:]))


def _largest_remainders(open_, rem, share, k):
    """The mask of the k open slots (of more than k) that come first by
    descending remainder, then descending window share, then window by
    window, visual first. rem, every slot's remainder in [0, 1), is
    overwritten: closed slots take -1, so one partition of one copy finds
    the k-th; then its buffer ranks the slots tied at it by share."""
    T = share.size
    rem[~open_] = -1.0
    cut = np.partition(rem, -k)[-k]
    chosen = rem >= cut
    if np.count_nonzero(chosen) == k:  # every slot at the cut is kept
        return chosen
    chosen = rem > cut
    tied = rem == cut
    by_share = np.negative(share, out=rem[:T]).argsort(kind="stable")
    ranked = tied.reshape(2, T).T[by_share]
    flags = ranked.ravel()  # the first n hold the ties still needed
    n = bisect.bisect_left(range(flags.size + 1), k - np.count_nonzero(chosen),
                           key=lambda end: np.count_nonzero(flags[:end]))
    flags[n:] = False
    chosen.reshape(2, T).T[by_share] |= ranked
    return chosen
