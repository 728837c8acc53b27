"""Block-wise per-layer retention decay schedules.

The model's L layers are split into a shallow block [1, L_s], three middle
sub-blocks (L_s, L_m1), [L_m1, L_m2), [L_m2, L_l), and a late block [L_l, L].
The shallow block keeps ratio r_s = min(1, lambda*R); each middle sub-block
steps down by an exponentially widening decrement delta*e^(i-1); the late
block keeps nothing. delta is fixed so the layer-mean retention equals R:

    L*R = r_s*(L_l - 1) + delta*C,
    C   = L_s + 1 + e*L_m1 + e^2*L_m2 - (1 + e + e^2)*L_l   (always < 0).

The identity is linear in delta for any r_s, so delta has a closed form:
delta = (L*R - r_s*(L_l - 1)) / C, which with r_s = lambda*R (no clipping)
reads delta = (L - L_l*lambda + lambda)*R / C.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .core import (ConfigError, InfeasibleScheduleError, ModelConfig,
                   freeze_fields)

_E = math.e
_EPS = float(np.finfo(np.float64).eps)
_DECAY = (1.0, 1.0 + _E, 1.0 + _E + _E * _E)  # cumulative step multipliers

BLOCK_LABELS = ("shallow", "middle1", "middle2", "middle3", "late")


@dataclasses.dataclass(frozen=True)
class SchedulePlan:
    """Per-layer retention ratios and the decay scale that produced them."""

    per_layer_trr: np.ndarray  # length L, index 0 is layer 1
    delta: float

    def __post_init__(self):
        freeze_fields(self, np.float64, "per_layer_trr")

    @property
    def drop_layers(self) -> tuple[int, ...]:
        """1-based layers where the ratio strictly falls."""
        trr = self.per_layer_trr
        return tuple((np.flatnonzero(trr[1:] < trr[:-1]) + 2).tolist())

    def trr_at(self, layer: int) -> float:
        """Retention ratio at a 1-based layer index."""
        if not 1 <= layer <= self.per_layer_trr.shape[0]:
            raise ValueError(
                f"layer {layer} outside [1, {self.per_layer_trr.shape[0]}]"
            )
        return float(self.per_layer_trr[layer - 1])


def block_constant(config: ModelConfig) -> float:
    ls, lm1, lm2, ll = config.boundaries
    return ls + 1 + _E * lm1 + _E * _E * lm2 - (1 + _E + _E * _E) * ll


def block_of(layer: int, config: ModelConfig) -> str:
    """Block label of a 1-based layer index."""
    if not 1 <= layer <= config.layers:
        raise ValueError(f"layer {layer} outside [1, {config.layers}]")
    return BLOCK_LABELS[_block_index(config)[layer - 1]]


def _validate(r_s: float, delta: float, label: str) -> None:
    if delta < 0.0:
        raise InfeasibleScheduleError(
            f"{label}: delta={delta:.6g} < 0; the shallow ratio cannot cover "
            f"the budget (scale factor too small for this late boundary)"
        )
    r_m3 = r_s - delta * _DECAY[2]
    if r_m3 < 0.0:
        raise InfeasibleScheduleError(
            f"{label}: deepest middle sub-block ratio r_m3={r_m3:.6g} < 0"
        )


def _block_index(config: ModelConfig) -> np.ndarray:
    """Block of each layer as an index into BLOCK_LABELS, layer 1 first.

    Counting the boundaries a layer has passed gives its block because
    ModelConfig guarantees 1 <= L_s < L_m1 <= L_m2 < L_l <= L.
    """
    ls, lm1, lm2, ll = config.boundaries
    layer = np.arange(1, config.layers + 1)
    return (
        (layer > ls).astype(np.intp) + (layer >= lm1) + (layer >= lm2)
        + (layer >= ll)
    )


def _layer_vector(block: np.ndarray, r_s: float, delta: float) -> np.ndarray:
    """Per-layer ratios for given (r_s, delta) over a _block_index array."""
    steps = [r_s - delta * k for k in _DECAY]
    return np.array((r_s, *steps, 0.0))[block]


def shallow_ratio(r: float, lambda_: float) -> float:
    """r_s = min(1, lambda*r): the shallow block's ratio, and stage 1's."""
    return min(1.0, lambda_ * r)


def _check_inputs(r: float, lambda_: float) -> None:
    # written so that a NaN fails every comparison and is refused
    if not 0.0 <= r <= 1.0:
        raise ConfigError(f"r must lie in [0, 1], got {r}")
    if not 1.0 <= lambda_ < math.inf:
        raise ConfigError(f"lambda must be finite and >= 1, got {lambda_}")


def _edge(numerator: float, scale: float) -> float:
    """delta's numerator, 0 where it is positive (delta negative, as C < 0)
    by no more than a few ulps of scale, its largest term. There the inputs
    sit on the edge delta = 0 in exact arithmetic and only rounding moved
    them: 1.2 lies just below 12/10, so L = 12, L_l = 11, lambda = 1.2
    leaves a numerator of 6.7e-16 and would refuse delta = -1.6e-17."""
    return 0.0 if 0.0 < numerator <= 4 * _EPS * scale else numerator


def solve_delta(
    config: ModelConfig, r: float, lambda_: float
) -> tuple[float, float]:
    """Closed-form decay scale for the budget identity; returns (delta, C).

    Raises InfeasibleScheduleError when delta < 0 or the deepest middle
    ratio would go negative; a delta that only rounding pushed below 0
    (see _edge) is 0.
    """
    _check_inputs(r, lambda_)
    c = block_constant(config)
    if r == 0.0:
        return 0.0, c
    ll = config.boundaries[3]
    r_s = shallow_ratio(r, lambda_)
    if r_s == 1.0:
        # the shallow ratio is 1, clipped or not (at lambda*r == 1 the other
        # form leaves a rounding residue); the identity stays linear in delta
        delta = _edge(config.layers * r - (ll - 1), config.layers * r) / c
        if delta < 0.0:
            raise InfeasibleScheduleError(
                f"closed form: keeping every token until the late boundary "
                f"gives a mean ratio of {(ll - 1) / config.layers:.6g}, "
                f"already below target {r:.6g}"
            )
    else:
        delta = _edge(config.layers - ll * lambda_ + lambda_,
                      ll * lambda_) * r / c
    delta += 0.0  # a zero numerator over the negative C gives -0.0
    _validate(r_s, delta, "closed form")
    return delta, c


def delta_oracle(config: ModelConfig, r: float, lambda_: float) -> float:
    """Bisection root of the budget identity, independent of the closed form.

    Searches delta in [0, r_s] until the layer-mean of the explicitly built
    per-layer vector matches r to 1e-12. Exists so the algebra above can be
    cross-checked.
    """
    _check_inputs(r, lambda_)
    if r == 0.0:
        return 0.0
    r_s = shallow_ratio(r, lambda_)
    block = _block_index(config)

    def mean_gap(delta: float) -> float:
        return float(_layer_vector(block, r_s, delta).mean()) - r

    lo, hi = 0.0, r_s
    g_lo = mean_gap(lo)
    if g_lo < -1e-12:
        raise InfeasibleScheduleError(
            f"oracle: mean ratio {g_lo + r:.6g} at delta=0 already below "
            f"target {r:.6g}; no root in [0, r_s]"
        )
    if mean_gap(hi) > 1e-12:
        raise InfeasibleScheduleError(
            "oracle: no root in [0, r_s]; target unreachable even at "
            "maximal decay"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g = mean_gap(mid)
        if abs(g) <= 1e-12:
            lo = hi = mid
            break
        if g > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14:
            break
    delta = 0.5 * (lo + hi)
    _validate(r_s, delta, "oracle")
    return delta


def build_schedule(config: ModelConfig, r: float, lambda_: float) -> SchedulePlan:
    """Full per-layer plan for one retention target."""
    delta, _ = solve_delta(config, r, lambda_)
    per_layer = _layer_vector(_block_index(config), shallow_ratio(r, lambda_),
                              delta)
    return SchedulePlan(per_layer_trr=per_layer, delta=delta)
