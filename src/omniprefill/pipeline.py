"""End-to-end prefill simulation and the seeded synthetic stream generator.

A run walks an L-layer mock prefill: diversity pruning before layer 1, budget
re-allocation at each layer where the retention schedule steps down, and full
non-text removal at the late boundary. The mock model supplies attention
signals only; no hidden states are computed because every selection decision
consumes attention and embeddings alone.

Synthetic streams come from a counter-based generator (Philox, 4x64) keyed by
(seed, purpose, layer, window, modality), so any value can be regenerated
independently of call order and identical seeds give bit-identical streams
and oracle answers. Chosen windows can be given elevated query affinity
(planted_gain added to their tokens' query logits in both modalities) to test
whether the allocator finds them.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .allocator import BudgetPlan, allocate
from .core import (
    AUDIO,
    MAX_GROUP,
    MODALITY_NAMES,
    NO_WINDOW,
    TEXT,
    VISUAL,
    ConfigError,
    ModelConfig,
    Owned,
    RetentionSpec,
    StreamError,
    TokenStream,
    WindowLayout,
    config_fields,
    freeze_fields,
    integer,
    integers,
    outside_array,
    real,
    window_blocks,
)
from .divprune import SelectionResult, win_div_prune
from .relevance import real_weights, softmax, window_relevance
from .schedule import SchedulePlan, build_schedule
from .selector import LayerSelection, apply_budget, late_removal

_PURPOSE_EMBED = 1
_PURPOSE_STAGE1 = 2
_PURPOSE_QUERY = 3
_MASK64 = (1 << 64) - 1
# The most embedding entries (tokens x d) a SynthSpec may ask for, 512 MiB
# of float32, and the most stage-1 attention draws, T x (n_v^2 + n_a^2);
# the bench's largest stream holds 11.1 M entries and makes 43.7 M draws.
MAX_SYNTH_ENTRIES = 2**27


@dataclasses.dataclass(frozen=True)
class SynthSpec:
    """Recipe for a reproducible synthetic omni-modal stream.

    Windows are laid out chronologically, visual rows then audio rows per
    window, with n_q text tokens at the end. planted_windows receive
    planted_gain on their query logits (background logits are standard
    normal, so the gain is in sigma units).

    Sizes are bounded before anything is drawn: n_v and n_a at most
    MAX_GROUP, T at most the stream's token count n = T*(n_v+n_a) + n_q
    (a container's rule), and both n*d and the oracle's stage-1 attention
    draws, T*(n_v^2 + n_a^2), at most MAX_SYNTH_ENTRIES. A field of the
    wrong kind (planted_gain a real number, the others integers) or
    out of range is a ConfigError.
    """

    seed: int
    T: int
    d: int
    n_v: int
    n_a: int
    n_q: int
    planted_windows: tuple[int, ...] = ()
    planted_gain: float = 0.0

    def __post_init__(self):
        config_fields(self, integer, "seed", "T", "d", "n_v", "n_a", "n_q")
        config_fields(self, integers, "planted_windows")
        config_fields(self, real, "planted_gain")
        if min(self.T, self.d, self.n_q) < 1 or min(self.n_v, self.n_a) < 0:
            raise ConfigError("sizes must be positive (n_v, n_a may be zero)")
        n = self.T * (self.n_v + self.n_a) + self.n_q
        if (max(self.n_v, self.n_a) > MAX_GROUP or self.T > n
                or n * self.d > MAX_SYNTH_ENTRIES):
            raise ConfigError(
                f"n_v and n_a must be at most {MAX_GROUP}, T at most the "
                f"{n} tokens and tokens x d at most {MAX_SYNTH_ENTRIES}; got "
                f"T={self.T} d={self.d} n_v={self.n_v} n_a={self.n_a} "
                f"n_q={self.n_q}")
        draws = self.T * (self.n_v**2 + self.n_a**2)
        if draws > MAX_SYNTH_ENTRIES:
            raise ConfigError(
                f"stage-1 attention draws T x (n_v^2 + n_a^2) must be at most "
                f"{MAX_SYNTH_ENTRIES}; got {draws} for T={self.T} "
                f"n_v={self.n_v} n_a={self.n_a}")
        planted = tuple(sorted(set(self.planted_windows)))
        if any(t < 0 or t >= self.T for t in planted):
            raise ConfigError(f"planted windows must lie in [0, {self.T})")
        if not self.planted_gain >= 0:  # a NaN fails this too
            raise ConfigError("planted_gain must be non-negative")
        object.__setattr__(self, "planted_windows", planted)

    def provenance(self) -> dict:
        return {
            "algorithm": "philox4x64",
            "seed": int(self.seed),
            "keying": "key = (seed mod 2^64) + ((purpose | layer<<8 | "
                      "window<<24 | modality<<40) << 64)",
            "purposes": {"embeddings": _PURPOSE_EMBED,
                         "stage1_attention": _PURPOSE_STAGE1,
                         "query_logits": _PURPOSE_QUERY},
            "planted_windows": list(self.planted_windows),
            "planted_gain": float(self.planted_gain),
        }


def _philox() -> np.random.Generator:
    """A Philox generator for _keyed_rng to re-key. Its seed is never drawn
    from, and a given one spares the OS entropy an unseeded one reads."""
    return np.random.Generator(np.random.Philox(0))


def _keyed_rng(rng: np.random.Generator, seed: int, purpose: int,
               layer: int = 0, window: int = 0,
               modality: int = 0) -> np.random.Generator:
    """rng, a _philox() generator, keyed by (seed, purpose, layer, window,
    modality) with a zero counter and an empty buffer: the state that
    np.random.Philox(key=...) starts in, set without building one."""
    context = purpose | (layer << 8) | (window << 24) | (modality << 40)
    key = (seed & _MASK64) + (context << 64)
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64),
                  "key": np.array([key & _MASK64, key >> 64], dtype=np.uint64)},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _survivor_probs(logits: np.ndarray, layer: int,
                    ordinals: np.ndarray) -> np.ndarray:
    """Softmax of the surviving tokens' query logits. logits covers a
    modality's original tokens; ordinals, a vector of integers, index that
    original order, and one outside it is a StreamError naming the layer."""
    ordinals = np.asarray(ordinals)
    if ordinals.dtype.kind not in "iu" or ordinals.ndim != 1:
        raise StreamError(
            f"query ordinals for layer {layer} must be a vector of integers, "
            f"got {ordinals.dtype} of shape {ordinals.shape}")
    if ordinals.size == 0:
        return np.zeros(0)
    for ordinal in (ordinals.min(), ordinals.max()):
        if not 0 <= ordinal < logits.shape[0]:
            raise StreamError(
                f"query logits for layer {layer} cover {logits.shape[0]} "
                f"tokens, ordinal {int(ordinal)} requested")
    # a fresh gather either way, so the softmax runs in place on it
    chosen = logits[ordinals].astype(np.float64, copy=False)
    if not np.isfinite(chosen).all():
        raise StreamError(f"query logits for layer {layer} are not finite")
    return softmax(chosen, out=chosen)


class SyntheticOracle:
    """Attention oracle for a generated stream.

    stage1_attention answers with the full original group's row-stochastic
    matrix. Query logits are keyed by (layer, modality), drawn over the
    original token count and indexed by the survivors, so earlier selections
    never perturb later scores. Every draw re-keys the oracle's one
    generator, so an oracle serves one thread at a time; nothing drawn is
    kept, as a keyed draw repeats exactly.
    """

    def __init__(self, spec: SynthSpec):
        self.spec = spec
        self._rng = _philox()

    def stage1_attention(self, window: int, modality: int, n: int) -> np.ndarray:
        expected = self.spec.n_v if modality == VISUAL else self.spec.n_a
        if n != expected:
            raise ValueError(
                f"stage-1 attention requested for {n} tokens, group has {expected}"
            )
        if n == 0:
            return np.zeros((0, 0))
        rng = _keyed_rng(self._rng, self.spec.seed, _PURPOSE_STAGE1,
                         window=window, modality=modality)
        draws = rng.standard_normal((n, n))
        return softmax(draws, out=draws)

    def _query_logits(self, layer: int, modality: int) -> np.ndarray:
        per_window = self.spec.n_v if modality == VISUAL else self.spec.n_a
        total = self.spec.T * per_window
        rng = _keyed_rng(self._rng, self.spec.seed, _PURPOSE_QUERY,
                         layer=layer, modality=modality)
        logits = rng.standard_normal(total)
        if self.spec.planted_windows and self.spec.planted_gain > 0:
            window_of = np.repeat(np.arange(self.spec.T), per_window)
            planted = np.isin(window_of, self.spec.planted_windows)
            logits = logits + self.spec.planted_gain * planted
        return logits

    def saliency(self, window: int, modality: int, n: int) -> np.ndarray:
        """Mean received attention inside one original group: the column
        means of its row-stochastic attention."""
        return self.stage1_attention(window, modality, n).mean(axis=0)

    def modality_saliency(self, modality: int,
                          counts: np.ndarray) -> np.ndarray:
        """The saliency of every non-empty window, concatenated
        window-major."""
        windows = np.flatnonzero(counts)
        return np.concatenate([
            self.saliency(t, modality, n)
            for t, n in zip(windows.tolist(), counts[windows].tolist())
        ])

    def query_probs(self, layer: int, modality: int,
                    ordinals: np.ndarray) -> np.ndarray:
        return _survivor_probs(self._query_logits(layer, modality), layer,
                               ordinals)


class ContainerOracle:
    """Oracle backed by the optional sections of a stream container.

    Expects saliency vectors under "saliency/w{t}/{visual|audio}" and
    full-length query logits under "query_logits/layer{l}/{visual|audio}".
    Missing entries fall back to uniform signals (None). sections is the
    Sections mapping read_ots returns, whose gather builds a modality's
    saliency in one index.
    """

    def __init__(self, sections, T: int):
        self.sections = sections
        self.T = T

    def modality_saliency(self, modality, counts):
        """One float32 vector over the modality's rows, window-major, from
        the sections of its non-empty windows; rows of a window without a
        section weigh 1, and None means no window has one. The first
        window, in ascending order, whose section length differs from its
        count is a StreamError."""
        windows = np.flatnonzero(counts)
        name = MODALITY_NAMES[modality]
        names = [f"saliency/w{t}/{name}" for t in windows.tolist()]
        n = counts[windows]
        sizes, vec = self.sections.gather(names, n)
        present = sizes >= 0
        bad = np.flatnonzero(present & (sizes != n))
        if bad.size:
            i = bad[0]
            raise StreamError(
                f"saliency section for window {windows[i]} has {sizes[i]} "
                f"entries, group holds {n[i]}"
            )
        return vec

    def query_probs(self, layer, modality, ordinals):
        logits = self.sections.get(
            f"query_logits/layer{layer}/{MODALITY_NAMES[modality]}"
        )
        if logits is None:
            return None
        return _survivor_probs(np.reshape(logits, -1), layer, ordinals)


def synth_generate(spec: SynthSpec) -> tuple[TokenStream, SyntheticOracle]:
    """Deterministic stream + oracle from a spec."""
    per_window = spec.n_v + spec.n_a
    n = spec.T * per_window + spec.n_q
    rng = _keyed_rng(_philox(), spec.seed, _PURPOSE_EMBED)
    embeddings = rng.standard_normal((n, spec.d), dtype=np.float32)

    window = np.repeat([VISUAL, AUDIO], [spec.n_v, spec.n_a])
    modality = np.concatenate([np.tile(window, spec.T),
                               np.full(spec.n_q, TEXT)], dtype=np.int64)
    window_id = np.concatenate([np.repeat(np.arange(spec.T), per_window),
                                np.full(spec.n_q, NO_WINDOW)], dtype=np.int64)

    # the stream adopts these fresh arrays rather than copying them, so
    # generation peaks at the stream's own size
    stream = TokenStream(
        embeddings=Owned(embeddings),
        modality=Owned(modality),
        window_id=Owned(window_id),
        position=Owned(np.arange(n, dtype=np.int64)),
    )
    return stream, SyntheticOracle(spec)


@dataclasses.dataclass(frozen=True)
class PrefillTrace:
    """Everything a run decided, layer by layer.

    kept_v[i] / kept_a[i] count the visual / audio input tokens of 1-based
    layer i+1, recorded after any selection at that layer; seq_len[i] adds
    the n_q = n_original[2] text tokens kept_text holds at every layer. All
    are non-increasing, and seq_len equals n_q from the late boundary on.
    """

    kept_v: np.ndarray
    kept_a: np.ndarray
    stage1: SelectionResult
    selections: tuple[LayerSelection, ...]
    plans: tuple[tuple[int, BudgetPlan], ...]
    schedule_v: SchedulePlan
    schedule_a: SchedulePlan
    config: ModelConfig
    retention: RetentionSpec
    n_original: tuple[int, int, int]  # (N_v, N_a, N_q)
    T: int
    seq_len: np.ndarray = dataclasses.field(init=False)
    kept_text: np.ndarray = dataclasses.field(init=False)

    def __post_init__(self):
        freeze_fields(self, np.int64, "kept_v", "kept_a")
        n_q = self.n_original[2]
        object.__setattr__(self, "seq_len", self.kept_v + self.kept_a + n_q)
        object.__setattr__(self, "kept_text", np.full(self.layers, n_q))
        freeze_fields(self, np.int64, "seq_len", "kept_text")

    @property
    def layers(self) -> int:
        return int(self.seq_len.shape[0])


def stage1_saliency(oracle, layout: WindowLayout) -> tuple:
    """The (visual, audio) saliency pair win_div_prune takes. The oracle is
    asked once per modality that has rows, visual then audio, for one
    vector over that modality's rows, window-major, or None; a modality
    without rows gets None."""
    return tuple(oracle.modality_saliency(m, counts) if counts.any() else None
                 for m, counts in ((VISUAL, layout.n_v), (AUDIO, layout.n_a)))


@dataclasses.dataclass
class _Survivors:
    """The non-text tokens still in the run, as a drop layer narrows them.

    ordinals: per modality, visual then audio, ascending int32 ordinals
              into the modality's original rows: what the oracle scores.
    kept:     the previous selection's ascending original positions
              (stage 1's include text), held as that selection holds them.
    codes:    the int8 modality code of each entry of kept.
    A modality's entries of kept ascend as its ordinals do, so its i-th
    entry is the position of its i-th ordinal.
    """

    ordinals: list
    kept: np.ndarray
    codes: np.ndarray


def _survivors(stream: TokenStream, stage1: SelectionResult) -> _Survivors:
    """The stage-1 survivors of stream, ready for the first drop layer."""
    survived = np.zeros(stream.n, dtype=bool)
    survived[stage1.rows] = True
    ordinals = [np.flatnonzero(survived[stream.modality == m]).astype(np.int32)
                for m in (VISUAL, AUDIO)]
    del survived
    codes = stream.modality.astype(np.int8)[stage1.rows]
    return _Survivors(ordinals, stage1.kept, codes)


def _query_scores(oracle, layer: int, modality: int,
                  ordinals: np.ndarray) -> np.ndarray:
    """The oracle's (None for none) query scores of a modality's survivors
    at a drop layer, or 1/n each for n survivors where it gives none. As
    stage-1 saliency, they must be one finite, non-negative real number per
    survivor; anything else is a StreamError naming layer and modality."""
    probs = (None if oracle is None
             else oracle.query_probs(layer, modality, ordinals))
    if probs is None:
        return np.full(ordinals.size, 1.0 / max(ordinals.size, 1))
    checked = real_weights(probs, ordinals.size)
    if checked is None:
        probs = outside_array(probs)
        raise StreamError(
            f"layer {layer} {MODALITY_NAMES[modality]} query scores must be "
            f"{ordinals.size} finite, non-negative real numbers, one per "
            f"survivor; got {probs.dtype} of shape {probs.shape}")
    return checked


def _drop_layer(oracle, layer: int, survivors: _Survivors,
                layout: WindowLayout, r_v: float, r_a: float,
                totals: tuple[int, int], tau: float):
    """One drop layer: score the survivors, allocate the layer's budget and
    keep each window's best. A modality's scores are gathered once per
    window-size class, for relevance's window means and apply_budget's
    ranking. survivors is narrowed in place to the layer's selection, so
    each array goes as its successor comes. Returns the selection and the
    plan; nothing else of the layer outlives the call."""
    blocks, means = zip(*(
        window_blocks(_query_scores(oracle, layer, m, ordinals), counts)
        for m, ordinals, counts in zip((VISUAL, AUDIO), survivors.ordinals,
                                       (layout.n_v, layout.n_a))))
    s_v, s_a = window_relevance(*means, layout, tau)
    # a long stream's peak falls in this layer: free each array once
    # nothing reads it
    del means
    # Per-window keep floors at earlier stages can leave fewer survivors
    # than this layer's nominal budget (small windows lose a large fraction
    # to flooring). Scale both totals down together so the target fits; the
    # common factor keeps every intra-window split ratio unchanged.
    n_v0, n_a0 = totals
    capacity = layout.total_visual + layout.total_audio
    nominal = r_v * n_v0 + r_a * n_a0
    if round(nominal) > capacity:
        shrink = capacity / nominal
        totals = (n_v0 * shrink, n_a0 * shrink)
    plan = allocate(s_v, s_a, r_v, r_a, layout, totals=totals)
    del s_v, s_a
    keep = apply_budget(plan, *blocks, layout)
    del blocks
    # each modality's keep flags land on its codes' entries; text entries
    # (stage 1's) stay unset
    mask = np.zeros(survivors.kept.size, dtype=bool)
    ordinals = survivors.ordinals
    for m, flags in zip((VISUAL, AUDIO), keep):
        mask[survivors.codes == m] = flags
        ordinals[m] = ordinals[m][flags]
    del keep, flags
    # the selection adopts its fresh arrays rather than copying them
    selection = LayerSelection(layer=layer, kept=Owned(survivors.kept[mask]),
                               dropped_v=Owned(layout.n_v - plan.b_v),
                               dropped_a=Owned(layout.n_a - plan.b_a))
    survivors.kept = selection.kept
    survivors.codes = survivors.codes[mask]
    return selection, plan


def run_pipeline(
    source,
    config: ModelConfig,
    retention: RetentionSpec,
    oracle=None,
    T: int | None = None,
) -> tuple[TokenStream, PrefillTrace]:
    """Run all three stages over a stream or a SynthSpec.

    The oracle supplies stage-1 saliency and per-layer query scores; pass
    None for uniform signals: stage 1 weighs every token alike and each
    drop layer scores a modality's n survivors 1/n each (a SynthSpec
    brings its own oracle). T is a stream's window count, trailing empty
    windows included, as a container's header `t` declares it; None takes
    one past the stream's largest window id, and a SynthSpec brings its
    own T. A T that leaves some window id outside [0, T) is a
    StreamError. Returns the final text-only stream and the full trace.
    """
    if isinstance(source, SynthSpec):
        stream, oracle = synth_generate(source)
        T = source.T
    else:
        stream = source

    layout = WindowLayout.from_stream(stream, T)
    T = layout.T
    n_v0, n_a0, n_q = layout.total_visual, layout.total_audio, stream.n_text
    sched_v = build_schedule(config, retention.r_v, retention.lambda_)
    sched_a = build_schedule(config, retention.r_a, retention.lambda_)
    # drop layers: where either ratio falls before L_l; late removal is L_l
    ll = config.boundaries[3]
    drop_layers = sorted({*sched_v.drop_layers, *sched_a.drop_layers} - {ll})

    # the saliency pair is a temporary, freed before the drop layers run
    stage1 = win_div_prune(
        stream, layout,
        None if oracle is None else stage1_saliency(oracle, layout),
        retention)
    # From here on the layout is carried, not recounted: stage 1 keeps
    # exactly kept_v[t] / kept_a[t] tokens per window and a drop layer
    # exactly plan.b_v[t] / plan.b_a[t].
    layout = WindowLayout(stage1.kept_v, stage1.kept_a)
    # No later stage reads embeddings: each modality's survivors travel as
    # ascending ordinals into its original rows, window-major because those
    # rows are, and their positions as the previous selection's kept array
    # with one modality code per entry; a drop layer narrows all three.
    # Query logits are drawn over that original order, so the ordinals are
    # what the oracle scores, and selection cannot shift them. Text is
    # never dropped, so the final text-only stream is the input's text rows.
    survivors = _survivors(stream, stage1)

    L = config.layers
    kept = np.empty((2, L), dtype=np.int64)  # visual, audio tokens per layer
    kept[:] = [[layout.total_visual], [layout.total_audio]]
    selections: list[LayerSelection] = []
    plans: list[tuple[int, BudgetPlan]] = []
    for layer in drop_layers:
        selection, plan = _drop_layer(
            oracle, layer, survivors, layout, sched_v.trr_at(layer),
            sched_a.trr_at(layer), (n_v0, n_a0), retention.tau)
        selections.append(selection)
        plans.append((layer, plan))
        # the plan's counts are frozen already: shared, not copied
        layout = WindowLayout(Owned(plan.b_v), Owned(plan.b_a))
        kept[:, layer - 1:] = [[layout.total_visual], [layout.total_audio]]
    final = late_removal(stream)
    selections.append(LayerSelection(layer=ll, kept=(), dropped_v=layout.n_v,
                                     dropped_a=layout.n_a))
    kept[:, ll - 1:] = 0

    trace = PrefillTrace(
        kept_v=kept[0],
        kept_a=kept[1],
        stage1=stage1,
        selections=tuple(selections),
        plans=tuple(plans),
        schedule_v=sched_v,
        schedule_a=sched_a,
        config=config,
        retention=retention,
        n_original=(n_v0, n_a0, n_q),
        T=T,
    )
    return final, trace


def mean_retention(trace: PrefillTrace) -> dict[str, float]:
    """Layer-mean realized retention per modality.

    Tracks the configured (r_v, r_a) up to integerization: each layer's kept
    count deviates from schedule*N_m by at most about 2T tokens under
    near-uniform relevance (window flooring plus cross-modal drift), so the
    layer mean stays within 2*T*(L_l-1)/(L*N_m). A modality absent from the
    input reports nan.
    """
    L = trace.layers
    out = {}
    for name, kept, total in (
        ("visual", trace.kept_v, trace.n_original[0]),
        ("audio", trace.kept_a, trace.n_original[1]),
    ):
        out[name] = float(kept.sum() / (L * total)) if total else math.nan
    return out


def retention_slack(trace: PrefillTrace) -> dict[str, float]:
    """The declared tolerance for mean_retention, per modality."""
    ll = trace.config.boundaries[3]
    L = trace.layers
    out = {}
    for name, total in (("visual", trace.n_original[0]),
                        ("audio", trace.n_original[1])):
        out[name] = 2.0 * trace.T * (ll - 1) / (L * total) if total else math.inf
    return out
