"""Shared data model: token streams, window layouts, model configuration
and retention targets.

A stream holds already-embedded tokens in original sequence order. Visual and
audio tokens belong to temporal windows; text tokens belong to no window.
All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

VISUAL = 0
AUDIO = 1
TEXT = 2
MODALITY_NAMES = {VISUAL: "visual", AUDIO: "audio", TEXT: "text"}
NO_WINDOW = -1
# The most tokens one (window, modality) group may hold. Stage 1 fills an
# n x n float32 distance block per group, 64 MiB at this size, and refuses
# a larger group before it allocates one; the bench's groups hold 288.
MAX_GROUP = 4096
# The most rows a stream may hold, so that every row number fits the int32
# indices stage 1 and the drop layers hold; TokenStream refuses a longer
# field on its shape, before it copies anything.
MAX_ROWS = 2**31 - 1


class EngineError(Exception):
    """Base class for domain errors raised by this package."""


class InfeasibleScheduleError(EngineError):
    """No valid decay schedule exists for the requested configuration."""


class InfeasibleBudgetError(EngineError):
    """A token budget exceeds the available capacity."""


class StreamError(EngineError, ValueError):
    """A stream, its layout or a signal for it disagree in shape or value.

    Also a ValueError, so callers that catch ValueError keep working.
    """


def _frozen(a, dtype):
    """a as a read-only array of dtype. An aligned, read-only array of that
    dtype whose memory belongs to a bytes object (a container read by
    read_ots) cannot change and comes back as it is; anything else is
    copied."""
    if (isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.aligned
            and not a.flags.writeable):
        base = a.base
        while isinstance(base, np.ndarray):
            base = base.base
        if isinstance(base, bytes):
            return a
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


def freeze_fields(obj, dtype, *names) -> None:
    """Replace each named field of a frozen dataclass by a read-only array
    of the given dtype, as _frozen makes it. Fields that name one object
    get one array, frozen once."""
    # id of a source -> (the source, held so its id stays its own, and its
    # frozen array)
    frozen = {}
    for name in names:
        a = getattr(obj, name)
        if id(a) not in frozen:
            frozen[id(a)] = a, _frozen(a, dtype)
        object.__setattr__(obj, name, frozen[id(a)][1])


@dataclasses.dataclass(frozen=True)
class TokenStream:
    """Embedded tokens in original sequence order.

    embeddings: (N, d) real matrix, finite in text rows.
    modality:   (N,) labels in {VISUAL, AUDIO, TEXT}.
    window_id:  (N,) window index for visual/audio rows, never decreasing
                along a modality's rows; NO_WINDOW for text.
    position:   (N,) original sequence index, strictly increasing.

    A stream that breaks one of these is a StreamError naming the first
    faulty row, so no stage checks them again, and so is a field of more
    than MAX_ROWS rows.
    """

    embeddings: np.ndarray
    modality: np.ndarray
    window_id: np.ndarray
    position: np.ndarray

    def __post_init__(self):
        for name in ("embeddings", "modality", "window_id", "position"):
            shape = np.shape(getattr(self, name))
            if shape and shape[0] > MAX_ROWS:
                raise StreamError(f"a stream holds at most {MAX_ROWS} rows, "
                                  f"{name} has {shape[0]}")
        freeze_fields(self, np.float32, "embeddings")
        freeze_fields(self, np.int64, "modality", "window_id", "position")
        if self.embeddings.ndim != 2:
            raise ValueError("embeddings must be a 2-d matrix")
        n = self.embeddings.shape[0]
        if not (self.modality.shape == self.window_id.shape
                == self.position.shape == (n,)):
            raise ValueError("modality/window_id/position must have one entry per row")
        # argmax of a fault mask is its first faulty row
        modality, window_id = self.modality, self.window_id
        unknown = modality.view(np.uint64) > TEXT  # negative codes too
        if unknown.any():
            raise StreamError(f"{np.count_nonzero(unknown)} of {n} modality "
                              f"codes are not 0, 1 or 2, the first at row "
                              f"{np.argmax(unknown)}")
        is_text = modality == TEXT
        # text rows hold exactly NO_WINDOW, the others an id >= 0
        wrong = ((window_id < 0) != is_text) | (window_id < NO_WINDOW)
        if wrong.any():
            r = np.argmax(wrong)
            raise StreamError(
                f"{MODALITY_NAMES[int(modality[r])]} row {r} has window id "
                f"{window_id[r]}; it must be "
                f"{NO_WINDOW if is_text[r] else '>= 0'}")
        step = self.position[1:] <= self.position[:-1]
        if step.any():
            raise StreamError(f"position not strictly increasing at row "
                              f"{np.argmax(step) + 1}")
        for m in (VISUAL, AUDIO):
            ids = window_id[modality == m]
            back = ids[1:] < ids[:-1]
            if back.any():
                raise StreamError(
                    f"window_id decreases along {MODALITY_NAMES[m]} rows at "
                    f"row {self.rows_of(m)[np.argmax(back) + 1]}")
        text_rows = np.flatnonzero(is_text)
        finite = np.isfinite(self.embeddings[text_rows]).all(axis=1)
        if not finite.all():
            raise StreamError(f"text row {text_rows[np.argmin(finite)]} has "
                              f"a non-finite embedding")

    @property
    def n(self) -> int:
        return self.embeddings.shape[0]

    @property
    def d(self) -> int:
        return self.embeddings.shape[1]

    def count(self, modality: int) -> int:
        return int(np.count_nonzero(self.modality == modality))

    @property
    def n_visual(self) -> int:
        return self.count(VISUAL)

    @property
    def n_audio(self) -> int:
        return self.count(AUDIO)

    @property
    def n_text(self) -> int:
        return self.count(TEXT)

    def rows_of(self, modality: int) -> np.ndarray:
        """Row indices (storage order) of one modality."""
        return np.flatnonzero(self.modality == modality)

    def take(self, rows) -> "TokenStream":
        """Row subset. Rows must ascend, as the positions must."""
        rows = np.asarray(rows, dtype=np.int64)
        return TokenStream(
            embeddings=self.embeddings[rows],
            modality=self.modality[rows],
            window_id=self.window_id[rows],
            position=self.position[rows],
        )


@dataclasses.dataclass(frozen=True, slots=True)
class WindowLayout:
    """Per-window visual/audio token counts. May be ragged across windows.
    total_visual and total_audio are their sums, taken once: a request
    reads them at every layer."""

    n_v: np.ndarray
    n_a: np.ndarray
    total_visual: int = dataclasses.field(init=False, repr=False,
                                          compare=False)
    total_audio: int = dataclasses.field(init=False, repr=False,
                                         compare=False)

    def __post_init__(self):
        freeze_fields(self, np.int64, "n_v", "n_a")
        nv, na = self.n_v, self.n_a
        if nv.ndim != 1 or na.ndim != 1 or nv.shape != na.shape:
            raise ValueError("n_v and n_a must be 1-d and the same length")
        if nv.shape[0] < 1:
            raise ValueError("at least one window is required")
        if np.any(nv < 0) or np.any(na < 0):
            raise ValueError("window counts must be non-negative")
        object.__setattr__(self, "total_visual", int(nv.sum()))
        object.__setattr__(self, "total_audio", int(na.sum()))

    @property
    def T(self) -> int:
        return self.n_v.shape[0]

    @staticmethod
    def from_stream(stream: TokenStream, T: int | None = None) -> "WindowLayout":
        """Current per-window counts of a stream.

        T defaults to max(window_id)+1; pass it explicitly when trailing
        windows may have been emptied by selection. A visual or audio row
        outside [0, T) is a StreamError.
        """
        if T is None:
            T = int(stream.window_id.max(initial=0)) + 1
        visual, audio = stream.modality == VISUAL, stream.modality == AUDIO
        n_v = np.bincount(stream.window_id[visual], minlength=T)
        n_a = np.bincount(stream.window_id[audio], minlength=T)
        if max(n_v.size, n_a.size) > T:
            raise StreamError(f"window id {max(n_v.size, n_a.size) - 1} lies "
                              f"outside [0, {T})")
        return WindowLayout(n_v=n_v, n_a=n_a)


def segments(counts: np.ndarray):
    """One modality's tokens, laid out window-major, grouped by run length.

    counts[t] tokens of the modality sit in window t, window after window.
    Yields (n, windows, starts) for each distinct non-zero length n,
    ascending: windows holds, ascending, the windows with exactly n tokens
    and starts the offset of each such window's first token, so
    starts[:, None] + np.arange(n) are the offsets of their runs. Every
    stage that works window by window goes through these runs, so a whole
    size class is handled by one array operation; a stage builds the
    offsets of as many runs at a time as it handles.
    """
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    for n in np.unique(counts[counts > 0]):
        windows = np.flatnonzero(counts == n)
        yield int(n), windows, starts[windows]


def window_blocks(scores: np.ndarray,
                  counts: np.ndarray) -> tuple[list, np.ndarray]:
    """A modality's counts.sum() scores, window-major, gathered once per
    segments() class as a (windows, starts, block) triple, row i of the
    block holding window windows[i]'s scores, and the window means (0 where
    empty): what apply_budget ranks and what window_relevance weighs."""
    means = np.zeros(len(counts))
    blocks = []
    for n, windows, starts in segments(counts):
        block = scores[starts[:, None] + np.arange(n)]
        # block.mean(axis=1), bit for bit, without its Python wrapper
        means[windows] = np.add.reduce(block, axis=1) / n
        blocks.append((windows, starts, block))
    return blocks, means


@dataclasses.dataclass(frozen=True)
class ModelConfig:
    """Mock backbone geometry: layer count, widths, and block boundaries.

    boundaries = (L_s, L_m1, L_m2, L_l), 1-based layer indices delimiting the
    shallow block [1, L_s], the middle sub-blocks, and the late block [L_l, L].
    Every schedule and trace holds L entries per layer array, so L is at
    most 4,096, far past any real backbone's depth.
    """

    layers: int
    d_model: int
    d_ff: int
    n_heads: int
    boundaries: tuple[int, int, int, int]

    def __post_init__(self):
        L = self.layers
        if L > 4096:
            raise ValueError(f"layers must be at most 4096, got {L}")
        ls, lm1, lm2, ll = self.boundaries
        if not (1 <= ls < lm1 <= lm2 < ll <= L):
            raise ValueError(
                f"boundaries must satisfy 1 <= L_s < L_m1 <= L_m2 < L_l <= L, "
                f"got ({ls},{lm1},{lm2},{ll}) with L={L}"
            )
        if not all(0 < w < 2**63
                   for w in (self.d_model, self.d_ff, self.n_heads)):
            raise ValueError("widths and head count must lie in [1, 2**63)")
        object.__setattr__(self, "boundaries", (int(ls), int(lm1), int(lm2), int(ll)))


@dataclasses.dataclass(frozen=True)
class RetentionSpec:
    """Retention targets: per-modality ratios, the pre-LLM scale factor, and
    the window-relevance softmax temperature."""

    r_v: float
    r_a: float
    lambda_: float
    tau: float

    def __post_init__(self):
        for name, value in (("r_v", self.r_v), ("r_a", self.r_a)):
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        # each test is written so that a NaN fails it
        if not 1.0 <= self.lambda_ < math.inf:
            raise ValueError(f"lambda_ must be finite and >= 1, got "
                             f"{self.lambda_}")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
