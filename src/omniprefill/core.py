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
_INT64_MAX = 2**63 - 1
_TWO_63 = np.float64(2.0**63)  # float64, so no float16 comparison overflows


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


class ConfigError(EngineError, ValueError):
    """A malformed config document or config field. Also a ValueError."""


def outside_array(value) -> np.ndarray:
    """np.asarray(value) for a vector from outside the engine, or, for a
    value numpy finds no one shape for (a ragged list), a 0-d object array,
    which each caller's check of kind and shape refuses as its own error."""
    try:
        return np.asarray(value)
    except ValueError:
        return np.array(None)


def exact_array(value, dtype, what: str) -> np.ndarray:
    """A new array of dtype holding value, from outside the engine, exactly,
    else a StreamError naming what. int64 takes signed integers, unsigned
    ones to 2**63 - 1 and whole floats inside int64; a float dtype takes
    bool, integer and float values, float32 overflow going to inf without a
    warning. Anything else (bools into int64, complex, strings, a ragged
    list, an int past int64) is refused before numpy truncates or wraps."""
    a = outside_array(value)
    if a.dtype == dtype or a.dtype.kind == "i":
        return np.array(a, dtype)
    kind, dtype = a.dtype.kind, np.dtype(dtype)
    if dtype.kind == "i" and (
            kind == "u" and a.max(initial=0) <= _INT64_MAX
            or kind == "f" and (not a.size or ((-_TWO_63 <= a) & (a < _TWO_63)
                                               & (np.trunc(a) == a)).all())):
        return np.array(a, dtype)
    if dtype.kind == "f" and kind in "buf":
        with np.errstate(over="ignore"):
            return np.array(a, dtype)
    raise StreamError(f"{what}: {a.dtype} values do not convert exactly to "
                      f"{dtype}")


def field_value(what: str, convert, value, error):
    """convert(value); a type or value fault is an error naming what."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what} is malformed: {value!r:.60} ({exc})") from exc


def integer(value) -> int:
    """value as an int, when it is an integer: not a bool, a string or a
    float, which int() would read as some other number without a word."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"an integer is needed, not {type(value).__name__}")
    return int(value)


def integers(value) -> tuple[int, ...]:
    """A list or tuple of integers, as a tuple."""
    if type(value) not in (list, tuple):
        raise TypeError("a list of integers is needed")
    return tuple(map(integer, value))


def real(value) -> float:
    """float(value), when value is a real number that is not a bool (an
    int past the float range is an OverflowError)."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise TypeError(f"a real number is needed, not {type(value).__name__}")
    return float(value)


def config_fields(obj, convert, *names) -> None:
    """Set each named field of a frozen config to convert(field) (integer,
    integers or real), or raise a ConfigError naming it."""
    for name in names:
        object.__setattr__(obj, name, field_value(
            name, convert, getattr(obj, name), ConfigError))


class Owned:
    """An array handed to a constructor by the engine code that made it,
    which holds no other writable reference to it: freeze_fields keeps it,
    frozen in place, rather than copying it. An array from a caller is
    never wrapped, so a caller's later writes cannot reach a stream, a
    layout or a selection."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array

    @property
    def shape(self) -> tuple:
        return self.array.shape


def _frozen(a, dtype, what: str):
    """a as a read-only array of dtype. An Owned array of that dtype is
    frozen in place and kept, and so is an aligned, read-only array of that
    dtype whose memory belongs to a bytes object (a container read by
    read_ots), which cannot change; anything else is copied by exact_array,
    whose StreamError names what."""
    if isinstance(a, Owned):
        a = a.array
        if a.dtype == dtype:
            a.setflags(write=False)
            return a
    if (isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.aligned
            and not a.flags.writeable):
        base = a.base
        while isinstance(base, np.ndarray):
            base = base.base
        if isinstance(base, bytes):
            return a
    arr = exact_array(a, dtype, what)
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
            frozen[id(a)] = a, _frozen(a, dtype, name)
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
    than MAX_ROWS rows or one exact_array refuses.
    """

    embeddings: np.ndarray
    modality: np.ndarray
    window_id: np.ndarray
    position: np.ndarray

    def __post_init__(self):
        for name in ("embeddings", "modality", "window_id", "position"):
            a = getattr(self, name)
            shape = a.shape if hasattr(a, "shape") else outside_array(a).shape
            if shape and shape[0] > MAX_ROWS:
                raise StreamError(f"a stream holds at most {MAX_ROWS} rows, "
                                  f"{name} has {shape[0]}")
        freeze_fields(self, np.float32, "embeddings")
        freeze_fields(self, np.int64, "modality", "window_id", "position")
        if self.embeddings.ndim != 2:
            raise StreamError("embeddings must be a 2-d matrix")
        n = self.embeddings.shape[0]
        if not (self.modality.shape == self.window_id.shape
                == self.position.shape == (n,)):
            raise StreamError("modality/window_id/position must have one entry per row")
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
        """Row subset. Rows must be integers in [0, n) and ascend, as the
        positions must."""
        rows = exact_array(rows, np.int64, "rows")
        if rows.size and not 0 <= rows.min() <= rows.max() < self.n:
            raise StreamError(f"rows must lie in [0, {self.n})")
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
    reads them at every layer. Counts exact_array refuses as int64, negative
    ones and ones summing past 2**63 - 1 are a StreamError."""

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
            raise StreamError("n_v and n_a must be 1-d and the same length")
        if nv.shape[0] < 1:
            raise StreamError("at least one window is required")
        if min(nv.min(), na.min()) < 0:
            raise StreamError("window counts must be non-negative")
        total_v, total_a = int(nv.sum()), int(na.sum())
        if max(nv.max(), na.max()) > _INT64_MAX // nv.size:
            # an int64 sum may have wrapped: sum exactly, in Python
            total_v, total_a = sum(nv.tolist()), sum(na.tolist())
            if max(total_v, total_a) > _INT64_MAX:
                raise StreamError(f"{'visual' if total_v > _INT64_MAX else 'audio'}"
                                  f" window counts sum past 2**63 - 1")
        object.__setattr__(self, "total_visual", total_v)
        object.__setattr__(self, "total_audio", total_a)

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
        # an int32 index, half the bytes of an int64 one: a modality holds
        # at most MAX_ROWS scores
        block = scores[starts.astype(np.int32)[:, None]
                       + np.arange(n, dtype=np.int32)]
        # block.mean(axis=1), bit for bit, without its Python wrapper
        with np.errstate(over="ignore"):  # window_relevance refuses an inf
            means[windows] = np.add.reduce(block, axis=1) / n
        blocks.append((windows, starts, block))
    return blocks, means


@dataclasses.dataclass(frozen=True)
class ModelConfig:
    """Mock backbone geometry: layer count, widths, and block boundaries.

    boundaries = (L_s, L_m1, L_m2, L_l), 1-based layer indices delimiting the
    shallow block [1, L_s], the middle sub-blocks, and the late block [L_l, L].
    Every schedule and trace holds L entries per layer array, so L is at
    most 4,096, far past any real backbone's depth. A field that is not an
    integer, or out of range, is a ConfigError.
    """

    layers: int
    d_model: int
    d_ff: int
    n_heads: int
    boundaries: tuple[int, int, int, int]

    def __post_init__(self):
        config_fields(self, integer, "layers", "d_model", "d_ff", "n_heads")
        config_fields(self, integers, "boundaries")
        L = self.layers
        if L > 4096:
            raise ConfigError(f"layers must be at most 4096, got {L}")
        if len(self.boundaries) != 4:
            raise ConfigError(f"boundaries must be four layer indices, got "
                              f"{self.boundaries}")
        ls, lm1, lm2, ll = self.boundaries
        if not (1 <= ls < lm1 <= lm2 < ll <= L):
            raise ConfigError(
                f"boundaries must satisfy 1 <= L_s < L_m1 <= L_m2 < L_l <= L, "
                f"got ({ls},{lm1},{lm2},{ll}) with L={L}"
            )
        if not all(0 < w < 2**63
                   for w in (self.d_model, self.d_ff, self.n_heads)):
            raise ConfigError("widths and head count must lie in [1, 2**63)")


@dataclasses.dataclass(frozen=True)
class RetentionSpec:
    """Retention targets: per-modality ratios, the pre-LLM scale factor, and
    the window-relevance softmax temperature. A field that is not a real
    number, or out of range, is a ConfigError."""

    r_v: float
    r_a: float
    lambda_: float
    tau: float

    def __post_init__(self):
        config_fields(self, real, "r_v", "r_a", "lambda_", "tau")
        for name, value in (("r_v", self.r_v), ("r_a", self.r_a)):
            if not (0.0 <= value <= 1.0):
                raise ConfigError(f"{name} must lie in [0, 1], got {value}")
        # each test is written so that a NaN fails it
        if not 1.0 <= self.lambda_ < math.inf:
            raise ConfigError(f"lambda_ must be finite and >= 1, got "
                              f"{self.lambda_}")
        if not self.tau > 0.0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
