"""Pre-LLM diversity pruning.

Each (window, modality) group is thinned independently by greedy max-min
selection over saliency-weighted cosine distances. A candidate's value is its
own saliency times its plain cosine distance to the nearest already-selected
token, so salient tokens look farther away and survive more often. Text
tokens are never touched here.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .core import (
    AUDIO,
    MAX_GROUP,
    MODALITY_NAMES,
    TEXT,
    VISUAL,
    Owned,
    RetentionSpec,
    StreamError,
    TokenStream,
    WindowLayout,
    bounded_integer,
    exact_array,
    freeze_fields,
    outside_array,
    segments,
    small_buffers,
)
from .relevance import real_weights
from .schedule import shallow_ratio


@dataclasses.dataclass(frozen=True)
class SelectionResult:
    """Outcome of one pre-LLM pruning pass.

    kept:  original positions of every surviving token (text included),
           ascending.
    rows:  the same survivors as storage-row indices of the input stream;
           one array with kept when the stream's positions are its row
           numbers.
    kept_v, kept_a: per-window surviving counts per modality.
    notes: diagnostics (currently zero-norm embedding reports).
    """

    kept: np.ndarray
    rows: np.ndarray
    kept_v: np.ndarray
    kept_a: np.ndarray
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        freeze_fields(self, np.int64, "kept", "rows", "kept_v", "kept_a")


# half of float32's largest: a weight times a distance of at most 2 is finite
MAX_WEIGHT = float(np.finfo(np.float32).max) / 2


def _unit_rows(emb: np.ndarray, rows, out=None,
               scratch=None) -> tuple[np.ndarray, np.ndarray]:
    """Rows of a float32 or float64 (m, d) matrix scaled to unit length in
    float64 and rounded to float32, and the mask of zero-norm rows (left as
    they are). The float32 out and the float64 scratch, both (m, d), are
    allocated when not given; out may be emb itself, to normalise in place.
    The rows are copied into scratch (exactly) and squared there, the norms
    summed from it; the rows are copied in again, divided by their norms in
    place and rounded into out. So every step runs in one dtype, no ufunc
    casts through buffers of its own, and the bits equal a float64 copy's
    norm and quotient rounded to float32. A non-finite norm (a NaN or inf
    entry, or, as float32 entries cannot overflow squared in float64, a
    float64 row too long to square) is a StreamError naming row i as the
    flattened rows[i]."""
    if out is None:
        out = np.empty(emb.shape, dtype=np.float32)
    if scratch is None:
        scratch = np.empty(emb.shape)
    np.copyto(scratch, emb)
    with np.errstate(over="ignore"):  # an overflow is an inf norm
        np.square(scratch, out=scratch)
        norms = np.add.reduce(scratch, axis=1)
    np.sqrt(norms, out=norms)
    finite = np.isfinite(norms)
    if not finite.all():
        i = finite.argmin()  # the first row at fault
        raise StreamError(f"embedding of row {np.ravel(rows)[i]} is not finite")
    zero = norms == 0.0
    norms[zero] = 1.0
    np.copyto(scratch, emb)
    scratch /= norms[:, None]
    np.copyto(out, scratch, casting="same_kind")
    return out, zero


def _distances(unit: np.ndarray, out: np.ndarray) -> None:
    """Fill the float32 out (G, n, n) with the pairwise 1-cos distances of
    G groups of float32 unit rows, clipped to [0, 2]; every step runs in
    float32. A zero-norm row (its squares underflow to 0) is left unscaled,
    so its dot products round away and it sits at distance exactly 1 from
    everything (cosine is undefined there).

    One stacked matmul makes every Gram. numpy runs its 2-D routine once
    per group, and takes the syrk branch whenever both operands share
    memory, as unit and its transposed view do. syrk computes one triangle
    and mirrors it, so every matrix is exactly symmetric, its column j is
    the contiguous row out[g, j], and each block equals the 2-D
    unit[g] @ unit[g].T bit for bit. A transposed copy would take the gemm
    branch instead, which rounds differently, moves ties and is not
    symmetric.
    """
    np.matmul(unit, unit.transpose(0, 2, 1), out=out)
    np.subtract(1.0, out, out=out)
    out.clip(0.0, 2.0, out=out)


def _maxmin(dist: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    """Greedy max-min in G groups at once; returns the (G, n) pick mask.

    dist is a contiguous float32 (G, n, n) block filled by _distances,
    which this overwrites; weights is (G, n), in [0, MAX_WEIGHT], and is
    rounded to float32, so a weight too small for float32, such as 5e-324,
    acts as 0. Every product of a weight and a distance is finite, and
    scaling column j by weights[j] is exact under min (rounding a product by
    a finite non-negative weight is monotone), so row i then holds every
    candidate's value against pick i.
    With the diagonal parked at +inf the column minima are the seed values
    w*nearest; parked at -inf it marks the picks, as a pick's own row drives
    its value to -inf. A step is one row gather, one minimum and one
    row-wise argmax, so a chunk costs k Python steps whatever G is.
    A single group runs the same steps on its (n,) rows, with a flat argmax
    and the picked row as a view, which halves the cost of a step.
    """
    G, n, _ = dist.shape
    dist *= weights.astype(np.float32)[:, None, :]
    diagonal = dist.reshape(G, n * n)[:, :: n + 1]
    diagonal[...] = np.inf
    seed = np.minimum.reduce(dist, axis=1)
    diagonal[...] = -np.inf
    if G == 1:
        rows = dist[0]
        value = rows[seed[0].argmax()].copy()
        for _ in range(k - 1):
            np.minimum(value, rows[value.argmax()], out=value)
        return (value == -np.inf)[None]
    rows = dist.reshape(G * n, n)
    first = np.arange(G) * n
    value = rows[first + seed.argmax(axis=1)]
    for _ in range(k - 1):
        np.minimum(value, rows.take(first + value.argmax(axis=1), axis=0),
                   out=value)
    return value == -np.inf


def _arena_size(G: int, n: int, d: int) -> int:
    """float32 entries of the arena a chunk of G groups of n rows of width d
    needs: region A, G*n*d entries for the rows, padded to an even count so
    region B starts 8-byte aligned, then region B, room for a float64
    (G*n, d) scratch or the (G, n, n) distance block, whichever is larger:
    4nd + max(8nd, 4n^2) bytes a group."""
    m = G * n
    return m * d + (m * d) % 2 + max(2 * m * d, m * n)


def _prune_chunk(arena: np.ndarray, embeddings: np.ndarray,
                 group_rows: np.ndarray, weights, k: int):
    """Stage 1 on one chunk, in an arena of at least _arena_size entries.

    group_rows (G, n) holds the stream rows of G groups of n tokens,
    weights their (G, n) saliency (not read when k == n) and k the keep
    count of each. The rows are gathered into region A and normalised in
    place, with region B as float64 scratch; region B then holds the
    distance block, which the greedy steps overwrite.
    Returns the (G, n) zero-norm mask and the (G, n) pick mask, or None
    for the picks when k == n. Neither result is a view of the arena, so
    the caller may release or grow it at once.
    """
    G, n = group_rows.shape
    m, d = G * n, embeddings.shape[1]
    b = m * d + (m * d) % 2
    unit = arena[: m * d].reshape(m, d)
    # mode="clip" writes straight into out; "raise" would buffer it
    embeddings.take(group_rows.ravel(), axis=0, out=unit, mode="clip")
    _, zero = _unit_rows(unit, group_rows, unit,
                         arena[b : b + 2 * m * d].view(np.float64).reshape(m, d))
    if k == n:
        return zero.reshape(G, n), None
    dist = arena[b : b + m * n].reshape(G, n, n)
    _distances(unit.reshape(G, n, d), dist)
    return zero.reshape(G, n), _maxmin(dist, weights, k)


def greedy_maxmin(embeddings: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    """Pick k of n tokens greedily maximizing the weighted min distance.

    Seed: the token whose (own weight) * (distance to nearest neighbor) is
    largest. Every later step picks the candidate maximizing
    weight[c] * min over selected of dist(c, s). All ties break toward the
    lowest index, which is the earliest original position.
    Returns ascending indices. More than MAX_GROUP tokens is a StreamError,
    raised before any row is normalised or any block allocated, and so are
    weights that break relevance.real_weights' rule or exceed MAX_WEIGHT,
    embeddings that are not a matrix exact_array holds as float64 and a k
    that is not an integer in [1, n].
    """
    emb = exact_array(embeddings, np.float64, "embeddings")
    if emb.ndim != 2:
        raise StreamError("embeddings must be a 2-d matrix")
    n = emb.shape[0]
    if n > MAX_GROUP:
        raise StreamError(f"a group may hold at most {MAX_GROUP} tokens, "
                          f"got {n}")
    w = real_weights(weights, n)
    if w is None:
        raise StreamError(f"saliency weights must be {n} finite, non-negative "
                          f"real numbers, one per token")
    if w.max(initial=0.0) > MAX_WEIGHT:
        raise StreamError(f"saliency weight {w.max()} exceeds the largest "
                          f"stage 1 takes, {MAX_WEIGHT:.8g}")
    k = bounded_integer("k", k, 1, n, StreamError)
    unit, _ = _unit_rows(emb, range(n))  # rejects non-finite rows first
    if k == n:
        return np.arange(n, dtype=np.int64)
    dist = np.empty((1, n, n), dtype=np.float32)
    _distances(unit[None], dist)
    return np.flatnonzero(_maxmin(dist, w[None], k)[0])


def keep_count(ratio: float, group_size: int) -> int:
    """Per-group keep count: floor(ratio*n), at least 1 when the group is
    non-empty and the ratio positive."""
    if group_size < 1 or ratio <= 0.0:
        return 0
    return max(1, min(group_size, math.floor(ratio * group_size)))


def _checked_weights(weight, rows: np.ndarray, name: str) -> np.ndarray:
    """One modality's saliency vector, float32 or float64 as given (read
    in place) or else converted to float64, once it holds one real weight
    in [0, MAX_WEIGHT] for each of rows; a kind other than real is refused
    before it converts."""
    weight = outside_array(weight)
    if weight.dtype.kind not in "biuf":
        raise StreamError(f"{name} saliency must be real numbers, got "
                          f"{weight.dtype}")
    if weight.dtype != np.float32:
        weight = weight.astype(np.float64, copy=False)
    if weight.shape != rows.shape:
        raise StreamError(f"{name} saliency has shape {weight.shape}, the "
                          f"stream holds {rows.size} {name} rows")
    # one screen by the least and the largest weight, which a NaN fails
    # too, as minimum and maximum pass it on; the first fault is located
    # only when it fails
    if not (np.minimum.reduce(weight, initial=0.0) >= 0
            and np.maximum.reduce(weight, initial=0.0) <= MAX_WEIGHT):
        i = (~((weight >= 0) & (weight <= MAX_WEIGHT))).argmax()
        raise StreamError(f"saliency weight of row {rows[i]} is "
                          f"{float(weight[i])}; weights must be finite, "
                          f"non-negative and at most {MAX_WEIGHT:.8g}")
    return weight


def win_div_prune(
    stream: TokenStream,
    layout: WindowLayout,
    saliency,
    spec: RetentionSpec,
) -> SelectionResult:
    """Greedy max-min selection in every (window, modality) group.

    saliency is None, for uniform weights everywhere (which reduces this to
    plain diversity selection), or a (visual, audio) pair, as
    stage1_saliency gives it. Each entry is None, for uniform weights in
    that modality, or one finite, non-negative weight per row of the
    modality, window-major. Text rows take no weight. Pre-LLM ratios are
    the schedule's shallow ratios, shallow_ratio(r_m, lambda), per
    modality. A layout that does not count the stream's rows window by
    window is a StreamError, and so is a group of more than MAX_GROUP
    rows (refused before any block is allocated), a vector of the wrong
    length or a bad weight, named by its stream row.

    Weights must lie in [0, MAX_WEIGHT], half of float32's largest value,
    so that no weighted distance overflows. A float32 vector is checked in
    place; any other converts to float64 first. Weights reach the kernel
    rounded to float32 either way, so float32 and float64 vectors of the
    same values pick the same tokens.

    Groups of equal size run through greedy max-min together, in chunks
    whose working set, counted as if it were float64, stays within
    25 n_max^2 bytes or an eighth of the stream's embedding bytes if that
    is more. Each modality pass runs its chunks in one float32 arena,
    4nd + max(8nd, 4n^2) bytes a group of n rows of width d, grown when a
    chunk needs more and freed before the next pass: the chunk's rows are
    gathered into it and normalised there with float64 norms and
    quotients, and its float64 scratch then holds the float32 distance
    block. The Gram, the distances and the greedy steps run in float32.
    Each size class's chunks run in one core.small_buffers scope, so the
    broadcast divide and weight multiply take small numpy buffers.
    """
    held = WindowLayout.from_stream(stream, layout.T)
    n_max = 0  # the largest group
    for m, have, counts in ((VISUAL, held.n_v, layout.n_v),
                            (AUDIO, held.n_a, layout.n_a)):
        # both hold layout.T counts
        if not (have == counts).all():
            t = np.argmax(have != counts)
            raise StreamError(f"window {t} holds {have[t]} {MODALITY_NAMES[m]}"
                              f" rows, layout declares {counts[t]}")
        largest = int(np.maximum.reduce(counts))
        if largest > MAX_GROUP:
            t = np.argmax(counts > MAX_GROUP)
            raise StreamError(f"window {t} holds {counts[t]} "
                              f"{MODALITY_NAMES[m]} rows; a group may hold "
                              f"at most {MAX_GROUP}")
        n_max = max(n_max, largest)
    r_pre = {VISUAL: shallow_ratio(spec.r_v, spec.lambda_),
             AUDIO: shallow_ratio(spec.r_a, spec.lambda_)}
    budget = max(25 * n_max**2, stream.embeddings.nbytes // 8)

    # one flag per stream row; each group's rows are set once, to its picks
    keep = stream.modality == TEXT
    kept_counts = {VISUAL: np.zeros(layout.T, dtype=np.int64),
                   AUDIO: np.zeros(layout.T, dtype=np.int64)}
    notes: list[str] = []
    if saliency is None:
        saliency = (None, None)
    for m, counts, weight in zip((VISUAL, AUDIO), (layout.n_v, layout.n_a),
                                 saliency):
        # each modality pass holds one float32 arena, grown only when a
        # chunk needs more room; _prune_chunk keeps no view of it, so a
        # smaller arena is freed as a larger one comes and the visual
        # pass's before the audio pass gathers. The previous row index
        # goes before the pass builds its own, int32 as a stream holds at
        # most MAX_ROWS rows
        arena, rows = np.empty(0, dtype=np.float32), None
        rows = stream.rows_of(m).astype(np.int32)
        if weight is not None:
            weight = _checked_weights(weight, rows, MODALITY_NAMES[m])
        zero_counts = {}
        for n, windows, starts in segments(counts):
            k = keep_count(r_pre[m], n)
            if k == 0:
                continue
            kept_counts[m][windows] = k
            # G as if a group held its distances, float32 rows, a float64
            # copy, its square and the unit rows, with the distances and
            # unit rows counted as float64; the arena holds 4nd +
            # max(8nd, 4n^2) bytes a group, about half that, and this
            # divisor keeps G, and so the greedy steps, as they were
            per_chunk = max(1, budget // (8 * n * n + 28 * n * stream.d))
            offsets = np.arange(n)
            # one buffer scope per size class keeps numpy's buffers for the
            # broadcast divide and weight multiply small
            with small_buffers():
                for lo in range(0, windows.shape[0], per_chunk):
                    group_rows = rows[starts[lo : lo + per_chunk, None]
                                      + offsets]
                    G = group_rows.shape[0]
                    size = _arena_size(G, n, stream.d)
                    if arena.size < size:
                        arena = None  # release before growing
                        arena = np.empty(size, dtype=np.float32)
                    weights = (None if k == n else np.ones((G, n))
                               if weight is None else
                               weight[starts[lo : lo + per_chunk, None]
                                      + offsets])
                    zero, picks = _prune_chunk(arena, stream.embeddings,
                                               group_rows, weights, k)
                    if zero.any():
                        for i in zero.any(axis=1).nonzero()[0]:
                            zero_counts[int(windows[lo + i])] = int(
                                zero[i].sum())
                    keep[group_rows] = True if picks is None else picks
        notes += [
            f"{zero_counts[t]} zero-norm embeddings in window {t} "
            f"{MODALITY_NAMES[m]}; treated as distance 1 to everything"
            for t in sorted(zero_counts)
        ]

    # the arena, the row index and the flags go before the result is
    # built, so its copies are the only stage-1 arrays left at its peak
    del arena, rows
    rows = keep.nonzero()[0]
    del keep
    # positions strictly increase, so these two ends make them row numbers
    # and the survivors' positions their rows
    position, last = stream.position, stream.n - 1
    row_numbers = last >= 0 and position[0] == 0 and position[last] == last
    # the result adopts these fresh arrays rather than copying them
    owned = Owned(rows)
    return SelectionResult(
        kept=owned if row_numbers else Owned(position[rows]),
        rows=owned,
        kept_v=Owned(kept_counts[VISUAL]),
        kept_a=Owned(kept_counts[AUDIO]),
        notes=tuple(notes),
    )
