import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omniprefill.core import (
    AUDIO,
    MAX_GROUP,
    TEXT,
    VISUAL,
    RetentionSpec,
    StreamError,
    TokenStream,
    WindowLayout,
)
from omniprefill import divprune
from omniprefill.divprune import (
    MAX_WEIGHT,
    _arena_size,
    _distances,
    _maxmin,
    _prune_chunk,
    _unit_rows,
    greedy_maxmin,
    keep_count,
    win_div_prune,
)


def cosine_dist(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 1.0
    return float(np.clip(1.0 - a @ b / (na * nb), 0.0, 2.0))


def brute_force_greedy(emb, w, k):
    """Reference implementation: literal max-min recursion, O(n^2) per step."""
    n = emb.shape[0]
    if k >= n:
        return list(range(n))
    dist = np.array([[cosine_dist(emb[i], emb[j]) for j in range(n)]
                     for i in range(n)])
    seed_score = np.array([
        w[j] * min(dist[i, j] for i in range(n) if i != j) if n > 1 else w[j]
        for j in range(n)
    ])
    sel = [int(np.argmax(seed_score))]
    while len(sel) < k:
        best, best_val = None, -1.0
        for c in range(n):
            if c in sel:
                continue
            val = w[c] * min(dist[s, c] for s in sel)
            if val > best_val + 1e-15:
                best, best_val = c, val
        sel.append(best)
    return sorted(sel)


def maxmin64(emb, w, k):
    """Greedy max-min of one group with every step in float64: the stage-1
    kernel before it moved to float32, kept here only as the reference for
    measuring pick agreement. Unit rows, syrk Gram, 1 - cos clipped to
    [0, 2], weighted columns, seed and greedy steps follow _maxmin's
    one-dimensional path. Returns ascending picks."""
    emb = np.asarray(emb, dtype=np.float64)
    n = emb.shape[0]
    if k == n:
        return np.arange(n)
    norms = np.linalg.norm(emb, axis=1)
    unit = emb / np.where(norms == 0.0, 1.0, norms)[:, None]
    dist = unit @ unit.T  # syrk: both operands share memory
    np.subtract(1.0, dist, out=dist)
    np.clip(dist, 0.0, 2.0, out=dist)
    with np.errstate(over="ignore"):
        dist *= np.asarray(w, dtype=np.float64)[None, :]
    np.fill_diagonal(dist, np.inf)
    seed = dist.min(axis=0)
    np.fill_diagonal(dist, -np.inf)
    value = dist[seed.argmax()].copy()
    for _ in range(k - 1):
        np.minimum(value, dist[value.argmax()], out=value)
    return np.flatnonzero(value == -np.inf)


def _chunk_picks(emb, w, k):
    """Pick masks of the G groups of emb (G, n, d) run as one batched chunk,
    and the distance block the kernel left behind."""
    G, n, d = emb.shape
    unit, _ = _unit_rows(emb.reshape(G * n, d), range(G * n))
    dist = np.empty((G, n, n), dtype=np.float32)
    _distances(unit.reshape(G, n, d), dist)
    return _maxmin(dist, np.asarray(w, dtype=np.float64), k), dist


class TestGreedyMaxmin:
    def test_identity_when_k_equals_n(self):
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(6, 3))
        assert greedy_maxmin(emb, np.ones(6), 6).tolist() == list(range(6))

    def test_group_past_ceiling_rejected(self, monkeypatch):
        # refused before any row is normalised: at k < n the group would
        # need (MAX_GROUP + 1)^2 float32 distances
        def never(*args):
            raise AssertionError("rows normalised past the ceiling")

        monkeypatch.setattr(divprune, "_unit_rows", never)
        n = MAX_GROUP + 1
        with pytest.raises(StreamError, match=rf"^a group may hold at most "
                                              rf"{MAX_GROUP} tokens, got {n}$"):
            greedy_maxmin(np.ones((n, 1)), np.ones(n), 2)

    @pytest.mark.parametrize("weights", [
        np.ones(4, dtype=complex), np.array(["1.0"] * 4),
        np.array([1.0] * 4, dtype=object)], ids=["complex", "string",
                                                 "object"])
    def test_weights_must_be_real(self, weights):
        # refused before numpy warns or parses a string as a number
        emb = np.random.default_rng(0).normal(size=(4, 3))
        with warnings.catch_warnings(), pytest.raises(
                StreamError, match="^saliency weights must be 4 finite, "
                                   "non-negative real numbers, one per token$"):
            warnings.simplefilter("error")
            greedy_maxmin(emb, weights, 2)

    def test_weight_past_the_bound_refused(self):
        # a weight above MAX_WEIGHT times a distance near 2 overflows
        # float32, which changed picks without a word; the bound itself is
        # taken
        emb = np.random.default_rng(0).normal(size=(4, 3))
        w = np.ones(4)
        w[2] = np.nextafter(MAX_WEIGHT, np.inf)
        with pytest.raises(StreamError, match=r"^saliency weight 1.7014117\d*e"
                                              r"\+38 exceeds the largest stage "
                                              r"1 takes, 1.7014117e\+38$"):
            greedy_maxmin(emb, w, 2)
        w[2] = MAX_WEIGHT
        assert greedy_maxmin(emb, w, 2).size == 2

    @pytest.mark.memory
    def test_all_kept_at_ceiling(self):
        # k = n returns every index without a distance block, which would
        # take 64 MiB at this size
        n = MAX_GROUP
        emb, w = np.ones((n, 1)), np.ones(n)
        tracemalloc.start()
        try:
            got = greedy_maxmin(emb, w, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tolist() == list(range(n))
        assert peak < 2**20

    def test_orthogonal_beats_duplicates(self):
        # three identical vectors plus one orthogonal: k=2 must take the
        # orthogonal one and exactly one duplicate
        emb = np.array([
            [1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0],
        ])
        picks = set(greedy_maxmin(emb, np.ones(4), 2).tolist())
        assert 3 in picks
        assert len(picks & {0, 1, 2}) == 1

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(1)
        for trial in range(200):
            n = int(rng.integers(1, 11))
            k = int(rng.integers(1, n + 1))
            emb = rng.normal(size=(n, int(rng.integers(2, 5))))
            w = rng.random(n)
            got = greedy_maxmin(emb, w, k).tolist()
            assert got == brute_force_greedy(emb, w, k), (trial, n, k)

    def test_uniform_weights_match_unweighted(self):
        rng = np.random.default_rng(2)
        for trial in range(100):
            n = int(rng.integers(2, 11))
            k = int(rng.integers(1, n + 1))
            emb = rng.normal(size=(n, 3))
            got = greedy_maxmin(emb, np.ones(n), k).tolist()
            assert got == brute_force_greedy(emb, np.ones(n), k), trial

    def test_saliency_steers_selection(self):
        # two duplicate pairs; weights decide which member of each pair wins
        emb = np.array([[1.0, 0], [1.0, 0], [0, 1.0], [0, 1.0]])
        picks = greedy_maxmin(emb, np.array([9.0, 1.0, 1.0, 9.0]), 2)
        assert picks.tolist() == [0, 3]

    def test_zero_norm_rows_at_unit_distance(self):
        emb = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        unit, zero_mask = _unit_rows(emb, range(3))
        dist = np.empty((1, 3, 3), dtype=np.float32)
        _distances(unit[None], dist)
        assert zero_mask.tolist() == [True, False, False]
        assert dist[0, 0, 1] == dist[0, 0, 2] == 1.0
        assert dist[0, 1, 2] == pytest.approx(0.0, abs=1e-12)
        # zero row is maximally distant, so it wins a k=2 slot
        picks = greedy_maxmin(emb, np.ones(3), 2)
        assert 0 in picks.tolist()

    def test_ties_resolve_to_lowest_position(self):
        emb = np.tile(np.array([1.0, 1.0]), (5, 1))
        assert greedy_maxmin(emb, np.ones(5), 3).tolist() == [0, 1, 2]

    def test_determinism(self):
        rng = np.random.default_rng(3)
        emb = rng.normal(size=(30, 8))
        w = rng.random(30)
        a = greedy_maxmin(emb, w, 11)
        b = greedy_maxmin(emb, w, 11)
        assert np.array_equal(a, b)

    def test_bounds(self):
        emb = np.ones((3, 2))
        with pytest.raises(ValueError):
            greedy_maxmin(emb, np.ones(3), 4)
        with pytest.raises(ValueError):
            greedy_maxmin(emb, np.ones(3), 0)
        with pytest.raises(ValueError):
            greedy_maxmin(emb, np.ones(2), 2)
        with pytest.raises(ValueError):
            greedy_maxmin(emb, -np.ones(3), 2)

    @pytest.mark.parametrize("w", [[1.0, np.nan, 1.0], [1.0, 1.0, np.inf]],
                             ids=["nan-weight", "inf-weight"])
    def test_non_finite_weights_rejected(self, w):
        with pytest.raises(StreamError, match="finite"):
            greedy_maxmin(np.eye(3), np.array(w), 2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("k", [2, 3])
    def test_non_finite_embeddings_rejected(self, value, k):
        emb = np.eye(3)
        emb[1, 2] = value
        with pytest.raises(StreamError, match="row 1"):
            greedy_maxmin(emb, np.ones(3), k)

    @pytest.mark.parametrize("row", [[1e200, 1.0], [1e154, 1e154]],
                             ids=["square", "sum"])
    def test_overflowing_float64_row_is_not_finite(self, row):
        # a float64 row can overflow where it is squared or summed: that is
        # an infinite norm, never a numpy warning
        emb = np.array([row, [1.0, 1.0], [0.5, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StreamError,
                               match="^embedding of row 0 is not finite$"):
                greedy_maxmin(emb, np.ones(3), 2)


def test_batched_kernel_with_zero_weights_matches_single_groups():
    # the kernel scales each distance column by its weight; zero weights
    # make whole value rows tie at 0, which must still pick exactly k per
    # group and agree with greedy_maxmin group by group. greedy_maxmin runs
    # its one group in one dimension, so this compares the two kernel paths,
    # also at the stage-1 group sizes 50 and 288. The smallest subnormal
    # weight rounds most values to 0 and the largest weight stage 1 takes
    # scales a distance of 2 to float32's largest value, so ties abound. A
    # weight past that, such as the largest float64, is refused
    rng = np.random.default_rng(5)
    for _ in range(200):
        G, n, d = (int(x) for x in rng.integers((2, 2, 1), (6, 12, 5)))
        n = int(rng.choice([n] * 8 + [50, 288]))
        k = int(rng.choice([1, n - 1, rng.integers(1, n)]))
        emb = rng.integers(-1, 2, size=(G * n, d)).astype(np.float64)
        w = rng.choice([0.0, 0.0, 0.5, 1.0, 5e-324, MAX_WEIGHT], size=(G, n))
        mask, _ = _chunk_picks(emb.reshape(G, n, d), w, k)
        assert mask.sum(axis=1).tolist() == [k] * G
        for g in range(G):
            want = greedy_maxmin(emb[g * n : (g + 1) * n], w[g], k)
            assert np.flatnonzero(mask[g]).tolist() == want.tolist()
        w[0, 0] = 1.7976931348623157e308
        with pytest.raises(StreamError, match="^saliency weight 1.797"):
            greedy_maxmin(emb[:n], w[0], k)


@settings(max_examples=150, deadline=None)
@given(G=st.integers(1, 8),
       n=st.one_of(st.integers(1, 64), st.sampled_from([50, 288])),
       d=st.integers(1, 80), seed=st.integers(0, 2**32 - 1),
       zero=st.integers(0, 3), duplicate=st.integers(0, 3))
def test_stacked_gram_equals_per_group_products(G, n, d, seed, zero,
                                                duplicate):
    # _unit_rows normalises in float64 and rounds to float32; _distances
    # makes every float32 Gram in one stacked matmul. It must equal the
    # float32 2-D product of each group bit for bit and be exactly
    # symmetric: both rest on numpy running syrk per group, which a numpy
    # release could change, and any difference in the last bit moves ties
    # in _maxmin
    rng = np.random.default_rng(seed)
    emb = rng.standard_normal((G, n, d)).astype(np.float32).astype(np.float64)
    for _ in range(zero):
        emb[rng.integers(G), rng.integers(n)] = 0.0
    for _ in range(duplicate):
        g = rng.integers(G)
        emb[g, rng.integers(n)] = emb[g, rng.integers(n)]
    flat = emb.reshape(G * n, d)
    unit, zero_mask = _unit_rows(flat, range(G * n))
    norms = np.linalg.norm(flat, axis=1)
    want_unit = flat / np.where(zero_mask, 1.0, norms)[:, None]
    assert unit.dtype == np.float32
    assert unit.tobytes() == want_unit.astype(np.float32).tobytes()
    unit = unit.reshape(G, n, d)
    got = np.empty((G, n, n), dtype=np.float32)
    _distances(unit, got)
    for g in range(G):
        want = np.matmul(unit[g], unit[g].T)
        assert want.dtype == np.float32
        np.subtract(np.float32(1.0), want, out=want)
        np.clip(want, np.float32(0.0), np.float32(2.0), out=want)
        assert got[g].tobytes() == want.tobytes()
        assert got[g].tobytes() == got[g].T.copy().tobytes()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
       d=st.integers(1, 70), scale=st.sampled_from([1e-44, 1e-20, 1.0, 1e18,
                                                    3e38]))
def test_float32_rows_normalise_as_their_float64_copy(seed, n, d, scale):
    # win_div_prune hands _unit_rows the gathered float32 rows; the norms
    # and quotients are taken in float64 from them, so the unit rows must
    # equal those of a float64 copy (the float64 norm and quotient rounded
    # to float32) bit for bit, at any magnitude float32 holds
    rng = np.random.default_rng(seed)
    rows = (rng.uniform(-1.0, 1.0, (n, d)) * scale).astype(np.float32)
    rows[rng.random(n) < 0.1] = 0.0
    copy = rows.astype(np.float64)
    norms = np.linalg.norm(copy, axis=1)
    want = (copy / np.where(norms == 0.0, 1.0, norms)[:, None]).astype(
        np.float32)
    unit, zero = _unit_rows(rows, range(n))
    assert unit.dtype == np.float32
    assert unit.tobytes() == want.tobytes()
    assert zero.tolist() == (norms == 0.0).tolist()


@pytest.mark.parametrize("G", [1, 3], ids=["one-dimensional", "batched"])
def test_largest_float64_weight_on_duplicates_picks_k(G):
    # 1.7976931348623157e308 is finite in float64 but not in float32, and
    # greedy_maxmin refuses it. The largest weight it takes, MAX_WEIGHT,
    # times every distance is finite in float32, so a duplicate's distance
    # 0 scales to 0 (never inf * 0 = NaN) without an overflow, and every
    # group still picks exactly k distinct tokens, one per distinct vector
    # first
    n, d = 12, 4
    label = np.arange(n) % 3  # three distinct vectors, four copies each
    emb = np.tile(np.eye(d)[label], (G, 1, 1))
    with pytest.raises(StreamError, match="^saliency weight 1.797"):
        greedy_maxmin(emb[0], np.full(n, 1.7976931348623157e308), 1)
    w = np.full((G, n), MAX_WEIGHT)
    for k in range(1, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mask, dist = _chunk_picks(emb, w, k)
            one = greedy_maxmin(emb[0], w[0], k)
        # the diagonal parks the picks at -inf; every value is finite
        assert np.isfinite(dist[:, ~np.eye(n, dtype=bool)]).all()
        assert mask.sum(axis=1).tolist() == [k] * G
        for g in range(G):
            picks = np.flatnonzero(mask[g])
            assert picks.tolist() == one.tolist()
            assert len(set(label[picks].tolist())) == min(k, 3)


@pytest.mark.parametrize("G", [1, 3], ids=["one-dimensional", "batched"])
def test_smallest_subnormal_weight_acts_as_zero(G):
    # 5e-324 rounds to 0 in float32, so it must pick exactly what a weight
    # of 0 picks, on both kernel paths: in float64 it would beat a weight
    # of 0 once only weights that small are left
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.choice([5, 16, 50]))
        k = int(rng.integers(1, n))
        emb = rng.standard_normal((G, n, 8))
        w = rng.choice([0.0, 0.5, 1.0, 5e-324], size=(G, n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, _ = _chunk_picks(emb, w, k)
            want, _ = _chunk_picks(emb, np.where(w == 5e-324, 0.0, w), k)
            one = greedy_maxmin(emb[0], w[0], k)
        assert got.tolist() == want.tolist()
        assert one.tolist() == np.flatnonzero(want[0]).tolist()


@pytest.mark.parametrize("seed", [7, 11, 13])
@pytest.mark.parametrize("n, k", [(288, 120), (50, 45), (16, 6), (4, 3)])
def test_float32_picks_agree_with_float64_reference(n, k, seed):
    # Stage 1's float32 kernel moves a pick only where float32 rounding
    # breaks a near-tie differently. On Gaussian groups of the stage-1 group
    # shapes (d = 64, keep counts at the pre-LLM ratios 0.42 and 0.91) there
    # are none, so the pick sets equal the float64 kernel's
    rng = np.random.default_rng(seed)
    G = 4
    emb = rng.standard_normal((G, n, 64)).astype(np.float32)
    w = rng.random((G, n))
    mask, _ = _chunk_picks(emb.astype(np.float64), w, k)
    for g in range(G):
        want = maxmin64(emb[g], w[g], k)
        assert np.flatnonzero(mask[g]).tolist() == want.tolist()
        assert greedy_maxmin(emb[g], w[g], k).tolist() == want.tolist()


class TestKeepCount:
    def test_floor_rule(self):
        assert keep_count(0.42, 288) == 120
        assert keep_count(0.91, 50) == 45
        assert keep_count(0.5, 4) == 2

    def test_floor_of_one(self):
        assert keep_count(0.01, 3) == 1

    def test_zero_cases(self):
        assert keep_count(0.0, 10) == 0
        assert keep_count(0.5, 0) == 0

    def test_capped_at_group(self):
        assert keep_count(1.0, 7) == 7


def build_stream(T, n_v, n_a, n_q, d=8, seed=0):
    rng = np.random.default_rng(seed)
    mods, wins = [], []
    for t in range(T):
        mods += [VISUAL] * n_v + [AUDIO] * n_a
        wins += [t] * (n_v + n_a)
    mods += [TEXT] * n_q
    wins += [-1] * n_q
    n = len(mods)
    return TokenStream(
        embeddings=rng.normal(size=(n, d)).astype(np.float32),
        modality=np.array(mods, dtype=np.int64),
        window_id=np.array(wins, dtype=np.int64),
        position=np.arange(n, dtype=np.int64),
    )


def wide_weights(stream, seed):
    """A float32 (visual, audio) saliency pair whose values span the range
    stage 1 takes, zeros, subnormals and MAX_WEIGHT included."""
    rng = np.random.default_rng(seed)
    weights = np.exp(rng.uniform(-100.0, 88.0, stream.n)).astype(np.float32)
    weights[rng.integers(stream.n, size=6)] = 0.0
    weights[rng.integers(stream.n, size=3)] = np.float32(1e-45)
    weights[rng.integers(stream.n, size=3)] = MAX_WEIGHT
    return weights[stream.rows_of(VISUAL)], weights[stream.rows_of(AUDIO)]


class TestWinDivPrune:
    def test_small_exact_counts(self):
        # r_s = min(1, 1.0*0.5) = 0.5 for each modality: keep 2 visual + 1
        # audio per window, text untouched
        stream = build_stream(T=2, n_v=4, n_a=2, n_q=3)
        lay = WindowLayout.from_stream(stream)
        spec = RetentionSpec(r_v=0.5, r_a=0.5, lambda_=1.0, tau=0.1)
        res = win_div_prune(stream, lay, None, spec)
        assert res.kept_v.tolist() == [2, 2]
        assert res.kept_a.tolist() == [1, 1]
        assert res.kept.size == 6 + 3

    def test_default_counts_per_window(self):
        # r_s,v = 0.42 -> floor(0.42*288) = 120; r_s,a = 0.91 -> 45
        stream = build_stream(T=2, n_v=288, n_a=50, n_q=16, seed=1)
        lay = WindowLayout.from_stream(stream)
        spec = RetentionSpec(r_v=0.30, r_a=0.65, lambda_=1.4, tau=0.1)
        res = win_div_prune(stream, lay, None, spec)
        assert res.kept_v.tolist() == [120, 120]
        assert res.kept_a.tolist() == [45, 45]

    def test_clipped_ratios_identity(self):
        stream = build_stream(T=2, n_v=5, n_a=3, n_q=2)
        lay = WindowLayout.from_stream(stream)
        spec = RetentionSpec(r_v=0.9, r_a=0.8, lambda_=1.4, tau=0.1)
        res = win_div_prune(stream, lay, None, spec)
        assert res.kept.tolist() == list(range(stream.n))

    def test_aggregate_within_rounding_slack(self):
        T, n_v, n_a = 5, 37, 11
        stream = build_stream(T=T, n_v=n_v, n_a=n_a, n_q=4, seed=2)
        lay = WindowLayout.from_stream(stream)
        spec = RetentionSpec(r_v=0.33, r_a=0.6, lambda_=1.4, tau=0.1)
        res = win_div_prune(stream, lay, None, spec)
        target = min(1, 1.4 * 0.33) * T * n_v + min(1, 1.4 * 0.6) * T * n_a
        nontext = int(res.kept_v.sum() + res.kept_a.sum())
        assert abs(nontext - target) <= 2 * T

    def test_kept_sorted_and_text_preserved(self):
        stream = build_stream(T=3, n_v=6, n_a=4, n_q=5, seed=3)
        lay = WindowLayout.from_stream(stream)
        spec = RetentionSpec(r_v=0.4, r_a=0.5, lambda_=1.2, tau=0.1)
        res = win_div_prune(stream, lay, None, spec)
        kept = res.kept
        assert np.all(np.diff(kept) > 0)
        text_rows = np.flatnonzero(stream.modality == TEXT)
        assert set(text_rows.tolist()) <= set(kept.tolist())

    def test_locality(self):
        # changing window 2 embeddings must not move windows 0/1 selections
        base = build_stream(T=3, n_v=8, n_a=0, n_q=2, seed=4)
        emb = base.embeddings.copy()
        rows_w2 = np.flatnonzero(base.window_id == 2)
        emb[rows_w2] = np.random.default_rng(99).normal(
            size=(rows_w2.size, base.d)).astype(np.float32)
        other = TokenStream(embeddings=emb, modality=base.modality.copy(),
                            window_id=base.window_id.copy(),
                            position=base.position.copy())
        lay = WindowLayout.from_stream(base)
        spec = RetentionSpec(r_v=0.5, r_a=0.5, lambda_=1.0, tau=0.1)
        a = win_div_prune(base, lay, None, spec)
        b = win_div_prune(other, lay, None, spec)
        keep_early = lambda r: [i for i in r.kept.tolist()
                                if base.window_id[i] in (0, 1)]
        assert keep_early(a) == keep_early(b)

    def test_saliency_reweights_groups(self):
        stream = build_stream(T=1, n_v=4, n_a=0, n_q=1, seed=5)
        lay = WindowLayout.from_stream(stream)
        spec = RetentionSpec(r_v=0.25, r_a=0.25, lambda_=1.0, tau=0.1)
        picks = {}
        for fav in (0, 3):
            w = np.full(4, 0.05)
            w[fav] = 10.0
            res = win_div_prune(stream, lay, (w, None), spec)
            picks[fav] = [i for i in res.kept.tolist()
                          if stream.modality[i] == VISUAL]
        assert picks[0] == [0]
        assert picks[3] == [3]

    @pytest.mark.parametrize("saliency, match", [
        ((np.ones(3), None), "saliency"),  # the stream holds 4 visual rows
        ((np.r_[-1.0, np.ones(3)], None), "saliency"),
        ((None, np.r_[1.0, np.inf]), "saliency"),
        ((None, np.ones(1, dtype=np.float32)), "saliency"),
        ((np.r_[np.float32(-0.1), np.ones(3, dtype=np.float32)], None),
         "saliency"),
        ((np.ones(4), np.r_[np.float32(1.0), np.float32(np.inf)]),
         "saliency"),
        ((np.r_[np.ones(3, dtype=np.float32), np.float32(np.nan)],
          np.ones(2, dtype=np.float32)), "saliency"),
        ((np.ones(4, dtype=complex), None),
         "^visual saliency must be real numbers, got complex128$"),
        ((None, np.array(["1.0"] * 2)),
         "^audio saliency must be real numbers, got <U3$"),
        ((np.array([1.0, 1.0, 1.0, None], dtype=object), None),
         "^visual saliency must be real numbers, got object$"),
        (([[1.0] * 3, [1.0] * 2], None),
         "^visual saliency must be real numbers, got object$"),
    ], ids=["short", "negative", "inf", "float32-short", "float32-negative",
            "float32-inf", "float32-nan", "complex", "string", "object",
            "ragged"])
    def test_bad_saliency_rejected(self, saliency, match):
        # refused before numpy warns: a complex vector does not lose its
        # imaginary part, nor is a string vector read as numbers, and a
        # vector not of real numbers names its modality
        stream = build_stream(T=2, n_v=2, n_a=1, n_q=1)
        lay = WindowLayout.from_stream(stream)
        spec = RetentionSpec(r_v=0.5, r_a=0.5, lambda_=1.0, tau=0.1)
        with warnings.catch_warnings(), pytest.raises(StreamError,
                                                      match=match):
            warnings.simplefilter("error")
            win_div_prune(stream, lay, saliency, spec)

    @pytest.mark.parametrize("value", [-0.1, np.inf, -np.inf, np.nan])
    def test_float32_saliency_errors_read_as_float64(self, value):
        # a float32 vector is checked in place, not widened, and its
        # message names the same value a float64 copy would
        stream = build_stream(T=2, n_v=2, n_a=1, n_q=1)
        lay = WindowLayout.from_stream(stream)
        spec = RetentionSpec(r_v=0.5, r_a=0.5, lambda_=1.0, tau=0.1)
        weights = np.ones(4, dtype=np.float32)
        weights[3] = value  # window 1's second visual row, stream row 4
        messages = []
        for saliency in (weights, weights.astype(np.float64)):
            with pytest.raises(StreamError) as info:
                win_div_prune(stream, lay, (saliency, None), spec)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("saliency weight of row 4 is ")

    @pytest.mark.parametrize("seed", [7, 11, 13])
    def test_float32_and_float64_saliency_pick_alike(self, seed):
        # weights reach the kernel rounded to float32 either way, so a
        # float32 vector and its float64 copy keep the same rows; the
        # values span the range stage 1 takes, zeros and subnormals included
        stream = build_stream(T=5, n_v=24, n_a=7, n_q=3, seed=seed)
        lay = WindowLayout.from_stream(stream)
        spec = RetentionSpec(r_v=0.3, r_a=0.5, lambda_=1.4, tau=0.1)
        single = wide_weights(stream, seed)
        double = tuple(w.astype(np.float64) for w in single)
        a = win_div_prune(stream, lay, single, spec)
        b = win_div_prune(stream, lay, double, spec)
        assert a.rows.tolist() == b.rows.tolist()
        assert a.kept.tolist() == b.kept.tolist()

    @pytest.mark.parametrize("seed", [7, 11, 13])
    def test_mixed_dtype_pair_picks_as_float64(self, seed):
        # each vector is checked in its own dtype: a float32 visual vector
        # beside a float64 audio one keeps what two float64 vectors keep
        stream = build_stream(T=5, n_v=24, n_a=7, n_q=3, seed=seed)
        lay = WindowLayout.from_stream(stream)
        spec = RetentionSpec(r_v=0.3, r_a=0.5, lambda_=1.4, tau=0.1)
        visual, audio = wide_weights(stream, seed)
        mixed = win_div_prune(stream, lay, (visual, audio.astype(np.float64)),
                              spec)
        double = win_div_prune(stream, lay, (visual.astype(np.float64),
                                             audio.astype(np.float64)), spec)
        assert mixed.rows.tolist() == double.rows.tolist()

    @pytest.mark.parametrize("visual_at, audio_at, row", [
        (5, None, 7), (None, 3, 11), (7, 0, 9),
    ], ids=["visual", "audio", "visual-first"])
    def test_bad_weight_names_its_stream_row(self, visual_at, audio_at, row):
        # windows of 4 visual then 2 audio rows: visual ordinal 5 is stream
        # row 7, audio ordinal 3 is row 11; a bad visual weight is named
        # before a bad audio one, though audio ordinal 0 is row 4
        stream = build_stream(T=3, n_v=4, n_a=2, n_q=2)
        lay = WindowLayout.from_stream(stream)
        spec = RetentionSpec(r_v=0.5, r_a=0.5, lambda_=1.0, tau=0.1)
        visual, audio = np.ones(12), np.ones(6, dtype=np.float32)
        if visual_at is not None:
            visual[visual_at] = -1.0
        if audio_at is not None:
            audio[audio_at] = np.nan
        with pytest.raises(StreamError, match=rf"^saliency weight of row "
                                              rf"{row} is "):
            win_div_prune(stream, lay, (visual, audio), spec)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_first_bad_weight_message(self, dtype):
        # visual ordinal 5, stream row 7, is NaN and ordinal 9 negative:
        # the first is named, with its value
        stream = build_stream(T=3, n_v=4, n_a=2, n_q=2)
        lay = WindowLayout.from_stream(stream)
        spec = RetentionSpec(r_v=0.5, r_a=0.5, lambda_=1.0, tau=0.1)
        visual = np.ones(12, dtype=dtype)
        visual[5], visual[9] = np.nan, -1.0
        with pytest.raises(StreamError) as info:
            win_div_prune(stream, lay, (visual, None), spec)
        assert str(info.value) == (
            "saliency weight of row 7 is nan; weights must be finite, "
            "non-negative and at most 1.7014117e+38")

    @pytest.mark.parametrize("weight", [
        np.nextafter(MAX_WEIGHT, np.inf), np.finfo(np.float32).max, 1e39,
        1e300], ids=["past-the-bound", "float32-max", "past-float32",
                     "past-float32-far"])
    def test_weight_past_the_bound_refused(self, weight):
        # equal weights of float32's largest value, 1e39 or 1e300 picked
        # unlike uniform weights, as a weight times a distance overflowed
        # to inf; visual ordinal 13 is window 1's fourth visual row, 17
        stream = build_stream(T=2, n_v=10, n_a=4, n_q=3)
        lay = WindowLayout.from_stream(stream)
        spec = RetentionSpec(r_v=0.3, r_a=0.5, lambda_=1.4, tau=0.1)
        visual = np.ones(20)
        visual[13] = weight
        with pytest.raises(StreamError, match=r"^saliency weight of row 17 is "
                                              r".*; weights must be finite, "
                                              r"non-negative and at most "
                                              r"1.7014117e\+38$"):
            win_div_prune(stream, lay, (visual, None), spec)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equal_weights_at_the_bound_pick_as_uniform(self, dtype):
        stream = build_stream(T=2, n_v=10, n_a=4, n_q=3)
        lay = WindowLayout.from_stream(stream)
        spec = RetentionSpec(r_v=0.3, r_a=0.5, lambda_=1.4, tau=0.1)
        bound = (np.full(20, MAX_WEIGHT, dtype), np.full(8, MAX_WEIGHT, dtype))
        got = win_div_prune(stream, lay, bound, spec)
        assert got.rows.tolist() == \
            win_div_prune(stream, lay, None, spec).rows.tolist()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_embedding_rejected(self, value):
        stream = build_stream(T=2, n_v=4, n_a=2, n_q=1)
        emb = stream.embeddings.copy()
        emb[7, 3] = value  # window 1's second visual token
        stream = TokenStream(embeddings=emb, modality=stream.modality,
                             window_id=stream.window_id,
                             position=stream.position)
        lay = WindowLayout.from_stream(stream)
        spec = RetentionSpec(r_v=0.5, r_a=0.5, lambda_=1.0, tau=0.1)
        with pytest.raises(StreamError, match="embedding of row 7"):
            win_div_prune(stream, lay, None, spec)

    def test_invalid_stream_rejected(self):
        stream = build_stream(T=2, n_v=2, n_a=1, n_q=1)
        bad_layout = WindowLayout(n_v=np.array([2, 1]), n_a=np.array([1, 1]))
        spec = RetentionSpec(r_v=0.5, r_a=0.5, lambda_=1.0, tau=0.1)
        with pytest.raises(ValueError):
            win_div_prune(stream, bad_layout, None, spec)

    @staticmethod
    def one_big_group(m, n):
        """A stream of width 1: one token of each modality in window 0 and
        n tokens of modality m in window 1, then a text token."""
        other = AUDIO if m == VISUAL else VISUAL
        mods = [VISUAL, AUDIO] + [m] * n + [other, TEXT]
        return TokenStream(
            embeddings=np.ones((n + 4, 1), dtype=np.float32),
            modality=np.array(mods),
            window_id=np.array([0, 0] + [1] * (n + 1) + [-1]),
            position=np.arange(n + 4))

    @pytest.mark.parametrize("m, name", [(VISUAL, "visual"),
                                         (AUDIO, "audio")])
    def test_group_past_ceiling_rejected(self, m, name):
        # refused before any distance block exists: the group would need
        # (MAX_GROUP + 1)^2 float32 entries
        stream = self.one_big_group(m, MAX_GROUP + 1)
        lay = WindowLayout.from_stream(stream)
        spec = RetentionSpec(r_v=0.3, r_a=0.3, lambda_=1.0, tau=0.1)
        with pytest.raises(StreamError, match=rf"^window 1 holds "
                                              rf"{MAX_GROUP + 1} {name} rows; "
                                              rf"a group may hold at most "
                                              rf"{MAX_GROUP}$"):
            win_div_prune(stream, lay, None, spec)

    def test_group_at_ceiling_accepted(self):
        # keeping every token allocates no distance block either
        stream = self.one_big_group(VISUAL, MAX_GROUP)
        lay = WindowLayout.from_stream(stream)
        spec = RetentionSpec(r_v=1.0, r_a=1.0, lambda_=1.0, tau=0.1)
        got = win_div_prune(stream, lay, None, spec)
        assert got.kept_v.tolist() == [1, MAX_GROUP]
        assert got.rows.tolist() == list(range(stream.n))


def two_step_unit_rows(emb, rows):
    """Unit rows as stage 1 made them before its arena: float64 squares by
    a casting ufunc into a fresh array, and float64 quotients rounded into
    a fresh float32 array. The reference for the arena path."""
    norms = np.sqrt(np.add.reduce(np.square(emb, dtype=np.float64), axis=1))
    if not np.isfinite(norms).all():
        i = np.flatnonzero(~np.isfinite(norms))[0]
        raise StreamError(f"embedding of row {np.ravel(rows)[i]} is not finite")
    zero = norms == 0.0
    unit = np.empty(emb.shape, dtype=np.float32)
    np.divide(emb, np.where(zero, 1.0, norms)[:, None], out=unit,
              dtype=np.float64, casting="same_kind")
    return unit, zero


def two_step_picks(unit, weights, k):
    """(G, n) pick mask of G groups of unit rows (G, n, d) in a fresh
    distance block."""
    G, n, _ = unit.shape
    dist = np.empty((G, n, n), dtype=np.float32)
    _distances(unit, dist)
    return _maxmin(dist, weights, k)


@settings(max_examples=200, deadline=None)
@given(G=st.integers(1, 6), n=st.one_of(st.integers(1, 40), st.just(50)),
       d=st.one_of(st.just(1), st.integers(1, 70)),
       seed=st.integers(0, 2**32 - 1), zero=st.integers(0, 3),
       scale=st.sampled_from([1e-30, 1.0, 1e30]),
       bad=st.sampled_from([None, np.nan, np.inf, -np.inf]),
       spare=st.integers(0, 9))
def test_arena_chunk_matches_two_step_path(G, n, d, seed, zero, scale, bad,
                                           spare):
    # _prune_chunk gathers a chunk's rows into the arena, normalises them
    # in place and reuses the scratch region for the distance block. Its
    # unit rows, distances and picks must equal the two-step path's bit for
    # bit, with G*n*d odd (region B padded to 8 bytes), d = 1, n = 1 and
    # zero-norm rows, in an arena larger than needed whose stale contents
    # are NaN; a non-finite row is refused by its stream row, as before
    rng = np.random.default_rng(seed)
    m = G * n
    emb = (rng.standard_normal((m + 7, d)) * scale).astype(np.float32)
    group_rows = rng.permutation(m + 7)[:m].reshape(G, n).astype(np.int32)
    for _ in range(zero):
        emb[group_rows.flat[rng.integers(m)]] = 0.0
    if bad is not None:
        emb[group_rows.flat[rng.integers(m)], rng.integers(d)] = bad
    arena = np.full(_arena_size(G, n, d) + spare, np.nan, dtype=np.float32)
    k = int(rng.integers(1, n)) if n > 1 else 1
    weights = rng.choice([0.0, 0.5, 1.0, 3.0], size=(G, n))
    if bad is not None:
        with pytest.raises(StreamError) as want:
            two_step_unit_rows(emb[group_rows.ravel()], group_rows)
        with pytest.raises(StreamError, match=f"^{want.value}$"):
            _prune_chunk(arena, emb, group_rows, weights, k)
        return
    unit, want_zero = two_step_unit_rows(emb[group_rows.ravel()], group_rows)
    got_zero, picks = _prune_chunk(arena, emb, group_rows, np.ones((G, n)), k)
    assert arena[: m * d].tobytes() == unit.tobytes()
    assert got_zero.tolist() == want_zero.reshape(G, n).tolist()
    if n == 1:
        assert picks is None  # k == n: kept whole, no distance block
        return
    # unit weights leave the distances as they are, bar the diagonal the
    # greedy steps park at -inf
    b = m * d + (m * d) % 2
    got = arena[b : b + m * n].reshape(G, n, n).copy()
    want = np.empty((G, n, n), dtype=np.float32)
    _distances(unit.reshape(G, n, d), want)
    diagonal = np.eye(n, dtype=bool)
    assert (got[:, diagonal] == -np.inf).all()
    got[:, diagonal] = want[:, diagonal]
    assert got.tobytes() == want.tobytes()
    _, picks = _prune_chunk(arena, emb, group_rows, weights, k)
    assert picks.tolist() == two_step_picks(
        unit.reshape(G, n, d), weights, k).tolist()


def ragged_stream(counts_v, counts_a, n_q, d, rng):
    """A stream of windows holding counts_v[t] visual then counts_a[t]
    audio rows, with n_q text rows at the end, a few rows zero."""
    mods, wins = [], []
    for t, (nv, na) in enumerate(zip(counts_v, counts_a)):
        mods += [VISUAL] * nv + [AUDIO] * na
        wins += [t] * (nv + na)
    mods += [TEXT] * n_q
    wins += [-1] * n_q
    emb = rng.standard_normal((len(mods), d)).astype(np.float32)
    emb[rng.random(len(mods)) < 0.05] = 0.0
    return TokenStream(embeddings=emb, modality=np.array(mods),
                       window_id=np.array(wins),
                       position=np.arange(len(mods)))


def two_step_prune(stream, layout, weights, spec):
    """Stage-1 rows and notes, one group at a time on the two-step path."""
    keep = stream.modality == TEXT
    notes = []
    for m, counts, r, w in ((VISUAL, layout.n_v, spec.r_v, weights[0]),
                            (AUDIO, layout.n_a, spec.r_a, weights[1])):
        rows = stream.rows_of(m)
        start = 0
        for t, n in enumerate(counts.tolist()):
            group = rows[start : start + n]
            wg = np.ones(n) if w is None else w[start : start + n]
            start += n
            k = keep_count(min(1.0, spec.lambda_ * r), n)
            if k == 0:
                continue
            unit, zero = two_step_unit_rows(stream.embeddings[group], group)
            if zero.any():
                notes.append(f"{int(zero.sum())} zero-norm embeddings in "
                             f"window {t} {('visual', 'audio')[m]}; treated "
                             f"as distance 1 to everything")
            keep[group] = (True if k == n else
                           two_step_picks(unit[None], wg[None], k)[0])
    return np.flatnonzero(keep), notes


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), T=st.integers(1, 9),
       d=st.sampled_from([1, 3, 8, 17]),
       sizes=st.lists(st.sampled_from([0, 1, 2, 5, 9, 16, 33, 70]),
                      min_size=2, max_size=2),
       weighted=st.booleans())
def test_arena_pass_matches_two_step_path(seed, T, d, sizes, weighted):
    # ragged windows give several size classes per modality, ascending, so
    # the arena grows mid-pass; the picks and zero-norm notes must equal
    # the two-step path's, run one group at a time
    rng = np.random.default_rng(seed)
    counts_v = rng.choice([sizes[0], sizes[1], 4], size=T)
    counts_a = rng.choice([sizes[1], 3, 0], size=T)
    stream = ragged_stream(counts_v, counts_a, 3, d, rng)
    layout = WindowLayout.from_stream(stream, T)
    weights = ((rng.random(int(counts_v.sum())),
                rng.random(int(counts_a.sum()))) if weighted else
               (None, None))
    spec = RetentionSpec(r_v=0.3, r_a=0.65, lambda_=1.4, tau=0.1)
    res = win_div_prune(stream, layout, weights, spec)
    rows, notes = two_step_prune(stream, layout, weights, spec)
    assert res.rows.tolist() == rows.tolist()
    assert list(res.notes) == notes


def test_arena_grows_and_is_freed_between_passes(monkeypatch):
    # the arena grows as the size classes need more room, and each arena
    # is gone before the next one is used: a grown one releases the smaller
    # at once, and the visual pass's goes before the audio pass gathers
    calls = []

    def spy(arena, embeddings, group_rows, weights, k):
        for _, ref in calls:
            assert ref() is None or ref() is arena
        calls.append((arena.size, weakref.ref(arena)))
        return chunk(arena, embeddings, group_rows, weights, k)

    chunk = divprune._prune_chunk
    monkeypatch.setattr(divprune, "_prune_chunk", spy)
    stream = ragged_stream([4, 40, 4, 90], [6, 6, 30, 0], 2, 8,
                           np.random.default_rng(3))
    spec = RetentionSpec(r_v=0.3, r_a=0.65, lambda_=1.4, tau=0.1)
    res = win_div_prune(stream, WindowLayout.from_stream(stream), None, spec)
    # one chunk per size class: visual 4, 40 and 90, then audio 6 and 30
    sizes = [size for size, _ in calls]
    assert len(sizes) == 5
    assert sizes[0] < sizes[1] < sizes[2] and sizes[3] < sizes[4]
    assert res.rows.tolist() == two_step_prune(
        stream, WindowLayout.from_stream(stream), (None, None), spec)[0].tolist()
