import tracemalloc
import warnings

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
    _distances,
    _maxmin,
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


def test_batched_kernel_with_zero_weights_matches_single_groups():
    # the kernel scales each distance column by its weight; zero weights
    # make whole value rows tie at 0, which must still pick exactly k per
    # group and agree with greedy_maxmin group by group. greedy_maxmin runs
    # its one group in one dimension, so this compares the two kernel paths,
    # also at the stage-1 group sizes 50 and 288. The smallest subnormal
    # weight rounds most values to 0 and the largest finite one overflows
    # them to inf, so ties abound
    rng = np.random.default_rng(5)
    for _ in range(200):
        G, n, d = (int(x) for x in rng.integers((2, 2, 1), (6, 12, 5)))
        n = int(rng.choice([n] * 8 + [50, 288]))
        k = int(rng.choice([1, n - 1, rng.integers(1, n)]))
        emb = rng.integers(-1, 2, size=(G * n, d)).astype(np.float64)
        w = rng.choice([0.0, 0.0, 0.5, 1.0, 5e-324, 1.7976931348623157e308],
                       size=(G, n))
        mask, _ = _chunk_picks(emb.reshape(G, n, d), w, k)
        assert mask.sum(axis=1).tolist() == [k] * G
        for g in range(G):
            want = greedy_maxmin(emb[g * n : (g + 1) * n], w[g], k)
            assert np.flatnonzero(mask[g]).tolist() == want.tolist()


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
    # 1.7976931348623157e308 is finite in float64 but not in float32. The
    # kernel clamps it to the largest float32, so a duplicate's distance 0
    # scales to 0 instead of inf * 0 = NaN, and every group still picks
    # exactly k distinct tokens, one per distinct vector first
    n, d = 12, 4
    label = np.arange(n) % 3  # three distinct vectors, four copies each
    emb = np.tile(np.eye(d)[label], (G, 1, 1))
    w = np.full((G, n), 1.7976931348623157e308)
    for k in range(1, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mask, dist = _chunk_picks(emb, w, k)
            one = greedy_maxmin(emb[0], w[0], k)
        assert not np.isnan(dist).any()
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
    """A float32 (visual, audio) saliency pair whose values span the
    float32 range, zeros and subnormals included."""
    rng = np.random.default_rng(seed)
    weights = np.exp(rng.uniform(-100.0, 88.0, stream.n)).astype(np.float32)
    weights[rng.integers(stream.n, size=6)] = 0.0
    weights[rng.integers(stream.n, size=3)] = np.float32(1e-45)
    weights[rng.integers(stream.n, size=3)] = np.finfo(np.float32).max
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
    ], ids=["short", "negative", "inf", "float32-short", "float32-negative",
            "float32-inf", "float32-nan", "complex", "string", "object"])
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
        # values span the float32 range, zeros and subnormals included
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
