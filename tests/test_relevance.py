import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from omniprefill.allocator import allocate
from omniprefill.core import (AUDIO, VISUAL, EngineError, StreamError,
                              WindowLayout)
from omniprefill.pipeline import SynthSpec, SyntheticOracle
from omniprefill.relevance import softmax, window_relevance, window_weights


class FixedAttention(SyntheticOracle):
    """A synthetic oracle whose every group attends as attn does."""

    def __init__(self, attn):
        n = attn.shape[0]
        super().__init__(SynthSpec(seed=0, T=1, d=1, n_v=n, n_a=0, n_q=1))
        self.attn = attn

    def stage1_attention(self, window, modality, n):
        return self.attn


class TestMeanReceivedAttention:
    """SyntheticOracle.saliency is the mean attention a token receives:
    the column means of its group's row-stochastic attention."""

    def test_uniform(self):
        n = 5
        attn = np.full((n, n), 1.0 / n)
        got = FixedAttention(attn).saliency(0, VISUAL, n)
        assert np.allclose(got, 1.0 / n)

    def test_all_mass_on_first_token(self):
        attn = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert FixedAttention(attn).saliency(0, VISUAL, 2).tolist() \
            == [1.0, 0.0]

    def test_column_means(self):
        spec = SynthSpec(seed=0, T=2, d=4, n_v=4, n_a=3, n_q=1)
        oracle = SyntheticOracle(spec)
        for t, m, n in ((0, VISUAL, 4), (1, VISUAL, 4), (1, AUDIO, 3)):
            attn = oracle.stage1_attention(t, m, n)
            got = oracle.saliency(t, m, n)
            # independent per-element summation
            for j in range(n):
                assert got[j] == pytest.approx(
                    sum(attn[i, j] for i in range(n)) / n, abs=1e-12)
            assert got.sum() == pytest.approx(1.0, abs=1e-12)


class TestSoftmax:
    def test_matches_naive_formula(self):
        logits = np.random.default_rng(2).normal(size=5)
        naive = np.exp(logits) / np.exp(logits).sum()
        assert np.allclose(softmax(logits), naive, atol=1e-12)

    def test_equal_logits_uniform(self):
        assert np.allclose(softmax(np.full(4, 3.0)), 0.25)

    def test_sums_to_one(self):
        s = softmax(np.random.default_rng(4).normal(size=9))
        assert s.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(s >= 0)

    def test_rows_match_one_dimensional_calls(self):
        rows = np.random.default_rng(3).normal(size=(4, 6))
        got = softmax(rows)
        for i in range(4):
            assert np.array_equal(got[i], softmax(rows[i]))

    def test_in_place_equals_a_fresh_result(self):
        # out=x overwrites x with the same bits a fresh result holds, and
        # allocates no temporary of x's size
        rows = np.random.default_rng(6).normal(size=(3, 7)) * 40
        want = softmax(rows)
        x = rows.copy()
        assert softmax(x, out=x) is x
        assert x.tobytes() == want.tobytes()

    def test_large_logits_stay_finite(self):
        s = softmax(np.array([1000.0, 999.0, -1000.0]))
        assert np.all(np.isfinite(s))
        assert s[0] / s[1] == pytest.approx(np.e, rel=1e-12)
        assert s.sum() == pytest.approx(1.0, abs=1e-12)


def layout(n_v, n_a):
    return WindowLayout(n_v=np.asarray(n_v), n_a=np.asarray(n_a))


def window_means(scores, counts):
    """np.mean of each window's run of a window-major score vector, 0 for
    an empty window."""
    ends = np.cumsum(counts)
    return np.array([np.mean(scores[end - n:end]) if n else 0.0
                     for n, end in zip(counts.tolist(), ends.tolist())])


def relevance(scores_v, scores_a, lay, tau):
    """window_relevance of per-token visual and audio scores, as s_v and
    s_a, and the window weights s that window_weights combines of them."""
    s_v, s_a = window_relevance(window_means(scores_v, lay.n_v),
                                window_means(scores_a, lay.n_a), lay, tau)
    return SimpleNamespace(s_v=s_v, s_a=s_a, s=window_weights(s_v, s_a, lay))


class TestWindowRelevance:
    def test_uniform_scores(self):
        lay = layout([3, 3], [2, 2])
        rel = relevance(np.full(6, 1 / 6), np.full(4, 0.25), lay, 0.1)
        assert np.allclose(rel.s_v, 0.5)
        assert np.allclose(rel.s_a, 0.5)
        assert np.allclose(rel.s, 0.5)

    def test_single_window(self):
        lay = layout([4], [2])
        rel = relevance(np.full(4, 0.25), np.full(2, 0.5), lay, 0.1)
        assert rel.s_v.tolist() == [1.0]
        assert rel.s_a.tolist() == [1.0]
        assert rel.s.tolist() == [1.0]

    def test_hand_softmax(self):
        # visual window means 0.8 / 0.2 at tau 0.1 -> softmax(8, 2);
        # uniform audio stays at one half
        lay = layout([1, 1], [2, 2])
        rel = relevance(np.array([0.8, 0.2]), np.full(4, 0.25), lay, 0.1)
        z = np.exp([8.0, 2.0])
        want_v = z / z.sum()
        assert np.allclose(rel.s_v, want_v, atol=1e-12)
        assert np.allclose(rel.s_a, 0.5)
        assert rel.s[0] == pytest.approx((want_v[0] + 0.5) / 2, abs=1e-12)

    def test_shift_invariance(self):
        lay = layout([1, 1, 1], [1, 1, 1])
        sv = np.array([0.2, 0.5, 0.3])
        sa = np.array([0.1, 0.6, 0.3])
        a = relevance(sv, sa, lay, 0.05)
        b = relevance(sv + 4.0, sa + 4.0, lay, 0.05)
        assert np.allclose(a.s_v, b.s_v, atol=1e-9)
        assert np.allclose(a.s_a, b.s_a, atol=1e-9)

    def test_permutation_equivariance(self):
        lay = layout([2, 2, 2], [1, 1, 1])
        rng = np.random.default_rng(5)
        sv = rng.random(6)
        sa = rng.random(3)
        base = relevance(sv, sa, lay, 0.1)
        perm = [2, 0, 1]
        sv_p = np.concatenate([sv[2 * t: 2 * t + 2] for t in perm])
        sa_p = sa[perm]
        moved = relevance(sv_p, sa_p, lay, 0.1)
        assert np.allclose(moved.s[0], base.s[2], atol=1e-12)
        assert np.allclose(moved.s[1], base.s[0], atol=1e-12)

    def test_temperature_limits(self):
        lay = layout([1, 1, 1], [1, 1, 1])
        sv = np.array([0.5, 0.3, 0.2])
        sa = np.array([0.4, 0.4, 0.2])
        hot = relevance(sv, sa, lay, 1e6)
        assert np.allclose(hot.s, 1 / 3, atol=1e-4)
        cold = relevance(sv, sa, lay, 1e-3)
        assert np.argmax(cold.s_v) == 0
        assert cold.s_v[0] == pytest.approx(1.0, abs=1e-6)
        # argmax window identical at every temperature
        for tau in (1e-3, 0.1, 1.0, 10.0):
            rel = relevance(sv, sa, lay, tau)
            assert np.argmax(rel.s_v) == 0

    def test_absent_modality_windows(self):
        # audio exists only in window 0: audio softmax runs over that single
        # window, and windows without audio take the visual weight unhalved
        lay = layout([2, 2], [1, 0])
        rel = relevance(np.full(4, 0.25), np.array([0.9]), lay, 0.1)
        assert rel.s_a.tolist() == [1.0, 0.0]
        assert rel.s[0] == pytest.approx((0.5 + 1.0) / 2, abs=1e-12)
        assert rel.s[1] == pytest.approx(0.5, abs=1e-12)

    def test_rejects_bad_tau(self):
        lay = layout([1], [1])
        with pytest.raises(ValueError):
            window_relevance(np.array([1.0]), np.array([1.0]), lay, 0.0)

    def test_rejects_nan_tau(self):
        lay = layout([1], [1])
        with pytest.raises(ValueError, match="tau must be positive") as exc:
            window_relevance(np.array([1.0]), np.array([1.0]), lay,
                             float("nan"))
        assert isinstance(exc.value, StreamError)

    @pytest.mark.parametrize("means, tau", [([0.5, 0.25], 5e-324),
                                            ([1e308, 0.5], 0.1),
                                            ([np.inf, 0.5], 0.1)],
                             ids=["tiny-tau", "huge-mean", "inf-mean"])
    def test_overflowing_logits_are_refused(self, means, tau):
        # never an overflow warning, nor NaN weights from softmax
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StreamError, match=r"^visual window means "
                                                  r"over tau=.* overflow$"):
                window_relevance(np.array(means), np.array([0.5, 0.5]),
                                 layout([1, 1], [1, 1]), tau)

    def test_rejects_length_mismatch(self):
        lay = layout([2], [1])
        with pytest.raises(ValueError):
            window_relevance(np.array([1.0, 1.0]), np.array([1.0]), lay, 0.1)

    @pytest.mark.parametrize("n_v, n_a, name", [([2], [1], "visual"),
                                                ([1], [3], "audio")])
    def test_length_mismatch_is_stream_error(self, n_v, n_a, name):
        # one window, and means for two in the named modality
        means = {"visual": np.array([1.0]), "audio": np.array([1.0])}
        means[name] = np.array([1.0, 2.0])
        with pytest.raises(StreamError, match=rf"{name} means have shape "
                                              rf"\(2,\), the layout holds 1 "
                                              rf"windows"):
            window_relevance(means["visual"], means["audio"],
                             layout(n_v, n_a), 0.1)

    def test_empty_windows_means_are_not_read(self):
        # an absent modality's entry takes no part in its softmax
        lay = layout([1, 0, 1], [1, 1, 1])
        a, _ = window_relevance(np.array([0.2, 0.0, 0.5]),
                                np.array([0.1, 0.6, 0.3]), lay, 0.1)
        b, _ = window_relevance(np.array([0.2, 9.0, 0.5]),
                                np.array([0.1, 0.6, 0.3]), lay, 0.1)
        assert a.tolist() == b.tolist()
        assert a[1] == 0.0


class TestRelevanceScores:
    """The relevance weights s_v and s_a allocate takes follow one rule:
    one finite, non-negative real number per window; the window weights it
    combines of them must not sum past the float range."""

    @pytest.mark.parametrize("s_v, s_a, error, message", [
        ([0.5, 0.5], [1.0], StreamError,
         r"^s_a weights have shape \(1,\), the layout holds 2 windows$"),
        ([[0.5, 0.5]], [[0.5, 0.5]], StreamError,
         r"^s_v weights have shape \(1, 2\), the layout holds 2 windows$"),
        ([1e308, 0.5], [1e308, 0.5], EngineError,
         "^relevance weights sum past the float range$"),
        ([0.5 + 1j, 0.5], [0.5, 0.5], StreamError,
         "^s_v weights must be finite and non-negative$"),
        ([0.5, 0.5], ["0.5", "0.5"], StreamError,
         "^s_a weights must be finite and non-negative$"),
        ([[0.5, 0.5], [0.5]], [0.5, 0.5], StreamError,
         r"^s_v weights have shape \(\), the layout holds 2 windows$"),
    ], ids=["unequal", "two-d", "overflow-combined", "complex", "string",
            "ragged"])
    def test_rejects_bad_weights(self, s_v, s_a, error, message):
        # the allocate CLI tests cover negative and non-finite s_v; a list
        # numpy finds no one shape for has none
        with pytest.raises(error, match=message):
            allocate(s_v, s_a, 0.5, 0.5, layout([2, 2], [1, 1]))
