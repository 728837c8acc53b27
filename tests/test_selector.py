import itertools

import numpy as np
import pytest

from omniprefill.allocator import BudgetPlan, allocate
from omniprefill.core import (
    AUDIO,
    TEXT,
    VISUAL,
    InfeasibleBudgetError,
    StreamError,
    TokenStream,
    WindowLayout,
    window_blocks,
)
from omniprefill.selector import apply_budget, late_removal, select_topk


class TestSelectTopk:
    def test_identity_budget(self):
        s = np.array([0.3, 0.1, 0.6])
        assert select_topk(s, 3).tolist() == [0, 1, 2]

    def test_forced_ordering(self):
        s = np.array([0.1, 0.5, 0.4])
        assert select_topk(s, 2).tolist() == [1, 2]

    def test_zero_budget(self):
        assert select_topk(np.array([0.5, 0.5]), 0).size == 0

    def test_ties_take_earliest(self):
        s = np.array([0.4, 0.4, 0.4, 0.2])
        assert select_topk(s, 2).tolist() == [0, 1]

    def test_equals_exhaustive_max_sum(self):
        rng = np.random.default_rng(11)
        for trial in range(300):
            n = int(rng.integers(1, 9))
            b = int(rng.integers(1, n + 1))
            scores = rng.random(n)
            got = set(select_topk(scores, b).tolist())
            want = max(itertools.combinations(range(n), b),
                       key=lambda c: sum(scores[i] for i in c))
            assert got == set(want), trial

    def test_over_budget_rejected(self):
        with pytest.raises(InfeasibleBudgetError):
            select_topk(np.array([0.5]), 2)


def make_stream(T, n_v, n_a, n_q, d=4, seed=0):
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


def uniform_rel(T):
    """Equal relevance weights (s_v, s_a) over T windows."""
    u = np.full(T, 1.0 / T)
    return u, u


def rows_of(stream, m, t):
    """Rows of modality m in window t, in storage order."""
    return np.flatnonzero((stream.modality == m) & (stream.window_id == t))


def keep_flags(plan, sv, sa, lay):
    """apply_budget on flat visual and audio scores, as window_blocks
    gathers them over lay."""
    return apply_budget(plan, window_blocks(sv, lay.n_v)[0],
                        window_blocks(sa, lay.n_a)[0], lay)


def survivors(stream, kept_v, kept_a):
    """The stream that apply_budget's keep flags leave: the text rows plus
    the kept rows of each modality, in storage order."""
    rows = np.concatenate([stream.rows_of(TEXT),
                           stream.rows_of(VISUAL)[kept_v],
                           stream.rows_of(AUDIO)[kept_a]])
    return stream.take(np.sort(rows))


class TestApplyBudget:
    def test_full_capacity_is_identity(self):
        stream = make_stream(T=2, n_v=3, n_a=2, n_q=2)
        lay = WindowLayout.from_stream(stream)
        plan = allocate(*uniform_rel(2), 1.0, 1.0, lay)
        kept_v, kept_a = keep_flags(plan, np.full(6, 1 / 6),
                                    np.full(4, 0.25), lay)
        out = survivors(stream, kept_v, kept_a)
        assert out.n == stream.n
        assert np.array_equal(out.position, stream.position)

    def test_zero_plan_equals_late_removal(self):
        stream = make_stream(T=2, n_v=3, n_a=2, n_q=2)
        lay = WindowLayout.from_stream(stream)
        plan = allocate(*uniform_rel(2), 0.0, 0.0, lay)
        out = survivors(stream, *keep_flags(plan, np.full(6, 1 / 6),
                                            np.full(4, 0.25), lay))
        want = late_removal(stream)
        assert np.array_equal(out.position, want.position)
        assert np.array_equal(out.modality, want.modality)

    def test_counts_match_plan_exactly(self):
        stream = make_stream(T=3, n_v=7, n_a=4, n_q=5, seed=2)
        lay = WindowLayout.from_stream(stream)
        rng = np.random.default_rng(3)
        sv = rng.random(21)
        sa = rng.random(12)
        plan = allocate(*uniform_rel(3), 0.5, 0.6, lay)
        out = survivors(stream, *keep_flags(plan, sv, sa, lay))
        for t in range(3):
            assert rows_of(out, VISUAL, t).size == int(plan.b_v[t])
            assert rows_of(out, AUDIO, t).size == int(plan.b_a[t])
        assert out.n_text == 5

    def test_matches_independent_topk(self):
        stream = make_stream(T=2, n_v=4, n_a=3, n_q=2, seed=4)
        lay = WindowLayout.from_stream(stream)
        rng = np.random.default_rng(5)
        sv, sa = rng.random(8), rng.random(6)
        plan = allocate(*uniform_rel(2), 0.5, 2 / 3, lay)
        out = survivors(stream, *keep_flags(plan, sv, sa, lay))
        kept = set(out.position.tolist())
        for t in range(2):
            for mod, scores, budget, w in (
                (VISUAL, sv, int(plan.b_v[t]), 4),
                (AUDIO, sa, int(plan.b_a[t]), 3),
            ):
                rows = rows_of(stream, mod, t)
                group_scores = scores[t * w: t * w + w]
                order = np.argsort(-group_scores, kind="stable")[:budget]
                want = {int(stream.position[rows[i]]) for i in order}
                got = {p for p in kept
                       if stream.modality[p] == mod
                       and stream.window_id[p] == t}
                assert got == want, (t, mod)

    def test_scores_length_must_match(self):
        # blocks of 5 visual scores against a layout of 6 visual tokens
        stream = make_stream(T=2, n_v=3, n_a=2, n_q=1)
        lay = WindowLayout.from_stream(stream)
        plan = allocate(*uniform_rel(2), 0.5, 0.5, lay)
        with pytest.raises(StreamError, match="score blocks hold 5 tokens, "
                                              "the layout 6"):
            apply_budget(plan, window_blocks(np.ones(5), np.array([3, 2]))[0],
                         window_blocks(np.full(4, 0.25), lay.n_a)[0], lay)

    def test_plan_stream_mismatch(self):
        stream = make_stream(T=2, n_v=2, n_a=1, n_q=1)
        lay = WindowLayout.from_stream(stream)
        big = allocate(*uniform_rel(2), 1.0, 1.0,
                       WindowLayout(n_v=np.array([3, 3]), n_a=np.array([1, 1])))
        with pytest.raises((ValueError, InfeasibleBudgetError)):
            keep_flags(big, np.full(4, 0.25), np.full(2, 0.5), lay)

    def test_plan_and_layout_window_counts_must_agree(self):
        lay = WindowLayout(n_v=np.array([2, 2]), n_a=np.array([1, 1]))
        wide = allocate(*uniform_rel(3), 1.0, 1.0,
                        WindowLayout(n_v=np.array([2, 2, 0]),
                                     n_a=np.array([1, 1, 0])))
        with pytest.raises(StreamError, match="3 windows"):
            keep_flags(wide, np.full(4, 0.25), np.full(2, 0.5), lay)

    def test_negative_budget_rejected(self):
        lay = WindowLayout(n_v=np.array([2, 2]), n_a=np.array([1, 1]))
        plan = BudgetPlan(b_v=np.array([-1, 2]), b_a=np.array([1, 1]))
        with pytest.raises(StreamError, match="non-negative"):
            keep_flags(plan, np.full(4, 0.25), np.full(2, 0.5), lay)

    def test_monotone_shrinkage(self):
        stream = make_stream(T=2, n_v=6, n_a=4, n_q=3, seed=6)
        lay = WindowLayout.from_stream(stream)
        rng = np.random.default_rng(7)
        sv, sa = rng.random(12), rng.random(8)
        plan1 = allocate(*uniform_rel(2), 0.7, 0.7, lay)
        kv1, ka1 = keep_flags(plan1, sv, sa, lay)
        mid = survivors(stream, kv1, ka1)
        # score the survivors by indexing the originals at their kept indices
        lay2 = WindowLayout(plan1.b_v, plan1.b_a)
        plan2 = allocate(*uniform_rel(2), 0.3, 0.3, lay2, totals=(12, 8))
        kv2, ka2 = keep_flags(plan2, sv[kv1], sa[ka1], lay2)
        out = survivors(stream, np.flatnonzero(kv1)[kv2],
                        np.flatnonzero(ka1)[ka2])
        assert set(out.position.tolist()) <= set(mid.position.tolist())
        assert out.n_text == 3


class TestLateRemoval:
    def test_drops_all_non_text(self):
        stream = make_stream(T=2, n_v=3, n_a=2, n_q=7)
        out = late_removal(stream)
        assert out.n == 7
        assert np.all(out.modality == TEXT)

    def test_text_only_unchanged(self):
        stream = make_stream(T=1, n_v=0, n_a=0, n_q=4)
        out = late_removal(stream)
        assert np.array_equal(out.position, stream.position)

    def test_idempotent(self):
        stream = make_stream(T=2, n_v=3, n_a=2, n_q=3)
        once = late_removal(stream)
        twice = late_removal(once)
        assert np.array_equal(once.position, twice.position)
        assert np.array_equal(once.embeddings, twice.embeddings)
