"""Property tests for the segment-based selection core.

Stage 1 runs greedy max-min on whole chunks of equal-size groups, the drop
layers rank every window of a modality at once, and the window means and the
allocator work on arrays. Each is checked here against a plain per-group or
per-window loop written in this file, over random ragged layouts with empty
windows, absent modalities, zero-norm rows, duplicate embeddings, k == n
groups and tied scores. Results must be identical, not merely close. The
whole pipeline, which carries its per-window counts from layer to layer, is
checked against a recount of every layer's survivors, and a stream with one
fault is refused alike when it is built and when its container is read.
"""

import dataclasses
import itertools
import json
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from omniprefill.allocator import BudgetPlan, allocate
from omniprefill.core import (
    AUDIO,
    TEXT,
    VISUAL,
    InfeasibleBudgetError,
    ModelConfig,
    RetentionSpec,
    StreamError,
    TokenStream,
    WindowLayout,
    segments,
    window_blocks,
)
from omniprefill.divprune import keep_count, win_div_prune
from omniprefill.io import ContainerFormatError, read_ots, write_ots
from omniprefill import pipeline
from omniprefill.pipeline import (
    ContainerOracle,
    mean_retention,
    retention_slack,
    run_pipeline,
    stage1_saliency,
)
from omniprefill.relevance import softmax
from omniprefill.selector import apply_budget, select_topk

SETTINGS = settings(max_examples=100, deadline=None)


def rows_of(stream, m, t):
    """Rows of modality m in window t, in storage order."""
    return np.flatnonzero((stream.modality == m) & (stream.window_id == t))


@st.composite
def ragged_streams(draw, max_d=4, interleave=False):
    """A valid stream: per window its visual rows then its audio rows (in a
    drawn order when interleave is set), with text rows slotted in
    anywhere. Counts are ragged and may be zero, and a modality may be
    absent altogether. Positions start past 0, so they are never the row
    numbers. Embedding entries come from a tiny alphabet, so zero rows and
    exact duplicates are common."""
    T = draw(st.integers(1, 5))
    counts = st.lists(st.integers(0, 9), min_size=T, max_size=T)
    n_v, n_a = draw(counts), draw(counts)
    absent = draw(st.sampled_from([None, VISUAL, AUDIO]))
    if absent == VISUAL:
        n_v = [0] * T
    elif absent == AUDIO:
        n_a = [0] * T
    mods, wins = [], []
    for t in range(T):
        labels = [VISUAL] * n_v[t] + [AUDIO] * n_a[t]
        if interleave:
            labels = draw(st.permutations(labels))
        for m in labels:
            if draw(st.integers(0, 5)) == 0:
                mods.append(TEXT)
                wins.append(-1)
            mods.append(m)
            wins.append(t)
    mods += [TEXT] * draw(st.integers(0, 2))
    wins += [-1] * (len(mods) - len(wins))
    n, d = len(mods), draw(st.integers(1, max_d))
    cells = draw(st.lists(st.sampled_from([-1.0, 0.0, 0.0, 1.0, 2.0, 0.5]),
                          min_size=n * d, max_size=n * d))
    positions = np.cumsum(draw(st.lists(st.integers(1, 3), min_size=n,
                                        max_size=n)), dtype=np.int64)
    stream = TokenStream(
        embeddings=np.array(cells, dtype=np.float32).reshape(n, d),
        modality=np.array(mods, dtype=np.int64),
        window_id=np.array(wins, dtype=np.int64),
        position=positions,
    )
    return stream, WindowLayout(n_v=np.array(n_v), n_a=np.array(n_a))


def plain_maxmin(emb, w, k):
    """Greedy max-min over one group in Python loops: the seed maximizes
    w * nearest-neighbour distance, each later pick maximizes w * distance
    to the nearest pick, and ties go to the lowest index. Values follow the
    engine's precision: rows normalised in float64 and rounded to float32,
    then 1 - cosine in float32, clipped to [0, 2], zero-norm rows at 1 from
    everything, each times its candidate's weight clamped to the largest
    float32 and rounded to float32. Rounding a product is monotone, so
    w * min equals the min of the rounded products."""
    n = emb.shape[0]
    if k == n:
        return list(range(n))
    emb = np.asarray(emb, dtype=np.float64)
    norms = np.linalg.norm(emb, axis=1)
    zero = norms == 0.0
    unit = (emb / np.where(zero, 1.0, norms)[:, None]).astype(np.float32)
    dist = np.clip(np.float32(1.0) - unit @ unit.T, 0.0, 2.0)
    dist[zero, :] = 1.0
    dist[:, zero] = 1.0
    w32 = np.minimum(w, np.finfo(np.float32).max).astype(np.float32)
    with np.errstate(over="ignore"):
        d = (dist * w32[:, None]).tolist()  # d[c][s]: c's value against s

    def best(values):
        top = None
        for i, v in values:
            if top is None or v > top[1]:
                top = (i, v)
        return top[0]

    chosen = [best((i, min(d[i][j] for j in range(n) if j != i))
                   for i in range(n))]
    while len(chosen) < k:
        chosen.append(best((c, min(d[c][s] for s in chosen))
                           for c in range(n) if c not in chosen))
    return sorted(chosen)


@SETTINGS
@given(data=st.data())
def test_batched_stage1_matches_plain_loop(data):
    stream, layout = data.draw(ragged_streams())
    ratios = st.sampled_from([0.1, 0.3, 0.5, 0.7, 1.0])
    spec = RetentionSpec(r_v=data.draw(ratios), r_a=data.draw(ratios),
                         lambda_=data.draw(st.sampled_from([1.0, 1.4])),
                         tau=0.1)
    # per modality uniform weights (None), or a vector over its rows with
    # some windows' weights drawn and the rest 1
    saliency = []
    for m, counts in ((VISUAL, layout.n_v), (AUDIO, layout.n_a)):
        vec = None if data.draw(st.booleans()) else np.ones(counts.sum())
        for t, start in enumerate((np.cumsum(counts) - counts).tolist()):
            if vec is not None and counts[t] and data.draw(st.booleans()):
                vec[start : start + counts[t]] = data.draw(st.lists(
                    st.sampled_from([0.0, 0.5, 1.0, 2.0, 5e-324,
                                     1.7976931348623157e308]),
                    min_size=int(counts[t]), max_size=int(counts[t])))
        saliency.append(vec)

    got = win_div_prune(stream, layout, tuple(saliency), spec)

    want = list(stream.rows_of(TEXT))
    for m, ratio, vec in zip((VISUAL, AUDIO), (spec.r_v, spec.r_a), saliency):
        kept = got.kept_v if m == VISUAL else got.kept_a
        weights = np.ones(stream.n)
        if vec is not None:
            weights[stream.rows_of(m)] = vec
        for t in range(layout.T):
            rows = rows_of(stream, m, t)
            k = keep_count(min(1.0, spec.lambda_ * ratio), rows.size)
            assert kept[t] == k
            if k:
                want += [rows[i] for i in plain_maxmin(
                    stream.embeddings[rows], weights[rows], k)]
    assert got.rows.tolist() == sorted(want)
    assert got.kept.tolist() == stream.position[sorted(want)].tolist()


@SETTINGS
@given(data=st.data())
def test_zero_norm_notes_name_every_group(data):
    stream, layout = data.draw(ragged_streams())
    spec = RetentionSpec(r_v=0.5, r_a=0.5, lambda_=1.0, tau=0.1)
    got = win_div_prune(stream, layout, None, spec)
    want = []
    for m, name in ((VISUAL, "visual"), (AUDIO, "audio")):
        for t in range(layout.T):
            rows = rows_of(stream, m, t)
            zero = int((~stream.embeddings[rows].any(axis=1)).sum())
            if keep_count(0.5, rows.size) and zero:
                want.append(f"{zero} zero-norm embeddings in window {t} "
                            f"{name}; treated as distance 1 to everything")
    assert list(got.notes) == want


class AskedOracle(ContainerOracle):
    """A ContainerOracle that records what stage 1 asks of it."""

    def __init__(self, sections):
        super().__init__(sections, T=0)
        self.asked = []

    def modality_saliency(self, modality, counts):
        self.asked.append((modality, counts.tolist()))
        return super().modality_saliency(modality, counts)


@SETTINGS
@given(counts=st.lists(st.integers(0, 6), min_size=1, max_size=12))
def test_segments_start_each_window_run_once(counts):
    # each non-empty window appears in exactly one size class, in ascending
    # order within it, at the offset where its run begins window-major
    seen = []
    sizes = []
    for n, windows, starts in segments(np.array(counts)):
        sizes.append(n)
        assert windows.tolist() == sorted(windows.tolist())
        for t, start in zip(windows.tolist(), starts.tolist()):
            assert counts[t] == n
            assert start == sum(counts[:t])
            seen.append(t)
    assert sizes == sorted(set(c for c in counts if c))
    assert sorted(seen) == [t for t, c in enumerate(counts) if c]


@SETTINGS
@given(data=st.data())
def test_stage1_saliency_places_each_group_on_its_rows(data):
    # saliency sections for a random subset of the groups, with distinct
    # values; the rest of the windows have none and weigh 1
    stream, layout = data.draw(ragged_streams())
    # a container's t may not exceed its token count
    assume(stream.window_id.max(initial=0) < max(1, stream.n))
    sections = {}
    for m, name, counts in ((VISUAL, "visual", layout.n_v),
                            (AUDIO, "audio", layout.n_a)):
        for t, n in enumerate(counts.tolist()):
            if data.draw(st.booleans()):
                sections[f"saliency/w{t}/{name}"] = np.float32(
                    10.0 * t + 5.0 * m + np.arange(n) / (n + 1.0))
    oracle = AskedOracle(read_ots(write_ots(stream, sections))[1])
    got = stage1_saliency(oracle, layout)

    # once per modality with rows, visual then audio
    assert oracle.asked == [(m, counts.tolist()) for m, counts in
                            ((VISUAL, layout.n_v), (AUDIO, layout.n_a))
                            if counts.any()]
    # entry i of a modality's float32 vector weighs its i-th row: each
    # group's section placed on its rows, 1 on rows of a window without
    # one; None when no window with rows has a section
    for m, name, vec in zip((VISUAL, AUDIO), ("visual", "audio"), got):
        want = np.ones(stream.n)
        held = False
        for t in range(layout.T):
            rows = rows_of(stream, m, t)
            section = sections.get(f"saliency/w{t}/{name}")
            if rows.size and section is not None:
                want[rows] = section
                held = True
        if not held:
            assert vec is None
            continue
        assert vec.dtype == np.float32
        assert vec.tolist() == want[stream.rows_of(m)].tolist()


@SETTINGS
@given(data=st.data())
def test_vectorised_budget_matches_topk_per_window(data):
    stream, layout = data.draw(ragged_streams(max_d=1))
    tied = st.sampled_from([0.0, 0.1, 0.25, 0.25, 0.5])
    scores = {m: np.array(data.draw(st.lists(tied, min_size=int(c.sum()),
                                             max_size=int(c.sum()))))
              for m, c in ((VISUAL, layout.n_v), (AUDIO, layout.n_a))}
    budget = {m: np.array([data.draw(st.integers(0, int(c))) for c in counts],
                          dtype=np.int64)
              for m, counts in ((VISUAL, layout.n_v), (AUDIO, layout.n_a))}
    plan = BudgetPlan(b_v=budget[VISUAL], b_a=budget[AUDIO])

    keep_v, keep_a = apply_budget(plan, window_blocks(scores[VISUAL],
                                                      layout.n_v)[0],
                                  window_blocks(scores[AUDIO], layout.n_a)[0],
                                  layout)

    want, got = [], []
    for m, counts, keep in ((VISUAL, layout.n_v, keep_v),
                            (AUDIO, layout.n_a, keep_a)):
        start = 0
        for t in range(layout.T):
            rows = rows_of(stream, m, t)
            local = select_topk(scores[m][start:start + rows.size],
                                int(budget[m][t]))
            want += rows[local].tolist()
            start += rows.size
        assert keep.dtype == bool and keep.shape == (int(counts.sum()),)
        got += stream.rows_of(m)[keep].tolist()
    assert sorted(got) == sorted(want)


@SETTINGS
@given(data=st.data())
def test_budget_beyond_a_window_is_infeasible(data):
    stream, layout = data.draw(ragged_streams(max_d=1))
    t = data.draw(st.integers(0, layout.T - 1))
    b_v = layout.n_v.copy()
    b_v[t] += 1
    plan = BudgetPlan(b_v=b_v, b_a=layout.n_a)
    try:
        apply_budget(plan, window_blocks(np.ones(layout.total_visual),
                                         layout.n_v)[0],
                     window_blocks(np.ones(layout.total_audio),
                                   layout.n_a)[0], layout)
    except InfeasibleBudgetError as exc:
        assert f"in window {t}" in str(exc)
    else:
        raise AssertionError("over-budget window was not rejected")


@SETTINGS
@given(counts=st.lists(st.integers(0, 40), min_size=1, max_size=12),
       seed=st.integers(0, 2**32 - 1))
def test_window_means_match_per_window_mean(counts, seed):
    # runs of 8 or more tokens take numpy's pairwise summation, so this
    # also pins the summation order; each block row is its window's run
    counts = np.array(counts, dtype=np.int64)
    scores = np.random.default_rng(seed).random(int(counts.sum()))
    blocks, means = window_blocks(scores, counts)
    rows = {t: block[i].tolist() for windows, _, block in blocks
            for i, t in enumerate(windows.tolist())}
    start = 0
    for t, c in enumerate(counts.tolist()):
        want = scores[start:start + c].mean() if c else 0.0
        assert means[t] == want
        assert rows.get(t, []) == scores[start:start + c].tolist()
        start += c


def plain_allocate(s_v, s_a, r_v, r_a, layout, totals):
    """The allocator's slot arithmetic one window and one token at a time.
    A window weighs the mean of s_v and s_a if it holds both modalities,
    the present one's weight if it holds one, and 0 if it holds neither."""
    T = layout.T
    n_v0, n_a0 = totals
    total_real = r_v * n_v0 + r_a * n_a0
    target = int(round(total_real))
    cap_v, cap_a = layout.n_v, layout.n_a
    s = np.zeros(T)
    for t in range(T):
        if cap_v[t] and cap_a[t]:
            s[t] = (s_v[t] + s_a[t]) / 2
        elif cap_v[t] or cap_a[t]:
            s[t] = s_v[t] if cap_v[t] else s_a[t]
    share = s / s.sum() if s.sum() > 0.0 else np.full(T, 1.0 / T)
    b_real = total_real * share
    num_v = s_v * (r_v * n_v0)
    num_a = s_a * (r_a * n_a0)
    bv_real = np.zeros(T)
    for t in range(T):
        if num_v[t] + num_a[t] > 0.0:
            bv_real[t] = b_real[t] * num_v[t] / (num_v[t] + num_a[t])
        elif cap_v[t] + cap_a[t] > 0:
            bv_real[t] = b_real[t] * cap_v[t] / (cap_v[t] + cap_a[t])
    reals = np.concatenate([bv_real, b_real - bv_real])
    caps = np.concatenate([cap_v, cap_a])
    base = np.minimum(np.floor(reals).astype(np.int64), caps)
    deficit = target - int(base.sum())
    frac = reals - np.floor(reals)
    slots = [(i % T, i // T) for i in range(2 * T)]
    order = sorted(range(2 * T), key=lambda i: (-frac[i], -share[slots[i][0]],
                                                slots[i]))
    later = sorted(range(2 * T), key=lambda i: (-share[slots[i][0]], slots[i]))
    while deficit > 0:
        placed = 0
        for i in order:
            if deficit and base[i] < caps[i]:
                base[i] += 1
                deficit -= 1
                placed += 1
        if deficit and not placed:
            return None
        order = later
    return base[:T], base[T:]


@SETTINGS
@given(data=st.data())
def test_vectorised_allocate_matches_plain_loop(data):
    T = data.draw(st.integers(1, 8))
    cap = st.lists(st.integers(0, 12), min_size=T, max_size=T)
    layout = WindowLayout(n_v=np.array(data.draw(cap)),
                          n_a=np.array(data.draw(cap)))
    weight = st.lists(st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.2, 0.45]),
                      min_size=T, max_size=T)
    s_v, s_a = np.array(data.draw(weight)), np.array(data.draw(weight))
    ratio = st.sampled_from([0.0, 0.15, 0.3, 0.5, 0.65, 1.0])
    r_v, r_a = data.draw(ratio), data.draw(ratio)
    totals = (layout.total_visual, layout.total_audio)

    want = plain_allocate(s_v, s_a, r_v, r_a, layout, totals)
    try:
        plan = allocate(s_v, s_a, r_v, r_a, layout, totals=totals)
    except InfeasibleBudgetError:
        assert want is None
        return
    assert plan.b_v.tolist() == want[0].tolist()
    assert plan.b_a.tolist() == want[1].tolist()


class RandomLogitOracle:
    """Stage-1 saliency and per-layer query logits drawn from small
    alphabets, so zero weights and tied scores are common. Logits cover a
    modality's original tokens and are indexed by the survivors' ordinals,
    as every oracle of the package does."""

    def __init__(self, seed, stream):
        self.seed = seed
        self.total = {m: stream.count(m) for m in (VISUAL, AUDIO)}

    def modality_saliency(self, modality, counts):
        rng = np.random.default_rng((self.seed, 0, modality))
        return rng.choice([0.0, 0.5, 1.0, 2.0], size=int(counts.sum()))

    def logits(self, layer, modality):
        rng = np.random.default_rng((self.seed, 1, layer, modality))
        return rng.choice([-1.0, 0.0, 0.0, 1.0, 3.0],
                          size=self.total[modality])

    def query_probs(self, layer, modality, ordinals):
        if len(ordinals) == 0:
            return np.zeros(0)
        return softmax(self.logits(layer, modality)[ordinals])


# schedules feasible at lambda 1.4 for every drawn ratio; one merges two
# middle boundaries, one puts the late boundary on the last layer
CONFIGS = [ModelConfig(layers=8, d_model=64, d_ff=256, n_heads=4,
                       boundaries=b)
           for b in ((2, 4, 5, 7), (3, 4, 4, 7), (2, 3, 5, 8))]


@SETTINGS
@given(data=st.data())
def test_pipeline_invariants_on_ragged_streams(data):
    stream, _ = data.draw(ragged_streams())
    config = data.draw(st.sampled_from(CONFIGS))
    ratio = st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.65])
    retention = RetentionSpec(r_v=data.draw(ratio), r_a=data.draw(ratio),
                              lambda_=1.4, tau=data.draw(st.sampled_from(
                                  [0.05, 0.1, 1.0])))
    oracle = data.draw(st.sampled_from([None, RandomLogitOracle]))
    if oracle is not None:
        oracle = oracle(data.draw(st.integers(0, 2**32 - 1)), stream)
    final, trace = run_pipeline(stream, config, retention, oracle=oracle)

    # recount the survivors of every layer from positions alone
    modality = dict(zip(stream.position.tolist(), stream.modality.tolist()))
    window = dict(zip(stream.position.tolist(), stream.window_id.tolist()))
    ordinal = {m: {p: i for i, p in
                   enumerate(stream.position[stream.rows_of(m)].tolist())}
               for m in (VISUAL, AUDIO)}

    def per_window(kept, m):
        return np.bincount([window[p] for p in kept if modality[p] == m],
                           minlength=trace.T)

    def topk_per_window(prev, layer, m, budget):
        """Each window's select_topk of the query logits of the m-tokens in
        prev, looked up at their ordinals among the modality's original
        positions; without an oracle every score ties."""
        tokens = [p for p in prev if modality[p] == m]
        logits = (oracle.logits(layer, m) if oracle is not None
                  else np.zeros(len(ordinal[m])))
        kept = []
        for t in range(trace.T):
            group = [p for p in tokens if window[p] == t]
            local = select_topk(logits[[ordinal[m][p] for p in group]],
                                int(budget[t]))
            kept += [group[i] for i in local]
        return kept

    survivors = trace.stage1.kept[stream.modality[trace.stage1.rows] != TEXT]
    plans = dict(trace.plans)
    selections = {sel.layer: sel for sel in trace.selections}
    for layer in range(1, trace.layers + 1):
        sel = selections.get(layer)
        if sel is not None:
            kept = sel.kept.tolist()
            assert kept == sorted(set(kept))
            assert set(kept) <= set(survivors.tolist())
            if layer in plans:
                plan, prev = plans[layer], survivors.tolist()
                assert per_window(kept, VISUAL).tolist() == plan.b_v.tolist()
                assert per_window(kept, AUDIO).tolist() == plan.b_a.tolist()
                assert sel.dropped_v.tolist() == \
                    (per_window(prev, VISUAL) - plan.b_v).tolist()
                assert sel.dropped_a.tolist() == \
                    (per_window(prev, AUDIO) - plan.b_a).tolist()
                assert kept == sorted(
                    topk_per_window(prev, layer, VISUAL, plan.b_v)
                    + topk_per_window(prev, layer, AUDIO, plan.b_a))
            else:
                assert kept == []
                assert sel.dropped_v.tolist() == \
                    per_window(survivors.tolist(), VISUAL).tolist()
                assert sel.dropped_a.tolist() == \
                    per_window(survivors.tolist(), AUDIO).tolist()
            survivors = sel.kept
        assert trace.kept_v[layer - 1] == per_window(survivors, VISUAL).sum()
        assert trace.kept_a[layer - 1] == per_window(survivors, AUDIO).sum()
        assert trace.kept_text[layer - 1] == stream.n_text
    assert trace.seq_len[0] <= stream.n
    assert np.all(np.diff(trace.seq_len) <= 0)
    assert np.array_equal(trace.seq_len,
                          trace.kept_v + trace.kept_a + trace.kept_text)
    means, slack = mean_retention(trace), retention_slack(trace)
    for name, r_m, total in (("visual", retention.r_v, trace.n_original[0]),
                             ("audio", retention.r_a, trace.n_original[1])):
        if total:
            assert abs(means[name] - r_m) <= slack[name]
    text = stream.rows_of(TEXT)
    assert final.position.tolist() == stream.position[text].tolist()
    assert np.all(final.modality == TEXT)


class AskedLogitOracle(RandomLogitOracle):
    """A RandomLogitOracle that records the ordinals each drop layer asks
    it to score."""

    def __init__(self, seed, stream):
        super().__init__(seed, stream)
        self.asked = {}

    def query_probs(self, layer, modality, ordinals):
        self.asked[layer, modality] = np.asarray(ordinals).tolist()
        return super().query_probs(layer, modality, ordinals)


class ConstantOracle:
    """Scores every survivor alike, so that every drop layer ranks ties,
    and records the ordinals each drop layer asks it to score."""

    def __init__(self, value):
        self.value = value
        self.asked = {}

    def modality_saliency(self, modality, counts):
        return None

    def query_probs(self, layer, modality, ordinals):
        self.asked[layer, modality] = np.asarray(ordinals).tolist()
        return np.full(len(ordinals), self.value)


@SETTINGS
@given(data=st.data())
def test_drop_layers_carry_each_modalitys_survivors(data):
    # visual and audio rows interleave inside windows and positions are not
    # row numbers, so a modality's survivors are not a run of the stream.
    # Each modality's surviving ordinals are followed here on their own:
    # every layer must score exactly them, weigh each window by the np.mean
    # of their scores and keep the positions of its per-window top-k,
    # concatenated and sorted. Scores are random or all tied (no oracle, or
    # a constant one); plans are the allocator's, or keep windows whole,
    # whole or empty, or mix the three
    stream, _ = data.draw(ragged_streams(interleave=True))
    config = data.draw(st.sampled_from(CONFIGS))
    ratio = st.sampled_from([0.1, 0.3, 0.5, 0.65])
    retention = RetentionSpec(r_v=data.draw(ratio), r_a=data.draw(ratio),
                              lambda_=1.4, tau=0.1)
    scoring = data.draw(st.sampled_from(["random", "uniform", "constant"]))
    oracle = {"random": lambda: AskedLogitOracle(
                  data.draw(st.integers(0, 2**32 - 1)), stream),
              "uniform": lambda: None,
              "constant": lambda: ConstantOracle(0.25)}[scoring]()
    budgets = data.draw(st.sampled_from(["allocated", "whole",
                                         "whole or none", "mixed"]))
    real_relevance, real_allocate = pipeline.window_relevance, pipeline.allocate
    means = []

    def recorded_relevance(means_v, means_a, layout, tau):
        means.append((means_v.tolist(), means_a.tolist()))
        return real_relevance(means_v, means_a, layout, tau)

    def drawn_allocate(s_v, s_a, r_v, r_a, layout, totals):
        plan = real_allocate(s_v, s_a, r_v, r_a, layout, totals=totals)
        if budgets == "allocated":
            return plan
        # per window: 0 keeps none, 1 all and 2 the allocator's budget
        kinds = {"whole": [1], "whole or none": [0, 1],
                 "mixed": [0, 1, 2]}[budgets]
        b = [np.choose(data.draw(st.lists(st.sampled_from(kinds),
                                          min_size=layout.T,
                                          max_size=layout.T)),
                       [0 * counts, counts, allocated])
             for allocated, counts in ((plan.b_v, layout.n_v),
                                       (plan.b_a, layout.n_a))]
        return BudgetPlan(b_v=b[0], b_a=b[1])

    pipeline.window_relevance = recorded_relevance
    pipeline.allocate = drawn_allocate
    try:
        _, trace = run_pipeline(stream, config, retention, oracle=oracle)
    finally:
        pipeline.window_relevance = real_relevance
        pipeline.allocate = real_allocate

    def scores_of(layer, m, ordinals):
        """The scores the layer was given, one per surviving ordinal."""
        n = len(ordinals)
        if scoring == "random":
            return softmax(oracle.logits(layer, m)[ordinals]) if n else \
                np.zeros(0)
        return np.full(n, 0.25 if scoring == "constant" else 1.0 / max(n, 1))

    rows = {m: np.flatnonzero(stream.modality == m) for m in (VISUAL, AUDIO)}
    stage1 = set(trace.stage1.rows.tolist())
    ordinals = {m: [i for i, r in enumerate(rows[m].tolist()) if r in stage1]
                for m in (VISUAL, AUDIO)}
    plans = dict(trace.plans)
    assert len(means) == len(trace.selections) - 1
    for sel, layer_means in zip(trace.selections[:-1], means):
        plan = plans[sel.layer]
        want = []
        for m, budget, got_means in ((VISUAL, plan.b_v, layer_means[0]),
                                     (AUDIO, plan.b_a, layer_means[1])):
            if oracle is not None:
                assert oracle.asked[sel.layer, m] == ordinals[m]
            scores = scores_of(sel.layer, m, ordinals[m])
            window = stream.window_id[rows[m]][ordinals[m]]
            kept = []
            for t in range(trace.T):
                group = np.flatnonzero(window == t)
                if group.size:
                    assert got_means[t] == np.mean(scores[group])
                local = select_topk(scores[group], int(budget[t]))
                if scoring != "random":  # all tied: the earliest tokens win
                    assert local.tolist() == list(range(int(budget[t])))
                kept += [ordinals[m][j] for j in group[local].tolist()]
            ordinals[m] = sorted(kept)
            want += stream.position[rows[m][ordinals[m]]].tolist()
        assert sel.kept.dtype == np.int64
        assert sel.kept.tolist() == sorted(want)


def repacked(data: bytes, cols: dict) -> bytes:
    """Container bytes with their columns, embeddings and header counts
    replaced by cols, a stream's fields as plain arrays of the same sizes:
    the bytes a writer without checks would emit for them."""
    (header_len,) = struct.unpack("<Q", data[4:12])
    header = json.loads(data[12 : 12 + header_len])
    header["counts"] = {name: int(np.count_nonzero(cols["modality"] == m))
                        for name, m in (("visual", VISUAL), ("audio", AUDIO),
                                        ("text", TEXT))}
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    raw += b" " * (-(12 + len(raw)) % 8)
    payload = b"".join(cols[key].astype("<i8").tobytes()
                       for key in ("modality", "window_id", "position"))
    payload += cols["embeddings"].astype("<f4").tobytes()
    return b"".join([data[:4], struct.pack("<Q", len(raw)), raw, payload,
                     data[12 + header_len + len(payload) :]])


def apply_fault(draw, cols: dict, t: int) -> tuple[str, str]:
    """One fault, drawn among those the stream has rows for, applied to
    cols in place. Returns the message of the constructor and of read_ots,
    whose header check for [0, t) comes first."""
    modality, window_id = cols["modality"], cols["window_id"]
    n, d = cols["embeddings"].shape
    text = np.flatnonzero(modality == TEXT).tolist()
    nontext = np.flatnonzero(modality != TEXT).tolist()
    # rows whose predecessor of the same modality lies past window 0
    after = [r for m in (VISUAL, AUDIO)
             for prev, r in itertools.pairwise(np.flatnonzero(modality == m))
             if window_id[prev] > 0]
    faults = ["code"] * (n > 0) + ["position"] * (n > 1)
    faults += ["text window", "nan text"] * bool(text)
    faults += ["negative window"] * bool(nontext)
    faults += ["step back"] * bool(after)
    assume(faults)
    fault = draw(st.sampled_from(faults))
    if fault == "code":
        r = draw(st.integers(0, n - 1))
        modality[r] = draw(st.sampled_from([-1, 3, 7, 2**40]))
        message = (f"1 of {n} modality codes are not 0, 1 or 2, the first "
                   f"at row {r}")
    elif fault == "position":
        r = draw(st.integers(1, n - 1))
        cols["position"][r] = cols["position"][r - 1] - draw(st.integers(0, 2))
        message = f"position not strictly increasing at row {r}"
    elif fault == "text window":
        r = draw(st.sampled_from(text))
        window_id[r] = draw(st.sampled_from([-2, 0, 1, t, 2**40]))
        message = f"text row {r} has window id {window_id[r]}; it must be -1"
    elif fault == "nan text":
        r = draw(st.sampled_from(text))
        cols["embeddings"][r, draw(st.integers(0, d - 1))] = \
            draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        message = f"text row {r} has a non-finite embedding"
    elif fault == "negative window":
        r = draw(st.sampled_from(nontext))
        window_id[r] = draw(st.sampled_from([-1, -2, -(2**40)]))
        name = "visual" if modality[r] == VISUAL else "audio"
        said = f"{name} row {r} has window id {window_id[r]}"
        return f"{said}; it must be >= 0", f"{said}, outside [0, {t})"
    else:
        r = draw(st.sampled_from(after))
        prev = max(q for q in range(r) if modality[q] == modality[r])
        window_id[r] = draw(st.integers(0, window_id[prev] - 1))
        name = "visual" if modality[r] == VISUAL else "audio"
        message = f"window_id decreases along {name} rows at row {r}"
    return message, message


@SETTINGS
@given(data=st.data())
def test_one_fault_is_refused_when_built_and_when_read(data):
    stream, _ = data.draw(ragged_streams())
    # a container's t may not exceed its token count
    assume(stream.window_id.max(initial=0) < max(1, stream.n))
    container = write_ots(stream)
    # unfaulted, the stream's container reads and runs through
    back, _, header = read_ots(container)
    final, _ = run_pipeline(back, CONFIGS[0], RetentionSpec(
        r_v=0.3, r_a=0.5, lambda_=1.4, tau=0.1), T=header["t"])
    assert final.position.tolist() == \
        stream.position[stream.rows_of(TEXT)].tolist()

    cols = {field.name: getattr(stream, field.name).copy()
            for field in dataclasses.fields(stream)}
    built, read = apply_fault(data.draw, cols, header["t"])
    with pytest.raises(StreamError) as refused:
        TokenStream(**cols)
    assert str(refused.value) == built
    with pytest.raises(ContainerFormatError) as unread:
        read_ots(repacked(container, cols))
    assert str(unread.value) == read
