import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from omniprefill.core import (
    AUDIO,
    MAX_GROUP,
    TEXT,
    VISUAL,
    InfeasibleScheduleError,
    ModelConfig,
    RetentionSpec,
    StreamError,
    TokenStream,
    WindowLayout,
)
from omniprefill import pipeline
from omniprefill.divprune import win_div_prune
from omniprefill.io import read_ots, write_ots
from omniprefill.pipeline import (
    MAX_SYNTH_ENTRIES,
    ContainerOracle,
    SynthSpec,
    SyntheticOracle,
    mean_retention,
    retention_slack,
    run_pipeline,
    stage1_saliency,
    synth_generate,
)
from omniprefill.relevance import window_relevance

QWEN25 = ModelConfig(layers=28, d_model=3584, d_ff=18944, n_heads=28,
                     boundaries=(16, 19, 21, 24))
DEFAULTS = RetentionSpec(r_v=0.30, r_a=0.65, lambda_=1.4, tau=0.1)


def request_container(T: int, n_v: int, n_a: int) -> bytes:
    """A container of T windows of n_v visual and n_a audio tokens with the
    sections a request reads: per-window saliency and layers 17, 19 and
    21's query logits."""
    spec = SynthSpec(seed=7, T=T, d=64, n_v=n_v, n_a=n_a, n_q=64)
    stream, synth = synth_generate(spec)
    sections = {}
    for m, name, n in ((VISUAL, "visual", n_v), (AUDIO, "audio", n_a)):
        for t in range(T):
            sections[f"saliency/w{t}/{name}"] = synth.saliency(t, m, n)
        for layer in (17, 19, 21):
            sections[f"query_logits/layer{layer}/{name}"] = \
                synth._query_logits(layer, m)
    return write_ots(stream, sections, T=T)


def traced_peak(call):
    """call()'s result and its tracemalloc peak, in bytes, above what was
    traced when it started."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


def container_request_peak(T: int, n_v: int, n_a: int) -> int:
    """tracemalloc peak, in bytes, of read_ots, ContainerOracle and
    run_pipeline on request_container(T, n_v, n_a). The measured request's
    stage-1 and layer picks must equal a first request's."""
    data = request_container(T, n_v, n_a)

    def request():
        stream, sections, header = read_ots(data)
        oracle = ContainerOracle(sections, header["t"])
        return run_pipeline(stream, QWEN25, DEFAULTS, oracle=oracle)[1]

    want = request()
    trace, peak = traced_peak(request)
    assert np.array_equal(trace.stage1.kept, want.stage1.kept)
    assert len(trace.selections) == len(want.selections)
    for a, b in zip(trace.selections, want.selections):
        assert a.layer == b.layer
        assert np.array_equal(a.kept, b.kept)
    return peak


def request_phase_peaks(monkeypatch, T: int, n_v: int, n_a: int) -> list:
    """(phase, peak) for each phase of one request on request_container(T,
    n_v, n_a), in call order: stage 1 (win_div_prune), the survivor carry
    (_survivors) and each drop layer (_drop_layer). A phase's peak is its
    tracemalloc peak, in bytes, above what was traced when the request
    started."""
    data = request_container(T, n_v, n_a)

    def request():
        stream, sections, header = read_ots(data)
        oracle = ContainerOracle(sections, header["t"])
        return run_pipeline(stream, QWEN25, DEFAULTS, oracle=oracle)[1]

    request()
    peaks = []

    def phase(name, call):
        def traced(*args, **kwargs):
            tracemalloc.reset_peak()
            result = call(*args, **kwargs)
            peaks.append((name, tracemalloc.get_traced_memory()[1] - base))
            return result
        return traced

    for name in ("win_div_prune", "_survivors", "_drop_layer"):
        monkeypatch.setattr(pipeline, name, phase(name, getattr(pipeline, name)))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        request()
    finally:
        tracemalloc.stop()
    return peaks


class TestSynthGenerate:
    def test_same_seed_same_stream(self):
        spec = SynthSpec(seed=5, T=3, d=16, n_v=10, n_a=4, n_q=6)
        a, _ = synth_generate(spec)
        b, _ = synth_generate(spec)
        assert np.array_equal(a.embeddings, b.embeddings)
        assert np.array_equal(a.modality, b.modality)
        assert np.array_equal(a.window_id, b.window_id)

    def test_seed_changes_stream(self):
        base = SynthSpec(seed=5, T=3, d=16, n_v=10, n_a=4, n_q=6)
        other = SynthSpec(seed=6, T=3, d=16, n_v=10, n_a=4, n_q=6)
        a, _ = synth_generate(base)
        b, _ = synth_generate(other)
        assert not np.array_equal(a.embeddings, b.embeddings)

    def test_layout_shape(self):
        spec = SynthSpec(seed=0, T=4, d=8, n_v=7, n_a=3, n_q=5)
        stream, _ = synth_generate(spec)
        assert stream.n == 4 * 10 + 5
        lay = WindowLayout.from_stream(stream)
        assert lay.n_v.tolist() == [7] * 4
        assert lay.n_a.tolist() == [3] * 4
        # window-major interleave: window 0 visual rows come first
        assert stream.modality[0] == VISUAL
        assert stream.modality[7] == AUDIO
        assert stream.modality[-1] == TEXT

    def test_oracle_answers_are_stable(self):
        spec = SynthSpec(seed=9, T=2, d=8, n_v=6, n_a=3, n_q=4)
        _, oracle = synth_generate(spec)
        a1 = oracle.stage1_attention(0, VISUAL, 6)
        a2 = oracle.stage1_attention(0, VISUAL, 6)
        assert np.array_equal(a1, a2)
        # answers do not depend on query order
        _, oracle2 = synth_generate(spec)
        oracle2.stage1_attention(1, AUDIO, 3)
        assert np.array_equal(oracle2.stage1_attention(0, VISUAL, 6), a1)

    def test_stage1_attention_is_row_stochastic(self):
        spec = SynthSpec(seed=3, T=1, d=8, n_v=5, n_a=2, n_q=1)
        _, oracle = synth_generate(spec)
        attn = oracle.stage1_attention(0, VISUAL, 5)
        assert attn.shape == (5, 5)
        assert np.allclose(attn.sum(axis=1), 1.0, atol=1e-9)

    def test_query_probs_are_selection_invariant(self):
        # scoring a subset must equal scoring everyone and renormalizing,
        # because logits are drawn once at full length
        spec = SynthSpec(seed=4, T=2, d=8, n_v=6, n_a=3, n_q=4)
        _, oracle = synth_generate(spec)
        full = oracle.query_probs(17, VISUAL, np.arange(12))
        sub_idx = np.array([0, 3, 4, 9])
        sub = oracle.query_probs(17, VISUAL, sub_idx)
        renorm = full[sub_idx] / full[sub_idx].sum()
        assert np.allclose(sub, renorm, atol=1e-9)

    def test_planted_window_dominates_relevance(self):
        spec = SynthSpec(seed=1, T=5, d=8, n_v=12, n_a=4, n_q=3,
                         planted_windows=(3,), planted_gain=9.0)
        _, oracle = synth_generate(spec)
        lay = WindowLayout(n_v=np.full(5, 12), n_a=np.full(5, 4))
        sv = oracle.query_probs(17, VISUAL, np.arange(60))
        sa = oracle.query_probs(17, AUDIO, np.arange(20))
        s_v, s_a = window_relevance(sv.reshape(5, 12).mean(axis=1),
                                    sa.reshape(5, 4).mean(axis=1), lay,
                                    tau=0.1)
        # every window holds both modalities: its weight is their mean
        assert int(np.argmax(0.5 * (s_v + s_a))) == 3

    def test_unplanted_is_roughly_uniform(self):
        spec = SynthSpec(seed=2, T=4, d=8, n_v=50, n_a=20, n_q=3)
        _, oracle = synth_generate(spec)
        lay = WindowLayout(n_v=np.full(4, 50), n_a=np.full(4, 20))
        sv = oracle.query_probs(17, VISUAL, np.arange(200))
        sa = oracle.query_probs(17, AUDIO, np.arange(80))
        s_v, s_a = window_relevance(sv.reshape(4, 50).mean(axis=1),
                                    sa.reshape(4, 20).mean(axis=1), lay,
                                    tau=1.0)
        s = 0.5 * (s_v + s_a)
        assert s.max() - s.min() < 0.2

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(seed=0, T=0, d=4, n_v=1, n_a=1, n_q=1)
        with pytest.raises(ValueError):
            SynthSpec(seed=0, T=2, d=4, n_v=1, n_a=1, n_q=1,
                      planted_windows=(5,))

    @pytest.mark.parametrize("sizes, message", [
        (dict(n_v=MAX_GROUP + 1), "n_v and n_a must be at most 4096"),
        (dict(n_a=MAX_GROUP + 1), "n_v and n_a must be at most 4096"),
        (dict(T=11, n_v=0, n_a=0, n_q=10), "T at most the 10 tokens"),
        (dict(T=10**9, n_v=0, n_a=0), "T at most the 1 tokens"),
        (dict(n_q=MAX_SYNTH_ENTRIES + 1),
         "tokens x d at most 134217728; got T=1 d=1"),
        (dict(T=2**27, n_v=1), "tokens x d at most 134217728"),
        # 2^27 + 1 = 1657009 * 9^2 stage-1 attention draws
        (dict(T=1657009, n_v=9), r"draws T x \(n_v\^2 \+ n_a\^2\) must "
         r"be at most 134217728; got 134217729 for T=1657009 n_v=9 n_a=0$"),
        (dict(T=16000, n_v=MAX_GROUP, n_a=MAX_GROUP),
         "got 536870912000 for T=16000"),
    ], ids=["visual", "audio", "windows-past-text", "billion-windows",
            "entries", "entries-by-windows", "draws", "draws-long"])
    def test_sizes_past_bounds_rejected(self, sizes, message):
        # a spec is only data until synth_generate runs, so a bound is
        # tested at its value plus one without drawing anything
        base = dict(seed=0, T=1, d=1, n_v=0, n_a=0, n_q=1)
        with pytest.raises(ValueError, match=message):
            SynthSpec(**{**base, **sizes})

    def test_sizes_at_bounds_accepted(self):
        base = dict(seed=0, T=1, d=1, n_v=0, n_a=0, n_q=1)
        for sizes in (dict(n_v=MAX_GROUP, n_a=MAX_GROUP),
                      dict(T=10, n_q=10),
                      dict(n_q=MAX_SYNTH_ENTRIES),
                      dict(n_q=MAX_SYNTH_ENTRIES // 4, d=4),
                      dict(T=8, n_v=MAX_GROUP)):  # 8 * 4096^2 draws
            SynthSpec(**{**base, **sizes})

    @pytest.mark.parametrize("gain", [math.nan, -1.0])
    def test_nan_or_negative_gain_rejected(self, gain):
        with pytest.raises(ValueError, match="planted_gain must be "
                                             "non-negative"):
            SynthSpec(seed=0, T=2, d=4, n_v=1, n_a=1, n_q=1,
                      planted_windows=(1,), planted_gain=gain)

    def test_provenance_names_generator(self):
        spec = SynthSpec(seed=0, T=2, d=4, n_v=1, n_a=1, n_q=1)
        prov = spec.provenance()
        assert "philox" in prov["algorithm"].lower()
        assert prov["seed"] == 0


class TestRunPipeline:
    def test_trace_shape_matches_schedule(self):
        spec = SynthSpec(seed=7, T=4, d=64, n_v=288, n_a=50, n_q=64)
        final, trace = run_pipeline(spec, QWEN25, DEFAULTS)
        sl = trace.seq_len.tolist()
        assert sl[:16] == [724] * 16        # stage 1 keeps 4*(120+45)+64
        assert sl[16:18] == [683] * 2
        assert sl[18:20] == [556] * 2
        assert sl[20:23] == [211] * 3
        assert sl[23:] == [64] * 5
        assert final.n == 64
        assert bool((final.modality == TEXT).all())

    def test_decreases_only_at_drop_layers(self):
        spec = SynthSpec(seed=8, T=3, d=16, n_v=40, n_a=10, n_q=12)
        _, trace = run_pipeline(spec, QWEN25, DEFAULTS)
        sl = trace.seq_len
        drops = [l for l in range(2, 29) if sl[l - 1] < sl[l - 2]]
        assert drops == [17, 19, 21, 24]
        assert np.all(np.diff(sl) <= 0)

    def test_text_count_constant(self):
        spec = SynthSpec(seed=8, T=3, d=16, n_v=40, n_a=10, n_q=12)
        _, trace = run_pipeline(spec, QWEN25, DEFAULTS)
        assert np.all(trace.kept_text == 12)

    def test_mean_retention_within_slack(self):
        spec = SynthSpec(seed=7, T=4, d=64, n_v=288, n_a=50, n_q=64)
        _, trace = run_pipeline(spec, QWEN25, DEFAULTS)
        mr = mean_retention(trace)
        slack = retention_slack(trace)
        assert abs(mr["visual"] - 0.30) <= slack["visual"]
        assert abs(mr["audio"] - 0.65) <= slack["audio"]

    def test_per_layer_schedule_agreement(self):
        # with the uniform oracle, each modality's kept count tracks its
        # schedule to within one token per window plus the rounding seat
        spec = SynthSpec(seed=7, T=4, d=64, n_v=288, n_a=50, n_q=64)
        _, trace = run_pipeline(spec, QWEN25, DEFAULTS)
        n_v, n_a, _ = trace.n_original
        for l in range(28):
            want_v = trace.schedule_v.per_layer_trr[l] * n_v
            want_a = trace.schedule_a.per_layer_trr[l] * n_a
            assert abs(int(trace.kept_v[l]) - want_v) <= trace.T + 1
            assert abs(int(trace.kept_a[l]) - want_a) <= trace.T + 1

    def test_nested_survival(self):
        spec = SynthSpec(seed=13, T=3, d=16, n_v=30, n_a=8, n_q=6)
        _, trace = run_pipeline(spec, QWEN25, DEFAULTS)
        prev = set(trace.stage1.kept.tolist())
        for sel in trace.selections:
            now = set(sel.kept.tolist())
            assert now <= prev
            prev = now

    def test_deterministic(self):
        spec = SynthSpec(seed=21, T=3, d=16, n_v=30, n_a=8, n_q=6)
        f1, t1 = run_pipeline(spec, QWEN25, DEFAULTS)
        f2, t2 = run_pipeline(spec, QWEN25, DEFAULTS)
        assert np.array_equal(f1.embeddings, f2.embeddings)
        assert np.array_equal(t1.seq_len, t2.seq_len)
        for (l1, p1), (l2, p2) in zip(t1.plans, t2.plans):
            assert l1 == l2
            assert np.array_equal(p1.b, p2.b)

    def test_planted_windows_win_budget(self):
        ret = RetentionSpec(r_v=0.30, r_a=0.65, lambda_=1.4, tau=0.01)
        spec = SynthSpec(seed=3, T=6, d=32, n_v=48, n_a=12, n_q=8,
                         planted_windows=(1, 4), planted_gain=8.0)
        _, trace = run_pipeline(spec, QWEN25, ret)
        assert trace.plans, "drop layers must allocate budgets"
        for layer, plan in trace.plans:
            worst_planted = min(int(plan.b[t]) for t in (1, 4))
            best_other = max(int(plan.b[t]) for t in range(6)
                             if t not in (1, 4))
            assert worst_planted >= best_other, layer

    def test_full_retention_raises(self):
        spec = SynthSpec(seed=0, T=2, d=8, n_v=6, n_a=2, n_q=3)
        with pytest.raises(InfeasibleScheduleError):
            run_pipeline(spec, QWEN25,
                         RetentionSpec(r_v=1.0, r_a=1.0, lambda_=1.0, tau=0.1))

    def test_boundary_retention_keeps_everything_until_late(self):
        # largest reachable mean: everything survives to L_l, then text only
        r = 23 / 28
        ret = RetentionSpec(r_v=r, r_a=r, lambda_=28 / 23, tau=0.1)
        spec = SynthSpec(seed=1, T=2, d=8, n_v=6, n_a=2, n_q=3)
        _, trace = run_pipeline(spec, QWEN25, ret)
        sl = trace.seq_len.tolist()
        assert sl[:23] == [19] * 23
        assert sl[23:] == [3] * 5

    def test_zero_retention(self):
        ret = RetentionSpec(r_v=0.0, r_a=0.0, lambda_=1.4, tau=0.1)
        spec = SynthSpec(seed=1, T=2, d=8, n_v=6, n_a=2, n_q=3)
        _, trace = run_pipeline(spec, QWEN25, ret)
        assert np.all(trace.seq_len == 3)
        mr = mean_retention(trace)
        assert mr["visual"] == 0.0
        assert mr["audio"] == 0.0

    def test_tiny_windows_survive_budget_squeeze(self):
        # per-window floors keep 1 of 2 audio tokens (50%), well under the
        # middle schedule's 84.6%; the drop-layer budget must shrink to what
        # actually survived instead of failing
        spec = SynthSpec(seed=17, T=2, d=8, n_v=5, n_a=2, n_q=3)
        _, trace = run_pipeline(spec, QWEN25, DEFAULTS)
        assert int(trace.seq_len[16]) <= int(trace.seq_len[15])
        for layer, plan in trace.plans:
            assert int(plan.b.sum()) >= 0
        assert trace.seq_len[-1] == 3

    def test_stream_input_with_uniform_oracle(self):
        spec = SynthSpec(seed=5, T=2, d=8, n_v=10, n_a=4, n_q=3)
        stream, _ = synth_generate(spec)
        _, trace = run_pipeline(stream, QWEN25, DEFAULTS, oracle=None)
        # floor(0.42*10)=4 visual and floor(0.91*4)=3 audio per window
        assert trace.seq_len[0] == 2 * (4 + 3) + 3
        assert trace.seq_len[-1] == 3

    @pytest.mark.parametrize("n_a", [4, 0], ids=["both", "no-audio"])
    def test_no_oracle_means_uniform_signals(self, n_a):
        # oracle=None runs as an oracle that weighs every stage-1 token 1
        # and scores a modality's n survivors 1/n each at every drop layer
        class Uniform:
            def modality_saliency(self, modality, counts):
                return np.ones(int(counts.sum()))

            def query_probs(self, layer, modality, ordinals):
                return np.full(len(ordinals), 1.0 / max(len(ordinals), 1))

        spec = SynthSpec(seed=5, T=3, d=8, n_v=10, n_a=n_a, n_q=3)
        stream, _ = synth_generate(spec)
        _, none = run_pipeline(stream, QWEN25, DEFAULTS, oracle=None)
        _, flat = run_pipeline(stream, QWEN25, DEFAULTS, oracle=Uniform())
        assert none.stage1.rows.tolist() == flat.stage1.rows.tolist()
        assert [s.kept.tolist() for s in none.selections] \
            == [s.kept.tolist() for s in flat.selections]
        assert [p.b.tolist() for _, p in none.plans] \
            == [p.b.tolist() for _, p in flat.plans]

    def test_explicit_window_count(self):
        # trailing empty windows count toward T; a T that leaves a window
        # id outside [0, T) is refused
        spec = SynthSpec(seed=5, T=2, d=8, n_v=10, n_a=4, n_q=3)
        stream, _ = synth_generate(spec)
        _, inferred = run_pipeline(stream, QWEN25, DEFAULTS)
        _, same = run_pipeline(stream, QWEN25, DEFAULTS, T=2)
        _, wider = run_pipeline(stream, QWEN25, DEFAULTS, T=5)
        assert inferred.T == same.T == 2 and wider.T == 5
        assert np.array_equal(same.seq_len, inferred.seq_len)
        assert np.array_equal(wider.seq_len, inferred.seq_len)
        for bad in (1, 0):
            with pytest.raises(StreamError, match="window id 1 lies outside"):
                run_pipeline(stream, QWEN25, DEFAULTS, T=bad)

    def test_huge_positions_stay_small(self):
        # survivors travel as indices into each modality's rows, so a
        # position of 2**40 costs nothing extra; a table indexed by position
        # would ask for 8 TiB
        spec = SynthSpec(seed=5, T=2, d=8, n_v=10, n_a=4, n_q=3)
        stream, _ = synth_generate(spec)
        far = stream.position.copy()
        far[-1] = 2**40
        far_stream = TokenStream(embeddings=stream.embeddings,
                                 modality=stream.modality,
                                 window_id=stream.window_id, position=far)
        _, near = run_pipeline(stream, QWEN25, DEFAULTS)
        tracemalloc.start()
        try:
            final, trace = run_pipeline(far_stream, QWEN25, DEFAULTS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert final.position[-1] == 2**40
        assert np.array_equal(trace.seq_len, near.seq_len)
        for a, b in zip(trace.selections, near.selections):
            assert np.array_equal(a.kept, b.kept)

    def test_stage1_holds_row_numbers_once(self):
        # a generated stream's positions are its row numbers, so stage 1's
        # survivors are one read-only array, as kept and as rows
        _, trace = run_pipeline(
            SynthSpec(seed=3, T=4, d=8, n_v=12, n_a=5, n_q=6), QWEN25,
            DEFAULTS)
        stage1 = trace.stage1
        assert stage1.kept is stage1.rows
        assert not stage1.rows.flags.writeable

    def test_stage1_kept_are_positions_of_rows(self):
        # positions that are not the row numbers: shifted, or starting at 0
        # with a gap before the last row. kept maps the same rows through
        # them
        stream, _ = synth_generate(
            SynthSpec(seed=3, T=4, d=8, n_v=12, n_a=5, n_q=6))
        want = win_div_prune(stream, WindowLayout.from_stream(stream), None,
                             DEFAULTS).rows
        gap = stream.position.copy()
        gap[-1] += 1
        for position in (stream.position + 5, gap):
            moved = TokenStream(embeddings=stream.embeddings,
                                modality=stream.modality,
                                window_id=stream.window_id, position=position)
            _, trace = run_pipeline(moved, QWEN25, DEFAULTS)
            stage1 = trace.stage1
            assert np.array_equal(stage1.rows, want)
            assert stage1.kept is not stage1.rows
            assert np.array_equal(stage1.kept, position[stage1.rows])

    def test_container_stream_peak_memory(self):
        # a container read by read_ots hands the engine zero-copy views, as
        # the benchmark does, so the peak is the engine's own arrays: the
        # stage-1 chunks, the survivors and what each layer builds. The
        # bound was set from the peak measured on this stream, 1.60 MiB
        # before drop layers carried survivor positions in place of the
        # modality row maps and stage 1 kept float32 saliency and rows, and
        # 1.32 MiB after; it sits between the two
        assert container_request_peak(T=64, n_v=288, n_a=50) < 1.45 * 2**20

    def test_long_clip_container_peak_memory(self):
        # the bench's long-clip shape, whose peak falls in stage 1's chunk
        # loop or layer 19. The bound was set from the peak measured on this
        # stream, 4.98 MiB when stage 1 built its survivors from per-chunk
        # lists and held them twice, as kept and as rows, and 4.40 MiB with
        # one pick mask and one array; it sits between the two
        assert container_request_peak(T=512, n_v=288, n_a=50) < 4.7 * 2**20

    def test_long_clip_narrow_survivors_peak_memory(self):
        # the same shape. The bound was set from the peak measured on this
        # stream, 4.40 MiB when stage 1 held an int64 row index and its
        # visual distance block into the audio pass and each drop layer an
        # int64 copy of the survivors' positions, and 3.76 MiB with an int32
        # index, a block per modality and the previous kept array carried;
        # it sits between the two
        assert container_request_peak(T=512, n_v=288, n_a=50) < 4.0 * 2**20

    def test_bench_many_windows_container_peak_memory(self):
        # the bench's many-windows shape, 2,048 windows of 16 visual and 4
        # audio tokens. The bound was set from the peak measured on this
        # stream, 1.92 MiB with int64 survivor positions copied at every
        # drop layer and 1.76 MiB with int32 ordinals and the previous kept
        # array carried; it sits between the two
        assert container_request_peak(T=2048, n_v=16, n_a=4) < 1.84 * 2**20

    def test_long_clip_phase_peak_memory(self, monkeypatch):
        # each phase of the long-clip request bounded on its own, so that a
        # regression names its phase. The bounds sit between the peaks
        # measured before and after stage 1 held an int32 row index and a
        # distance block per modality, and the drop layers carried int32
        # ordinals beside the previous kept array: stage 1 4.40 -> 3.76 MiB,
        # the survivor carry 3.51 -> 1.68, layers 17, 19 and 21
        # 4.07/4.34/4.14 -> 3.19/3.51/3.48
        peaks = request_phase_peaks(monkeypatch, T=512, n_v=288, n_a=50)
        assert [name for name, _ in peaks] == \
            ["win_div_prune", "_survivors"] + 3 * ["_drop_layer"]
        (_, stage1), (_, carry), *layers = peaks
        assert stage1 < 3.85 * 2**20
        assert carry < 2.6 * 2**20
        for _, peak in layers:
            assert peak < 3.8 * 2**20
            # the request's peak is stage 1's
            assert peak < stage1

    def test_many_windows_phase_peak_memory(self, monkeypatch):
        # the bench's many-windows shape, whose request peak falls in layer
        # 21, bounded per drop layer. The bound sits between layer 21's
        # peaks measured when each drop layer held the two flat score
        # vectors across allocate, 1.76 MiB, and when it held int64
        # within-window ranks of both modalities beside the gathered score
        # blocks, 1.86 MiB; with the blocks alone it is 1.74 MiB
        peaks = request_phase_peaks(monkeypatch, T=2048, n_v=16, n_a=4)
        assert [name for name, _ in peaks] == \
            ["win_div_prune", "_survivors"] + 3 * ["_drop_layer"]
        for _, peak in peaks[2:]:
            assert peak < 1.80 * 2**20

    def test_many_windows_container_peak_memory(self):
        # a table of 1,030 sections: the peak counts the read, so it counts
        # what the request keeps of the table. The bound was set from the
        # peak measured on this stream, 0.93 MiB when read_ots kept the
        # parsed table in the header and a view per section, and 0.60 MiB
        # when the sections became a mapping over one view; it sits between
        assert container_request_peak(T=512, n_v=16, n_a=4) < 0.76 * 2**20

    def test_many_windows_read_peak_memory(self):
        # read_ots alone on the bench's many-windows shape, a table of 4,102
        # sections. The bound was set from the peak measured on this
        # stream, 2.05 MiB when the table was a list of one object per
        # section and 1.30 MiB with the columnar table; it sits between
        data = request_container(T=2048, n_v=16, n_a=4)
        read_ots(data)
        (stream, sections, header), peak = traced_peak(lambda: read_ots(data))
        assert len(sections) == 4102 and header["t"] == 2048
        assert peak < 1.65 * 2**20

    def test_windows_out_of_order_rejected(self):
        # every stage ranks window-major runs of each modality's rows; a
        # stream whose window ids step back cannot be built
        spec = SynthSpec(seed=5, T=2, d=8, n_v=2, n_a=1, n_q=1)
        stream, _ = synth_generate(spec)
        with pytest.raises(StreamError, match="window_id decreases along "
                                              "visual rows at row 3"):
            TokenStream(embeddings=stream.embeddings,
                        modality=stream.modality,
                        window_id=np.array([1, 1, 1, 0, 0, 0, -1]),
                        position=stream.position)


class TestContainerOracle:
    def test_saliency_sections_feed_stage1(self):
        spec = SynthSpec(seed=6, T=2, d=8, n_v=5, n_a=2, n_q=3)
        stream, synth = synth_generate(spec)
        sections = {}
        for t in range(2):
            sections[f"saliency/w{t}/visual"] = synth.saliency(t, VISUAL, 5)
            sections[f"saliency/w{t}/audio"] = synth.saliency(t, AUDIO, 2)
        for layer in (17, 19, 21):
            for name, mod, count in (("visual", VISUAL, 10),
                                     ("audio", AUDIO, 4)):
                key = f"query_logits/layer{layer}/{name}"
                sections[key] = synth._query_logits(layer, mod)
        oracle = ContainerOracle(held(sections, stream, 2), T=2)
        _, via_container = run_pipeline(stream, QWEN25, DEFAULTS,
                                        oracle=oracle)
        _, via_synth = run_pipeline(spec, QWEN25, DEFAULTS)
        assert np.array_equal(via_container.seq_len, via_synth.seq_len)
        assert np.array_equal(via_container.stage1.kept, via_synth.stage1.kept)

    def test_missing_sections_fall_back_to_uniform(self):
        spec = SynthSpec(seed=6, T=2, d=8, n_v=5, n_a=2, n_q=3)
        stream, _ = synth_generate(spec)
        oracle = ContainerOracle(held({}, stream, 2), T=2)
        _, trace = run_pipeline(stream, QWEN25, DEFAULTS, oracle=oracle)
        assert trace.seq_len[-1] == 3

    def test_wrong_length_section_rejected(self):
        stream, _ = synth_generate(SynthSpec(seed=0, T=1, d=2, n_v=5, n_a=0,
                                             n_q=1))
        sections = held({"saliency/w0/visual": np.ones(3)}, stream, 1)
        oracle = ContainerOracle(sections, T=1)
        with pytest.raises(ValueError, match="window 0 has 3 entries, "
                                             "group holds 5"):
            oracle.modality_saliency(VISUAL, np.array([5]))


    def test_first_wrong_length_is_the_lowest_visual_window(self):
        # visual windows in ascending order come before every audio window
        spec = SynthSpec(seed=6, T=6, d=8, n_v=5, n_a=2, n_q=3)
        stream, synth = synth_generate(spec)
        sections = {}
        for t in range(6):
            sections[f"saliency/w{t}/visual"] = synth.saliency(t, VISUAL, 5)
            sections[f"saliency/w{t}/audio"] = synth.saliency(t, AUDIO, 2)
        sections["saliency/w0/audio"] = np.ones(1)
        sections["saliency/w5/visual"] = np.ones(3)
        layout = WindowLayout.from_stream(stream, 6)
        oracle = ContainerOracle(held(sections, stream, 6), T=6)
        with pytest.raises(StreamError, match="saliency section for window 5 "
                                              "has 3 entries, group holds 5"):
            stage1_saliency(oracle, layout)

    def test_one_vector_per_modality(self):
        counts = np.array([2, 0, 3, 1])
        stream, _ = synth_generate(SynthSpec(seed=0, T=4, d=2, n_v=0, n_a=3,
                                             n_q=1))
        sections = {"saliency/w0/audio": np.float32([0.5, 2.0]),
                    "saliency/w1/audio": np.float32([7.0]),  # empty window
                    "saliency/w3/audio": np.float32([3.0])}
        oracle = ContainerOracle(held(sections, stream, 4), T=4)
        # window 2 has no section and weighs 1; window 1 holds no rows
        vec = oracle.modality_saliency(AUDIO, counts)
        assert vec.dtype == np.float32
        assert vec.tolist() == [0.5, 2.0, 1.0, 1.0, 1.0, 3.0]
        assert oracle.modality_saliency(VISUAL, counts) is None
        # of two wrong lengths, the lower window is reported
        sections["saliency/w0/audio"] = np.ones(3)
        sections["saliency/w3/audio"] = np.ones(2)
        oracle = ContainerOracle(held(sections, stream, 4), T=4)
        with pytest.raises(StreamError, match="window 0 has 3 entries"):
            oracle.modality_saliency(AUDIO, counts)

    @staticmethod
    def ragged_container(seed, dtype, wrong=()):
        """A stream of 9 windows with random visual and audio counts, its
        saliency sections (float32-representable values of dtype), some
        windows without one and one section for an empty window; a
        (modality, window) in wrong gets one entry too many."""
        rng = np.random.default_rng(seed)
        T = 9
        counts = {VISUAL: rng.integers(0, 5, T), AUDIO: rng.integers(0, 3, T)}
        counts[VISUAL][seed % T] = 0  # an empty window
        share = 1.0 if seed % 3 == 0 else 0.6  # some windows have none
        modality, window_id, sections = [], [], {}
        for t in range(T):
            for m in (VISUAL, AUDIO):
                modality += [m] * int(counts[m][t])
                window_id += [t] * int(counts[m][t])
        modality += [TEXT] * 3
        window_id += [-1] * 3
        for m, name in ((VISUAL, "visual"), (AUDIO, "audio")):
            for t in range(T):
                k = int(counts[m][t]) + ((m, t) in wrong)
                if rng.random() < share or (m, t) in wrong:
                    values = rng.random(k).astype(np.float32).astype(dtype)
                    sections[f"saliency/w{t}/{name}"] = values
        sections[f"saliency/w{seed % T}/visual"] = np.ones(2, dtype=dtype)
        n = len(modality)
        stream = TokenStream(
            embeddings=rng.standard_normal((n, 4)).astype(np.float32),
            modality=np.array(modality), window_id=np.array(window_id),
            position=np.arange(n))
        return stream, counts, sections, T

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", range(6))
    def test_container_mapping_matches_plain_dict(self, seed, dtype):
        # the container's vector is the plain dict walked window by window,
        # in float32 whatever dtype the sections were written from
        stream, counts, sections, T = self.ragged_container(seed, dtype)
        _, mapping, header = read_ots(write_ots(stream, sections, T=T))
        layout = WindowLayout.from_stream(stream, header["t"])
        pair = stage1_saliency(ContainerOracle(mapping, T), layout)
        for m, got in zip((VISUAL, AUDIO), pair):
            want = plain_modality_saliency(sections, m, counts[m])
            if want is None:
                assert got is None
                continue
            assert got.dtype == np.float32
            assert got.tolist() == want.tolist()
        if seed % 3 == 0:  # every window has its section
            assert all(vec is not None for vec in pair)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", range(6))
    def test_container_mapping_errors_like_plain_dict(self, seed, dtype):
        # two wrong audio windows and a wrong visual window after both:
        # visual is asked first, so its window is the one reported
        stream, counts, sections, T = self.ragged_container(
            seed, dtype, wrong={(AUDIO, 1), (AUDIO, 4), (VISUAL, 7)})
        _, mapping, header = read_ots(write_ots(stream, sections, T=T))
        layout = WindowLayout.from_stream(stream, header["t"])
        with pytest.raises(StreamError) as info:
            stage1_saliency(ContainerOracle(mapping, T), layout)
        m, window = ((VISUAL, 7) if counts[VISUAL][7] else
                     (AUDIO, 1) if counts[AUDIO][1] else (AUDIO, 4))
        name = "visual" if m == VISUAL else "audio"
        assert str(info.value) == (
            f"saliency section for window {window} has "
            f"{sections[f'saliency/w{window}/{name}'].size} entries, group "
            f"holds {counts[m][window]}")

    def test_synthetic_vector_is_its_windows_in_order(self):
        spec = SynthSpec(seed=6, T=3, d=8, n_v=4, n_a=2, n_q=3)
        _, synth = synth_generate(spec)
        got = synth.modality_saliency(AUDIO, np.array([2, 2, 2]))
        want = np.concatenate([synth.saliency(t, AUDIO, 2) for t in range(3)])
        assert got.tolist() == want.tolist()


def held(sections: dict, stream: TokenStream, T: int):
    """sections as a container holds them: in float32, in the Sections
    mapping read_ots gives for stream written with T windows."""
    return read_ots(write_ots(stream, sections, T=T))[1]


def plain_modality_saliency(sections: dict, m: int, counts: np.ndarray):
    """ContainerOracle.modality_saliency walked over a plain dict: each
    non-empty window's section, or its count of ones, concatenated in
    float32; None when no such window has a section."""
    name = "visual" if m == VISUAL else "audio"
    vecs = [sections.get(f"saliency/w{t}/{name}")
            for t in np.flatnonzero(counts).tolist()]
    if all(vec is None for vec in vecs):
        return None
    return np.concatenate([np.ones(n) if vec is None else vec for vec, n
                           in zip(vecs, counts[counts > 0].tolist())]
                          ).astype(np.float32)


class VectorOracle:
    """Hands stage 1 a fixed vector per modality (None for none) and leaves
    the drop layers' scores uniform."""

    def __init__(self, vectors):
        self.vectors = vectors

    def modality_saliency(self, modality, counts):
        return self.vectors.get(modality)

    def query_probs(self, layer, modality, ordinals):
        return None


class TestStage1Saliency:
    @pytest.mark.parametrize("extra", [1, -1], ids=["long", "short"])
    def test_wrong_length_vector_names_modality_and_lengths(self, extra):
        spec = SynthSpec(seed=6, T=3, d=8, n_v=5, n_a=2, n_q=3)
        stream, _ = synth_generate(spec)
        layout = WindowLayout.from_stream(stream)
        oracle = VectorOracle({VISUAL: np.ones(15),
                               AUDIO: np.ones(6 + extra)})
        with pytest.raises(StreamError, match=rf"audio saliency has shape "
                                              rf"\({6 + extra},\), the stream "
                                              rf"holds 6 audio rows"):
            win_div_prune(stream, layout, stage1_saliency(oracle, layout),
                          DEFAULTS)
        with pytest.raises(StreamError, match="audio saliency"):
            run_pipeline(stream, QWEN25, DEFAULTS, oracle=oracle)

    @pytest.mark.parametrize("visual, audio, shared", [
        (np.float32, np.float32, np.float32),
        (np.float32, None, np.float32),
        (None, np.float32, np.float32),
        (np.float32, np.float64, np.float64),
        (np.float64, None, np.float64),
        (np.int64, None, np.float64),
        (None, None, np.float64),
    ])
    def test_weights_keep_float32(self, visual, audio, shared):
        # stage 1 takes each vector as the oracle gives it, a float32 one,
        # as a container's is, included, and picks as it does with both
        # vectors cast to one shared dtype
        spec = SynthSpec(seed=6, T=3, d=8, n_v=5, n_a=2, n_q=3)
        stream, _ = synth_generate(spec)
        layout = WindowLayout.from_stream(stream)
        rng = np.random.default_rng(6)
        vectors = {m: rng.uniform(0.0, 9.0, n).astype(dtype)
                   for m, n, dtype in ((VISUAL, 15, visual), (AUDIO, 6, audio))
                   if dtype is not None}
        pair = stage1_saliency(VectorOracle(vectors), layout)
        assert [vec is vectors.get(m) for m, vec in
                zip((VISUAL, AUDIO), pair)] == [True, True]
        cast = tuple(None if vec is None else vec.astype(shared)
                     for vec in pair)
        assert win_div_prune(stream, layout, pair, DEFAULTS).rows.tolist() \
            == win_div_prune(stream, layout, cast, DEFAULTS).rows.tolist()


class AudioScoreOracle:
    """Leaves stage 1 and the visual drop-layer scores uniform and scores
    each drop layer's audio survivors as scores_of(ordinals) says."""

    def __init__(self, scores_of):
        self.scores_of = scores_of

    def modality_saliency(self, modality, counts):
        return None

    def query_probs(self, layer, modality, ordinals):
        return self.scores_of(ordinals) if modality == AUDIO else None


def one_bad(value):
    """Uniform scores with value in place of the last one."""
    def scores_of(ordinals):
        scores = np.full(ordinals.size, 1.0 / ordinals.size)
        scores[-1] = value
        return scores
    return scores_of


class TestQueryScores:
    @pytest.mark.parametrize("scores_of, got", [
        (lambda o: np.full((o.size, 1), 1.0 / o.size), r"float64 of shape "
                                                       r"\(6, 1\)"),
        (lambda o: ["0.5"] * o.size, r"<U3 of shape \(6,\)"),
        (lambda o: np.ones(o.size - 1), r"float64 of shape \(5,\)"),
        (lambda o: np.array(o.size * [1j]), r"complex128 of shape \(6,\)"),
        (one_bad(-0.1), r"float64 of shape \(6,\)"),
        (one_bad(math.nan), r"float64 of shape \(6,\)"),
        (one_bad(math.inf), r"float64 of shape \(6,\)"),
        (one_bad(-math.inf), r"float64 of shape \(6,\)"),
        (lambda o: np.zeros(o.size), None),
        (lambda o: np.arange(o.size), None),
        (lambda o: (np.arange(o.size) % 2).astype(bool), None),
        (lambda o: np.full(o.size, 0.25, dtype=np.float32), None),
        (lambda o: [0.25] * o.size, None),
    ], ids=["column", "strings", "short", "complex", "negative", "nan", "inf",
            "-inf", "zeros", "ints", "bools", "float32", "list"])
    def test_scores_are_checked_once_per_layer_and_modality(self, scores_of,
                                                            got):
        # the first drop layer, 17, scores the 6 audio survivors stage 1
        # keeps of 2 windows of 4. Each bad vector is refused there, with
        # no numpy warning on the way; real, finite, non-negative ones of
        # any numeric dtype run through every drop layer
        spec = SynthSpec(seed=5, T=2, d=8, n_v=10, n_a=4, n_q=3)
        stream, _ = synth_generate(spec)
        oracle = AudioScoreOracle(scores_of)
        if got is None:
            _, trace = run_pipeline(stream, QWEN25, DEFAULTS, oracle=oracle)
            assert [layer for layer, _ in trace.plans] == [17, 19, 21]
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StreamError, match=(
                    r"^layer 17 audio query scores must be 6 finite, "
                    r"non-negative real numbers, one per survivor; got "
                    + got + "$")):
                run_pipeline(stream, QWEN25, DEFAULTS, oracle=oracle)


class TestSyntheticOracleKeying:
    def test_query_logits_are_drawn_afresh(self):
        # the oracle holds no logits between calls: a keyed draw repeats
        # exactly, whatever was drawn in between
        spec = SynthSpec(seed=11, T=2, d=4, n_v=6, n_a=3, n_q=2,
                         planted_windows=(1,), planted_gain=1.5)
        oracle = SyntheticOracle(spec)
        first = oracle._query_logits(17, VISUAL)
        oracle._query_logits(19, AUDIO)
        again = oracle._query_logits(17, VISUAL)
        assert again is not first
        assert np.array_equal(again, first)
        assert np.array_equal(
            SyntheticOracle(spec)._query_logits(17, VISUAL), first)

    def test_distinct_purposes_decorrelate(self):
        spec = SynthSpec(seed=11, T=1, d=4, n_v=6, n_a=6, n_q=2)
        oracle = SyntheticOracle(spec)
        v = oracle._query_logits(17, VISUAL)
        a = oracle._query_logits(17, AUDIO)
        assert not np.allclose(v, a)
        l17 = oracle._query_logits(17, VISUAL)
        l19 = oracle._query_logits(19, VISUAL)
        assert not np.allclose(l17, l19)
