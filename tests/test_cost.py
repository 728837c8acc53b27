import numpy as np
import pytest

from omniprefill.core import EngineError, ModelConfig, RetentionSpec
from omniprefill.cost import layer_flops, trace_flops
from omniprefill.pipeline import SynthSpec, run_pipeline

QWEN25 = ModelConfig(layers=28, d_model=3584, d_ff=18944, n_heads=28,
                     boundaries=(16, 19, 21, 24))
SMALL = ModelConfig(layers=28, d_model=4, d_ff=8, n_heads=2,
                    boundaries=(16, 19, 21, 24))


class TestLayerFlops:
    def test_zero_tokens(self):
        assert layer_flops(0, SMALL) == 0.0

    def test_hand_arithmetic(self):
        # 8*2*16 + 4*4*4 + 6*2*4*8 = 256 + 64 + 384
        assert layer_flops(2, SMALL) == 704.0

    def test_strictly_increasing(self):
        vals = [layer_flops(n, SMALL) for n in range(0, 50)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_quadratic_term_scales(self):
        # attention term dominates for huge n: flops(2n) approaches 4x
        big = layer_flops(2_000_000, QWEN25)
        bigger = layer_flops(4_000_000, QWEN25)
        assert bigger / big == pytest.approx(4.0, rel=0.05)


def small_trace(seed=0, r_v=0.30, r_a=0.65):
    spec = SynthSpec(seed=seed, T=4, d=16, n_v=72, n_a=12, n_q=10)
    ret = RetentionSpec(r_v=r_v, r_a=r_a, lambda_=1.4, tau=0.1)
    _, trace = run_pipeline(spec, QWEN25, ret)
    return trace


class TestTraceFlops:
    def test_totals_add_up(self):
        trace = small_trace()
        rep = trace_flops(trace, QWEN25)
        assert rep.flops_total == pytest.approx(rep.flops_per_layer.sum(),
                                                rel=1e-12)
        assert rep.flops_per_layer.shape == (28,)

    def test_direct_summation(self):
        trace = small_trace(seed=1)
        rep = trace_flops(trace, QWEN25)
        want = sum(layer_flops(int(n), QWEN25) for n in trace.seq_len)
        assert rep.flops_total == pytest.approx(want, rel=1e-12)

    def test_ratio_against_unpruned_baseline(self):
        trace = small_trace(seed=2)
        rep = trace_flops(trace, QWEN25)
        n_full = sum(trace.n_original)
        base = 28 * layer_flops(n_full, QWEN25)
        assert rep.ratio_vs_full == pytest.approx(rep.flops_total / base,
                                                  rel=1e-12)
        assert 0.0 < rep.ratio_vs_full < 1.0

    def test_kv_tokens_mirror_seq_len(self):
        trace = small_trace(seed=3)
        rep = trace_flops(trace, QWEN25)
        assert np.array_equal(rep.kv_tokens_per_layer, trace.seq_len)
        assert rep.peak_kv_tokens == int(trace.seq_len[0])

    def test_ratio_ordering_tracks_retention(self):
        pairs = [(0.06, 0.35), (0.10, 0.45), (0.20, 0.55), (0.30, 0.65)]
        ratios = [trace_flops(small_trace(seed=4, r_v=rv, r_a=ra),
                              QWEN25).ratio_vs_full
                  for rv, ra in pairs]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_formula_is_stamped(self):
        rep = trace_flops(small_trace(seed=5), QWEN25)
        assert "8*n*d^2" in rep.formula

    def test_layer_count_mismatch_rejected(self):
        trace = small_trace(seed=6)
        other = ModelConfig(layers=30, d_model=64, d_ff=128, n_heads=4,
                            boundaries=(16, 19, 21, 24))
        with pytest.raises(ValueError, match="trace covers 28 layers") as exc:
            trace_flops(trace, other)
        assert isinstance(exc.value, EngineError)
