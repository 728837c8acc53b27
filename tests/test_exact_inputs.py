"""Outside values are converted exactly or refused as a domain error.

Arrays handed to the value types and to the vector functions go through one
conversion, core.exact_array: into int64 only integers and whole floats,
into a float dtype only bool, integer and float values. Config fields go
through one scalar rule. Each case below was accepted silently, or escaped
as a numpy error or warning, before that conversion existed.
"""

import json

import numpy as np
import pytest

import omniprefill
from omniprefill import ConfigError, EngineError, StreamError
from omniprefill.allocator import allocate
from omniprefill.cli import main
from omniprefill.core import (AUDIO, TEXT, VISUAL, ModelConfig, RetentionSpec,
                              TokenStream, WindowLayout)
from omniprefill.cost import layer_flops
from omniprefill.divprune import greedy_maxmin
from omniprefill.pipeline import SynthSpec, SyntheticOracle
from omniprefill.relevance import window_relevance
from omniprefill.schedule import build_schedule
from omniprefill.selector import select_topk

EMB = np.zeros((2, 2), dtype=np.float32)
TEXT_ROWS = dict(modality=[TEXT, TEXT], window_id=[-1, -1], position=[0, 1])
RAGGED = [[1.0], [1.0, 2.0]]
MODEL = dict(layers=28, d_model=64, d_ff=128, n_heads=4,
             boundaries=(16, 19, 21, 24))
RETENTION = dict(r_v=0.3, r_a=0.65, lambda_=1.4, tau=0.1)
SYNTH = dict(seed=1, T=2, d=8, n_v=10, n_a=4, n_q=3)


class TestTokenStream:
    def test_fractional_columns_refused(self):
        # were stored as [0, 2], [0, -1] and [0, 1]
        with pytest.raises(StreamError, match="^modality: float64 values do "
                                              "not convert exactly to int64$"):
            TokenStream(EMB, modality=[0.7, 2.2], window_id=[0.9, -1],
                        position=[0, 1.5])

    @pytest.mark.parametrize("field", ["window_id", "position"])
    def test_each_fractional_column_refused(self, field):
        fields = dict(TEXT_ROWS, **{field: [-1.0, 0.5] if field == "position"
                                    else [-1, -0.5]})
        with pytest.raises(StreamError, match=f"^{field}: float64"):
            TokenStream(EMB, **fields)

    def test_whole_floats_accepted(self):
        s = TokenStream(EMB, modality=[2.0, 2.0], window_id=[-1.0, -1.0],
                        position=[0.0, 3.0])
        assert s.position.dtype == np.int64
        assert s.position.tolist() == [0, 3]

    def test_uint64_positions_past_int64_refused(self):
        # were stored as negative numbers
        position = np.array([2**63 + 5, 2**63 + 9], dtype=np.uint64)
        with pytest.raises(StreamError, match="^position: uint64 values"):
            TokenStream(EMB, **dict(TEXT_ROWS, position=position))

    def test_uint64_positions_inside_int64_accepted(self):
        position = np.array([5, 2**63 - 1], dtype=np.uint64)
        s = TokenStream(EMB, **dict(TEXT_ROWS, position=position))
        assert s.position.tolist() == [5, 2**63 - 1]

    @pytest.mark.parametrize("embeddings, dtype", [
        (np.array([["1", "2"], ["3", "4"]]), "<U1"),
        (np.ones((2, 2), dtype=complex), "complex128"),
        (RAGGED, "object"),
    ], ids=["numeric-strings", "complex", "ragged"])
    def test_inexact_embeddings_refused(self, embeddings, dtype):
        # strings were parsed, complex values warned and a ragged list
        # escaped as numpy's ValueError
        with pytest.raises(StreamError, match=f"^embeddings: {dtype} values"):
            TokenStream(embeddings, **TEXT_ROWS)

    def test_bool_codes_refused(self):
        with pytest.raises(StreamError, match="^modality: bool values"):
            TokenStream(EMB, **dict(TEXT_ROWS, modality=[True, True]))

    def test_float32_overflow_is_inf_without_a_warning(self):
        # an embedding past float32 becomes inf, which the text-row check
        # refuses as it refuses any non-finite text row
        with pytest.raises(StreamError, match="^text row 1 has a non-finite"):
            TokenStream(np.array([[1.0, 0.0], [1e39, 0.0]]), **TEXT_ROWS)

    def test_fractional_take_refused(self):
        stream = TokenStream(EMB, **TEXT_ROWS)
        # took rows [0, 1]
        with pytest.raises(StreamError, match="^rows: float64 values"):
            stream.take([0.7, 1.9])
        assert stream.take([0.0, 1.0]).n == 2


class TestWindowLayout:
    @pytest.mark.parametrize("n_v, dtype", [
        ([0.5, 1.7], "float64"), ([True, False], "bool"),
        ([2**70, 0], "object")],
        ids=["fractions", "bools", "past-int64"])
    def test_inexact_counts_refused(self, n_v, dtype):
        # were stored as [0, 1] and [1, 0]; 2**70 raised OverflowError
        with pytest.raises(StreamError, match=f"^n_v: {dtype} values do not "
                                              f"convert exactly to int64$"):
            WindowLayout(n_v, [1, 1])

    @pytest.mark.parametrize("counts", [[2**62, 2**62], [2**63 - 1, 1],
                                        [2**62] * 4 + [0] * 60])
    def test_counts_summing_past_int64_refused(self, counts):
        # [2**62, 2**62] gave total_visual = -2**63
        with pytest.raises(StreamError, match="^audio window counts sum past "
                                              r"2\*\*63 - 1$"):
            WindowLayout([0] * len(counts), counts)

    def test_largest_total_is_exact(self):
        layout = WindowLayout([2**62, 2**62 - 1], [0, 3])
        assert layout.total_visual == 2**63 - 1
        assert layout.total_audio == 3


class TestVectorFunctions:
    @pytest.mark.parametrize("scores, dtype", [
        (np.array(["3", "1", "2"]), "<U1"), (RAGGED, "object"),
        (np.array([1j, 2, 3]), "complex128")],
        ids=["strings", "ragged", "complex"])
    def test_select_topk_refuses_inexact_scores(self, scores, dtype):
        with pytest.raises(StreamError, match=f"^scores: {dtype} values"):
            select_topk(scores, 1)

    @pytest.mark.parametrize("scores", [0.5, [[0.1, 0.2]]],
                             ids=["scalar", "matrix"])
    def test_select_topk_refuses_non_vectors(self, scores):
        with pytest.raises(StreamError, match="^scores must be a vector"):
            select_topk(scores, 1)

    @pytest.mark.parametrize("means, dtype", [
        (np.array(["1", "2"]), "<U1"), (np.array([1j, 2]), "complex128"),
        (RAGGED, "object")], ids=["strings", "complex", "ragged"])
    def test_window_relevance_refuses_inexact_means(self, means, dtype):
        # strings were parsed and complex values warned
        layout = WindowLayout([1, 1], [1, 1])
        with pytest.raises(StreamError, match=f"^visual means: {dtype}"):
            window_relevance(means, [0.1, 0.2], layout, 0.1)

    @pytest.mark.parametrize("embeddings, message", [
        (np.array([["1", "0"], ["0", "1"]]), "embeddings: <U1 values"),
        (RAGGED, "embeddings: object values"),
        ([1.0, 2.0], "embeddings must be a 2-d matrix")],
        ids=["strings", "ragged", "vector"])
    def test_greedy_maxmin_refuses_inexact_embeddings(self, embeddings,
                                                      message):
        # strings were parsed and a ragged list escaped
        with pytest.raises(StreamError, match=f"^{message}"):
            greedy_maxmin(embeddings, np.ones(2), 1)


class TestConfigFields:
    @pytest.mark.parametrize("field, value, message", [
        ("layers", "28", "an integer is needed, not str"),
        ("layers", 28.5, "an integer is needed, not float"),
        ("d_model", True, "an integer is needed, not bool"),
        ("boundaries", (16.5, 19, 21, 24), "an integer is needed, not float"),
        ("boundaries", 16, "a list of integers is needed"),
    ], ids=["string", "fraction", "bool", "fractional-boundary",
            "scalar-boundaries"])
    def test_model_config(self, field, value, message):
        # '28' raised TypeError; 28.5 was accepted, and a boundary of 16.5
        # became 16 and moved a drop layer
        with pytest.raises(ConfigError, match=rf"^{field} is malformed: .*"
                                              rf"\({message}\)$"):
            ModelConfig(**dict(MODEL, **{field: value}))

    def test_model_config_holds_python_ints(self):
        config = ModelConfig(**dict(MODEL, layers=np.int64(28),
                                    boundaries=[np.int32(16), 19, 21, 24]))
        assert type(config.layers) is int
        assert config.boundaries == (16, 19, 21, 24)
        assert all(type(b) is int for b in config.boundaries)

    @pytest.mark.parametrize("field, value", [
        ("r_v", "0.3"), ("tau", None), ("lambda_", 10**400), ("r_a", 1j)],
        ids=["string", "none", "past-float", "complex"])
    def test_retention_spec(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} is malformed"):
            RetentionSpec(**dict(RETENTION, **{field: value}))

    @pytest.mark.parametrize("field, value", [
        ("T", "3"), ("T", 2.5), ("seed", None), ("n_q", True),
        ("planted_windows", (0.5,)), ("planted_windows", 1),
        ("planted_gain", "1")],
        ids=["string", "fraction", "none", "bool", "fractional-window",
             "scalar-windows", "string-gain"])
    def test_synth_spec(self, field, value):
        # T='3' raised TypeError; T=2.5 and seed=None were accepted
        with pytest.raises(ConfigError, match=f"^{field} is malformed"):
            SynthSpec(**dict(SYNTH, **{field: value}))

    def test_out_of_range_is_a_config_error(self):
        for cls, fields in ((ModelConfig, dict(MODEL, layers=5000)),
                            (RetentionSpec, dict(RETENTION, r_v=1.5)),
                            (SynthSpec, dict(SYNTH, T=0))):
            with pytest.raises(ConfigError):
                cls(**fields)

    def test_one_config_error_class(self):
        assert omniprefill.core.ConfigError is omniprefill.io.ConfigError
        assert issubclass(ConfigError, ValueError)


class TestScalarArguments:
    """Scalar arguments of the library functions follow the config fields'
    rule, core.real or core.integer, and a wrong kind is the error class
    the function raises for that argument's range. Each escaped as a
    plain TypeError, from a comparison or a range(), before."""

    HALVES = np.array([0.5, 0.5])
    LAYOUT = WindowLayout(n_v=[4, 4], n_a=[2, 2])

    @pytest.mark.parametrize("args, kwargs, name", [
        (("0.3", 0.5), {}, "r_v"),
        ((0.3, 0.5), {"totals": ("8", 4)}, "total N_v"),
        ((0.3, True), {}, "r_a"),
    ], ids=["string-ratio", "string-total", "bool-ratio"])
    def test_allocate(self, args, kwargs, name):
        with pytest.raises(EngineError, match=f"^{name} is malformed: "):
            allocate(self.HALVES, self.HALVES, *args, self.LAYOUT, **kwargs)

    @pytest.mark.parametrize("r, lambda_, name", [
        ("0.3", 1.4, "r"), (0.3, None, "lambda")], ids=["string", "none"])
    def test_build_schedule(self, r, lambda_, name):
        with pytest.raises(ConfigError, match=f"^{name} is malformed: "):
            build_schedule(ModelConfig(**MODEL), r, lambda_)

    def test_window_relevance(self):
        with pytest.raises(StreamError, match="^tau is malformed: '0.1'"):
            window_relevance(self.HALVES, self.HALVES, self.LAYOUT, "0.1")

    def test_greedy_maxmin(self):
        with pytest.raises(StreamError, match="^k is malformed: 1.5"):
            greedy_maxmin(np.eye(4), np.ones(4), 1.5)

    def test_select_topk(self):
        with pytest.raises(StreamError, match="^budget is malformed: 1.5"):
            select_topk(np.array([3.0, 1.0, 2.0]), 1.5)

    @pytest.mark.parametrize("layer, message", [
        (0, r"layer 0 outside \[1, 28\]"),
        ("3", r"layer is malformed: '3' \(an integer is needed, not str\)"),
        (2.5, r"layer is malformed: 2.5 \(an integer is needed, not float\)"),
    ], ids=["zero", "string", "fraction"])
    def test_trr_at(self, layer, message):
        # 0 raised ValueError, '3' TypeError and 2.5 IndexError
        plan = build_schedule(ModelConfig(**MODEL), 0.3, 1.4)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            plan.trr_at(layer)

    @pytest.mark.parametrize("n, message", [
        (-1, r"sequence length -1 outside \[0, 9223372036854775807\]"),
        ("3", r"sequence length is malformed: '3' \(an integer is needed, "
              r"not str\)"),
        (2.5, r"sequence length is malformed: 2.5 \(an integer is needed, "
              r"not float\)"),
    ], ids=["negative", "string", "fraction"])
    def test_layer_flops(self, n, message):
        # -1 raised ValueError, '3' TypeError, and 2.5 was priced
        with pytest.raises(ConfigError, match=f"^{message}$"):
            layer_flops(n, ModelConfig(**MODEL))

    def test_numpy_scalars_accepted(self):
        plan = allocate(self.HALVES, self.HALVES, np.float32(0.5),
                        np.int64(1), self.LAYOUT, totals=(np.int64(8), 4.0))
        assert plan.totals[2] == 8
        assert select_topk(np.array([3.0, 1.0, 2.0]),
                           np.int32(2)).tolist() == [0, 2]
        config = ModelConfig(**MODEL)
        assert build_schedule(config, 0.3, 1.4).trr_at(np.int64(1)) == \
            build_schedule(config, 0.3, 1.4).trr_at(1)
        assert layer_flops(np.int32(2), config) == layer_flops(2, config)


class TestOracleArguments:
    """SyntheticOracle's window, modality, size and layer arguments are
    integers in range, else a StreamError: before, a wrong size was a
    ValueError, a negative window or layer an OverflowError from the
    Philox key, and modality 5 was answered as audio."""

    ORACLE = SyntheticOracle(SynthSpec(**SYNTH))
    ORDINALS = np.arange(3)

    @pytest.mark.parametrize("call, message", [
        (lambda o: o.stage1_attention(0, VISUAL, 5),
         "stage-1 attention requested for 5 tokens, group has 10"),
        (lambda o: o.saliency(0, VISUAL, 5),
         "stage-1 attention requested for 5 tokens, group has 10"),
        (lambda o: o.modality_saliency(VISUAL, [11, 10]),
         "stage-1 attention requested for 11 tokens, group has 10"),
        (lambda o: o.modality_saliency(VISUAL, [[10, 10]]),
         r"counts must be a vector, got shape \(1, 2\)"),
        (lambda o: o.stage1_attention(-1, VISUAL, 10),
         r"window -1 outside \[0, 1\]"),
        (lambda o: o.stage1_attention(2, VISUAL, 10),
         r"window 2 outside \[0, 1\]"),
        (lambda o: o.stage1_attention(0, VISUAL, 10.0),
         r"n is malformed: 10.0 \(an integer is needed, not float\)"),
        (lambda o: o.query_probs(-1, VISUAL, TestOracleArguments.ORDINALS),
         r"layer -1 outside \[1, 4096\]"),
        (lambda o: o.query_probs(2.5, VISUAL, TestOracleArguments.ORDINALS),
         r"layer is malformed: 2.5 \(an integer is needed, not float\)"),
        (lambda o: o.query_probs(17, 5, TestOracleArguments.ORDINALS),
         r"modality 5 outside \[0, 1\]"),
        (lambda o: o.stage1_attention(0, TEXT, 4),
         r"modality 2 outside \[0, 1\]"),
    ], ids=["attention-size", "saliency-size", "modality-saliency-size",
            "modality-saliency-matrix", "negative-window", "window-past-T",
            "float-size", "negative-layer", "fractional-layer",
            "unknown-modality", "text-modality"])
    def test_refused(self, call, message):
        with pytest.raises(StreamError, match=f"^{message}$"):
            call(self.ORACLE)

    def test_empty_counts_give_an_empty_vector(self):
        # concatenate had no array to join
        vec = self.ORACLE.modality_saliency(AUDIO, np.array([0, 0]))
        assert vec.dtype == np.float32 and vec.size == 0


class TestLayoutDocument:
    def run(self, tmp_path, layout):
        (tmp_path / "rel.json").write_text(
            json.dumps({"s_v": [0.5, 0.5], "s_a": [0.5, 0.5]}))
        (tmp_path / "lay.json").write_text(json.dumps(layout))
        return main(["allocate", "--relevance", str(tmp_path / "rel.json"),
                     "--layout", str(tmp_path / "lay.json"),
                     "--ratio-visual", "0.5", "--ratio-audio", "0.5"])

    def test_whole_float_count_refused(self, tmp_path, capsys):
        # 4.0 was read as 4; every config document takes JSON integers only
        assert self.run(tmp_path, {"n_v": [4.0, 4], "n_a": [2, 2]}) == 1
        assert capsys.readouterr().err == (
            "error: layout key 'n_v' is malformed: [4.0, 4] (an integer is "
            "needed, not float)\n")

    @pytest.mark.parametrize("layout, message", [
        ({"n_v": [2**62, 2**62], "n_a": [0, 0]},
         "visual window counts sum past 2**63 - 1"),
        ({"n_v": [-1, 4], "n_a": [2, 2]}, "window counts must be non-negative"),
        ({"n_v": [4], "n_a": [2, 2]},
         "n_v and n_a must be 1-d and the same length"),
    ], ids=["sum-past-int64", "negative", "lengths"])
    def test_layout_refusals_name_the_rule(self, tmp_path, capsys, layout,
                                           message):
        assert self.run(tmp_path, layout) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_integer_layout_accepted(self, tmp_path, capsys):
        assert self.run(tmp_path, {"n_v": [4, 4], "n_a": [2, 2]}) == 0
        assert capsys.readouterr().out.splitlines()[0] == "window,B,B_v,B_a"
