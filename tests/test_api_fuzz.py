"""The Python API ends every case cleanly: a result, or an EngineError,
never another exception or a numpy warning.

One hypothesis test drives `run_pipeline` with an oracle whose stage-1
saliency and drop-layer query scores are drawn as the run asks for them,
and `allocate`, `win_div_prune` and `write_ots` with one drawn vector each.
A drawn vector is well formed, or ragged, of the wrong length or rank,
None, complex, of objects or strings, or holds a negative, non-finite or
huge entry. A second one builds the value types (`TokenStream`,
`WindowLayout`, `ModelConfig`, `RetentionSpec`, `SynthSpec`) and calls
`TokenStream.take`, `select_topk`, `window_relevance` and `greedy_maxmin`
with one drawn field, array or scalar of an inexact kind or value.
"""

import math
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from omniprefill.allocator import allocate
from omniprefill.core import (EngineError, ModelConfig, RetentionSpec,
                              TokenStream, WindowLayout)
from omniprefill.divprune import greedy_maxmin, win_div_prune
from omniprefill.io import write_ots
from omniprefill.pipeline import SynthSpec, run_pipeline, synth_generate
from omniprefill.relevance import window_relevance
from omniprefill.selector import select_topk

CONFIG = ModelConfig(layers=28, d_model=64, d_ff=128, n_heads=4,
                     boundaries=(16, 19, 21, 24))
RETENTION = RetentionSpec(r_v=0.3, r_a=0.65, lambda_=1.4, tau=0.1)
STREAM, _ = synth_generate(SynthSpec(seed=5, T=2, d=8, n_v=10, n_a=4, n_q=3))
LAYOUT = WindowLayout.from_stream(STREAM)
ENTRIES = [0.0, 0.5, 1.0, -0.5, math.nan, math.inf, -math.inf, 1e308, 5e-324]


def vectors(n: int):
    """Values offered where n real numbers belong."""
    good = st.lists(st.floats(0, 1), min_size=n, max_size=n)
    return st.one_of(
        good.map(np.array),
        good.map(lambda v: np.array(v, dtype=np.float32)),
        good,
        st.none(),
        # one entry replaced: negative, non-finite, huge or denormal
        st.tuples(good, st.integers(0, max(n - 1, 0)),
                  st.sampled_from(ENTRIES)).map(
            lambda t: [*t[0][:t[1]], t[2], *t[0][t[1] + 1:]]),
        st.lists(st.floats(0, 1), max_size=n + 2),
        # ragged, or of rank two when every row is as long
        st.lists(st.lists(st.floats(0, 1), max_size=3), min_size=1,
                 max_size=4),
        good.map(lambda v: np.array(v, dtype=complex)),
        good.map(lambda v: np.array(v, dtype=object)),
        good.map(lambda v: [str(x) for x in v]),
        st.sampled_from([0.5, "x", {}, b"ab", [None], [2**70]]),
    )


class DrawingOracle:
    """Answers each question of the run with a value drawn for it."""

    def __init__(self, data):
        self.data = data

    def modality_saliency(self, modality, counts):
        return self.data.draw(vectors(int(counts.sum())))

    def query_probs(self, layer, modality, ordinals):
        return self.data.draw(vectors(ordinals.size))


def ends_cleanly(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call()
        except EngineError:
            pass


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), target=st.sampled_from(
    ["run_pipeline", "allocate", "win_div_prune", "write_ots"]))
def test_api_ends_with_a_result_or_an_engine_error(data, target):
    if target == "run_pipeline":
        ends_cleanly(lambda: run_pipeline(STREAM, CONFIG, RETENTION,
                                          oracle=DrawingOracle(data)))
    elif target == "allocate":
        s_v, s_a = (data.draw(vectors(LAYOUT.T)) for _ in range(2))
        ends_cleanly(lambda: allocate(s_v, s_a, 0.3, 0.65, LAYOUT))
    elif target == "win_div_prune":
        saliency = tuple(data.draw(vectors(int(counts.sum())))
                         for counts in (LAYOUT.n_v, LAYOUT.n_a))
        ends_cleanly(lambda: win_div_prune(STREAM, LAYOUT, saliency,
                                           RETENTION))
    else:
        value = data.draw(vectors(4))
        ends_cleanly(lambda: write_ots(STREAM, {"s": value}))


# Values offered where a number belongs: integers (numpy's too), floats
# whole, fractional and non-finite, and every kind that is no number.
SCALARS = st.one_of(
    st.integers(-3, 40), st.integers(2**62, 2**64), st.just(10**400),
    st.floats(allow_nan=True), st.sampled_from([2.0, 2.5, 16.5]),
    st.booleans(), st.none(), st.text(max_size=3), st.just(1j),
    st.sampled_from([np.int64(3), np.uint64(2**64 - 1), np.float32(0.5),
                     np.bool_(True), (16, 19, 21, 24), [0, 1], {}]),
)


def inexact(values: list):
    """values as given, or turned into an array of a kind or value that
    does not convert exactly: fractions, bools, unsigned integers past
    int64, strings, complex numbers, objects, a ragged list or a scalar."""
    a = np.asarray(values)
    return st.one_of(
        st.sampled_from([
            values, a.astype(np.float64), a.astype(np.float64) + 0.5,
            a.astype(np.float32), a.astype(bool),
            np.abs(a).astype(np.uint64) + np.uint64(2**63), a.astype(str),
            a.astype(complex), a.astype(object), [*values, [1]],
            [values, values[:1]], values[:1] + [2**70],
            values[:1] + [math.nan]]),
        SCALARS,
    )


def fields(data, good: dict) -> dict:
    """good, with one field replaced by a drawn value."""
    name = data.draw(st.sampled_from(sorted(good)))
    return dict(good, **{name: data.draw(SCALARS)})


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), target=st.sampled_from(
    ["TokenStream", "WindowLayout", "ModelConfig", "RetentionSpec",
     "SynthSpec", "take", "select_topk", "window_relevance",
     "greedy_maxmin"]))
def test_value_types_and_vectors_end_with_a_result_or_an_engine_error(
        data, target):
    if target == "TokenStream":
        good = {name: getattr(STREAM, name).tolist() for name in
                ("embeddings", "modality", "window_id", "position")}
        name = data.draw(st.sampled_from(sorted(good)))
        value = data.draw(inexact(good[name]))
        ends_cleanly(lambda: TokenStream(**dict(good, **{name: value})))
    elif target == "WindowLayout":
        n_v = data.draw(inexact(LAYOUT.n_v.tolist()))
        n_a = data.draw(inexact(LAYOUT.n_a.tolist()))
        ends_cleanly(lambda: WindowLayout(n_v, n_a))
    elif target == "ModelConfig":
        good = dict(layers=28, d_model=64, d_ff=128, n_heads=4,
                    boundaries=(16, 19, 21, 24))
        ends_cleanly(lambda: ModelConfig(**fields(data, good)))
    elif target == "RetentionSpec":
        good = dict(r_v=0.3, r_a=0.65, lambda_=1.4, tau=0.1)
        ends_cleanly(lambda: RetentionSpec(**fields(data, good)))
    elif target == "SynthSpec":
        good = dict(seed=5, T=2, d=8, n_v=10, n_a=4, n_q=3,
                    planted_windows=(1,), planted_gain=1.0)
        ends_cleanly(lambda: SynthSpec(**fields(data, good)))
    elif target == "take":
        # rows inside the stream, ascending; out-of-range rows are numpy
        # indexing's business, not the conversion's
        rows = data.draw(st.lists(st.integers(0, STREAM.n - 1), min_size=1,
                                  max_size=4, unique=True).map(sorted))
        value = data.draw(inexact(rows))
        ends_cleanly(lambda: STREAM.take(value))
    elif target == "select_topk":
        scores = data.draw(inexact([0.5, 0.25, 1.0, 0.0]))
        budget = data.draw(st.integers(-1, 5))
        ends_cleanly(lambda: select_topk(scores, budget))
    elif target == "window_relevance":
        means = [data.draw(inexact([0.5, 0.25])) for _ in range(2)]
        ends_cleanly(lambda: window_relevance(*means, LAYOUT, 0.1))
    else:
        rows = STREAM.embeddings[:4].tolist()
        embeddings = data.draw(st.one_of(
            inexact(rows), st.just(np.array(rows) * 1e200),
            inexact(rows[0])))
        ends_cleanly(lambda: greedy_maxmin(embeddings, np.ones(4), 2))
