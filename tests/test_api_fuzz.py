"""The Python API ends every case cleanly: a result, or an EngineError,
never another exception or a numpy warning.

One hypothesis test drives `run_pipeline` with an oracle whose stage-1
saliency and drop-layer query scores are drawn as the run asks for them,
and `allocate`, `win_div_prune` and `write_ots` with one drawn vector each.
A drawn vector is well formed, or ragged, of the wrong length or rank,
None, complex, of objects or strings, or holds a negative, non-finite or
huge entry.
"""

import math
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from omniprefill.allocator import allocate
from omniprefill.core import (EngineError, ModelConfig, RetentionSpec,
                              WindowLayout)
from omniprefill.divprune import win_div_prune
from omniprefill.io import write_ots
from omniprefill.pipeline import SynthSpec, run_pipeline, synth_generate

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
