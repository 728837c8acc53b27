"""The benchmark's recorded output digests, checked by the unit tests.

bench/omnibench.py records a digest of each workload's outputs at its default
seed: the trace CSV, the stage-1 and every drop layer's kept positions and
the FLOPs ratio. A change that moves a single pick changes it, so such a
change fails here as well as in the benchmark. The digests at the held-out
seed 11 are recorded here. Every engine name the traced benchmark run wraps
must exist, and a traced request must still pass through the stage
functions it wraps, so a change that deletes, renames or stops calling one
fails here too. The benchmark's files are only read.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import omnibench  # noqa: E402  (imports its sibling tracing from bench/)
import tracing  # noqa: E402


# the outputs at the held-out seed 11, which the benchmark does not record;
# a change that keeps the seed-7 picks by accident still has to keep these
HELD_OUT_SEED = 11
HELD_OUT_DIGESTS = {
    "long-clip": "6acf31b982814c5027c9069770157a62"
                 "bc796e60711eaea4a0de53278de17b83",
    "many-windows": "4832fdb1ba1731fc2fcf02aeeb8da926"
                    "99068703a9bb4feaf8d30c3c3b3abcee",
    "short-clip": "890e85bd87fa18fdd30258726c8a7910"
                  "5f6761c814386002ba83959311e412b5",
}


@pytest.mark.parametrize("name", sorted(omnibench.WORKLOADS))
def test_workload_digest_at_default_seed(name):
    w = omnibench.WORKLOADS[name]
    data, _ = omnibench.make_container(w, omnibench.DEFAULT_SEED)
    assert omnibench.digest(omnibench.request(data)) == w.digest


@pytest.mark.parametrize("name", sorted(HELD_OUT_DIGESTS))
def test_workload_digest_at_held_out_seed(name):
    w = omnibench.WORKLOADS[name]
    data, _ = omnibench.make_container(w, HELD_OUT_SEED)
    assert omnibench.digest(omnibench.request(data)) == HELD_OUT_DIGESTS[name]


def test_every_traced_engine_name_exists():
    # the benchmark's `--trace 1` run wraps these names; one that an engine
    # change deletes or renames would break that run
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr in tracing.engine_targets()
               if attr not in vars(owner)]
    assert missing == []


# the spans of one drop layer, in call order: the oracle is asked for each
# modality's scores, then the stages run
LAYER_SPANS = ["pipeline.ContainerOracle.query_probs"] * 2 + [
    "relevance.window_relevance", "allocator.allocate",
    "selector.apply_budget"]


def test_traced_request_spans_each_drop_layer():
    # the benchmark's `--trace 1` run on a tiny stream: every wrapped name
    # resolves as the tracer reads it, and each drop layer records one span
    # per stage function, so a stage that is renamed or no longer called
    # through omniprefill.pipeline shows here
    targets = tracing.engine_targets()
    originals = [vars(owner)[attr] for owner, attr in targets]
    tiny = omnibench.Workload("tiny", T=3, n_v=12, n_a=4, tail_pct=50,
                              min_requests=1, probe_reps=1)
    data, _ = omnibench.make_container(tiny, omnibench.DEFAULT_SEED)
    tracer = tracing.Tracer(targets)
    with tracer.request(0):
        out = omnibench.request(data)
    layers = [layer for layer, _ in out.trace.plans]
    assert layers == [17, 19, 21]
    spans = [s for s in tracer.spans if s.name in LAYER_SPANS]
    assert [s.name for s in spans] == LAYER_SPANS * len(layers)
    assert [s.value for s in spans[::len(LAYER_SPANS)]] == layers
    # and the tracer puts every original back
    assert [vars(owner)[attr] for owner, attr in targets] == originals
