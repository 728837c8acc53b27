"""The benchmark's recorded output digests, checked by the unit tests.

bench/omnibench.py records a digest of each workload's outputs at its default
seed: the trace CSV, the stage-1 and every drop layer's kept positions and
the FLOPs ratio. A change that moves a single pick changes it, so such a
change fails here as well as in the benchmark. The benchmark's files are
only read.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import omnibench  # noqa: E402  (imports its sibling tracing from bench/)


@pytest.mark.parametrize("name", sorted(omnibench.WORKLOADS))
def test_workload_digest_at_default_seed(name):
    w = omnibench.WORKLOADS[name]
    data, _ = omnibench.make_container(w, omnibench.DEFAULT_SEED)
    assert omnibench.digest(omnibench.request(data)) == w.digest
