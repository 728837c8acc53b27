"""Analytic prefill cost model.

Per layer at sequence length n the declared flop count is

    8*n*d^2        QKVO projections (2 flops per multiply-add)
  + 4*n^2*d        attention score and value matmuls
  + 6*n*d*d_ff     gated feed-forward (gate, up, down)

Embedding table, LM head, and encoder/projector work are excluded: they are
constant across pruning policies at a fixed input, and only ratios against
the unpruned run are meaningful targets. The formula string below is emitted
in every report so numbers are never detached from the model that produced
them.
"""

from __future__ import annotations

import dataclasses
from typing import ClassVar

import numpy as np

from .core import (ConfigError, ModelConfig, StreamError, bounded_integer,
                   freeze_fields)
from .pipeline import PrefillTrace


@dataclasses.dataclass(frozen=True)
class CostReport:
    """Flops and KV length per layer under `formula`, and the ratio against
    the same input unpruned; the total and the peak (longest layer) follow."""

    formula: ClassVar[str] = "v1: 8*n*d^2 + 4*n^2*d + 6*n*d*d_ff per layer"

    flops_per_layer: np.ndarray
    kv_tokens_per_layer: np.ndarray
    ratio_vs_full: float
    flops_total: float = dataclasses.field(init=False)
    peak_kv_tokens: int = dataclasses.field(init=False)

    def __post_init__(self):
        freeze_fields(self, np.float64, "flops_per_layer")
        freeze_fields(self, np.int64, "kv_tokens_per_layer")
        object.__setattr__(self, "flops_total",
                           float(self.flops_per_layer.sum()))
        object.__setattr__(self, "peak_kv_tokens",
                           int(self.kv_tokens_per_layer.max(initial=0)))


def layer_flops(n: int, config: ModelConfig) -> float:
    """Flops one layer spends on a length-n input; n must be an integer in
    [0, 2**63 - 1], else ConfigError."""
    n = bounded_integer("sequence length", n, 0, 2**63 - 1, ConfigError)
    d = float(config.d_model)
    return 8.0 * n * d * d + 4.0 * float(n) * n * d + 6.0 * n * d * config.d_ff


def trace_flops(trace: PrefillTrace, config: ModelConfig) -> CostReport:
    """Cost of a traced run, and its ratio against the same input unpruned.

    The baseline keeps every token at every layer (all retention ratios 1),
    so each of the L layers processes the full original length.
    """
    if trace.layers != config.layers:
        raise StreamError(
            f"trace covers {trace.layers} layers, config has {config.layers}"
        )
    # a trace holds few distinct lengths: each is priced once, in layer
    # order, so a refused length is the first layer's to hold one
    lengths = trace.seq_len.tolist()
    flops = {n: layer_flops(n, config) for n in dict.fromkeys(lengths)}
    per_layer = np.array([flops[n] for n in lengths], dtype=np.float64)
    total = float(per_layer.sum())
    n_full = int(sum(trace.n_original))
    full_total = config.layers * layer_flops(n_full, config)
    return CostReport(
        flops_per_layer=per_layer,
        kv_tokens_per_layer=trace.seq_len,
        ratio_vs_full=total / full_total if full_total else 1.0,
    )
