"""Stage-adaptive token selection for omni-modal LLM prefill.

Three stages shrink an interleaved visual/audio/text token sequence while it
moves through a mock L-layer prefill: saliency-weighted diversity pruning
before the first layer, relevance-guided budget re-allocation wherever the
block-wise retention schedule steps down, and full non-text removal at the
late boundary. A seeded synthetic generator and an analytic FLOPs model make
the whole thing testable on a laptop.
"""

from .allocator import BudgetPlan, allocate
from .core import (
    AUDIO,
    TEXT,
    VISUAL,
    ConfigError,
    EngineError,
    InfeasibleBudgetError,
    InfeasibleScheduleError,
    ModelConfig,
    RetentionSpec,
    StreamError,
    TokenStream,
    WindowLayout,
)
from .cost import CostReport, layer_flops, trace_flops
from .divprune import SelectionResult, greedy_maxmin, win_div_prune
from .io import (
    ContainerFormatError,
    load_model_config,
    load_retention_spec,
    load_synth_spec,
    read_ots,
    read_ots_file,
    write_ots,
    write_ots_file,
)
from .pipeline import (
    ContainerOracle,
    PrefillTrace,
    SynthSpec,
    SyntheticOracle,
    mean_retention,
    retention_slack,
    run_pipeline,
    stage1_saliency,
    synth_generate,
)
from .relevance import window_relevance
from .schedule import (
    SchedulePlan,
    build_schedule,
    delta_oracle,
    solve_delta,
)
from .selector import LayerSelection, apply_budget, late_removal, select_topk

__version__ = "0.1.0"

__all__ = [
    "AUDIO",
    "BudgetPlan",
    "ConfigError",
    "ContainerFormatError",
    "ContainerOracle",
    "CostReport",
    "EngineError",
    "InfeasibleBudgetError",
    "InfeasibleScheduleError",
    "LayerSelection",
    "ModelConfig",
    "PrefillTrace",
    "RetentionSpec",
    "SchedulePlan",
    "SelectionResult",
    "StreamError",
    "SynthSpec",
    "SyntheticOracle",
    "TEXT",
    "TokenStream",
    "VISUAL",
    "WindowLayout",
    "allocate",
    "apply_budget",
    "build_schedule",
    "delta_oracle",
    "greedy_maxmin",
    "late_removal",
    "layer_flops",
    "load_model_config",
    "load_retention_spec",
    "load_synth_spec",
    "mean_retention",
    "read_ots",
    "read_ots_file",
    "retention_slack",
    "run_pipeline",
    "select_topk",
    "solve_delta",
    "stage1_saliency",
    "synth_generate",
    "trace_flops",
    "win_div_prune",
    "window_relevance",
    "write_ots",
    "write_ots_file",
]
