"""Command-line surface.

Subcommands: schedule, gen, prune-pre, allocate, run, flops. Every ratio
flag accepts a fraction ("0.35") or a percentage ("35"); values above 1 are
divided by 100. Exit codes: 0 success, 1 domain error (infeasible schedule
or budget, bad container), 2 usage error. Outputs depend only on the inputs;
nothing reads the clock or the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import io as otsio
from .allocator import allocate
from .core import (
    AUDIO,
    VISUAL,
    EngineError,
    ModelConfig,
    WindowLayout,
    integers,
)
from .cost import trace_flops
from .divprune import win_div_prune
from .pipeline import (
    ContainerOracle,
    mean_retention,
    run_pipeline,
    stage1_saliency,
    synth_generate,
)
from .schedule import build_schedule, solve_delta


def _ratio(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"ratio is not a number: {text}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"ratio cannot be negative: {text}")
    if value > 100:
        raise argparse.ArgumentTypeError(f"ratio above 100 percent: {text}")
    return value / 100.0 if value > 1.0 else value


def _int_tuple(text: str, n: int, what: str) -> tuple[int, ...]:
    parts = text.split(",")
    if len(parts) != n:
        raise argparse.ArgumentTypeError(
            f"{what} needs {n} comma-separated integers, got {text!r}"
        )
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{what} must be integers, got {text!r}")


def _boundaries(text: str) -> tuple[int, ...]:
    return _int_tuple(text, 4, "--boundaries")


def _ratio_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"--modality-ratios needs two values, got {text!r}"
        )
    return _ratio(parts[0]), _ratio(parts[1])


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_schedule(args) -> int:
    r_v, r_a = (args.modality_ratios if args.modality_ratios
                else (args.ratio, args.ratio))
    config = ModelConfig(layers=args.layers, d_model=1, d_ff=1, n_heads=1,
                         boundaries=args.boundaries)
    _, c_value = solve_delta(config, args.ratio, args.lambda_)
    plan_v = build_schedule(config, r_v, args.lambda_)
    plan_a = build_schedule(config, r_a, args.lambda_)
    if args.json:
        text = otsio.schedule_json(plan_v, plan_a, config, c_value) + "\n"
    else:
        text = otsio.schedule_csv(plan_v, plan_a, config, c_value)
    _emit(text, args.out)
    return 0


def _cmd_gen(args) -> int:
    spec = otsio.load_synth_spec(args.synth)
    stream, oracle = synth_generate(spec)
    sections = {}
    for m, name, count in ((VISUAL, "visual", spec.n_v),
                           (AUDIO, "audio", spec.n_a)):
        for t in range(spec.T):
            if count == 0:
                continue
            sections[f"saliency/w{t}/{name}"] = oracle.saliency(t, m, count)
    if args.config:
        config = otsio.load_model_config(args.config)
        for m, name in ((VISUAL, "visual"), (AUDIO, "audio")):
            total = spec.T * (spec.n_v if m == VISUAL else spec.n_a)
            if total == 0:
                continue
            for layer in range(1, config.layers + 1):
                sections[f"query_logits/layer{layer}/{name}"] = (
                    oracle._query_logits(layer, m)
                )
    otsio.write_ots_file(args.out, stream, sections,
                         generator=spec.provenance(), T=spec.T)
    print(f"wrote {args.out}: n={stream.n} d={stream.d} windows={spec.T} "
          f"visual={stream.n_visual} audio={stream.n_audio} "
          f"text={stream.n_text} sections={len(sections)}")
    return 0


def _cmd_prune_pre(args) -> int:
    stream, sections, header = otsio.read_ots_file(args.input)
    spec = otsio.load_retention_spec(args.spec)
    T = header["t"]
    layout = WindowLayout.from_stream(stream, T)
    saliency = stage1_saliency(ContainerOracle(sections, T), layout)
    result = win_div_prune(stream, layout, saliency, spec)
    kept_v = int(result.kept_v.sum())
    kept_a = int(result.kept_a.sum())
    print(f"kept visual {kept_v}/{stream.n_visual} "
          f"audio {kept_a}/{stream.n_audio} text {stream.n_text}/{stream.n_text}")
    doc = {
        "kept_positions": [int(p) for p in result.kept],
        "per_window": {
            "audio": [int(x) for x in result.kept_a],
            "visual": [int(x) for x in result.kept_v],
        },
    }
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if args.out:
        _emit(payload, args.out)
    return 0


def _cmd_allocate(args) -> int:
    rel_doc = otsio._load_config(args.relevance, dict, "relevance", {
        "s_v": ("s_v", otsio._numbers, True),
        "s_a": ("s_a", otsio._numbers, True),
    })
    s_v, s_a = np.array(rel_doc["s_v"]), np.array(rel_doc["s_a"])
    layout = otsio._load_config(args.layout, WindowLayout, "layout", {
        "n_v": ("n_v", integers, True),
        "n_a": ("n_a", integers, True),
    })
    if s_v.shape != (layout.T,) or s_a.shape != (layout.T,):
        raise otsio.ConfigError(
            f"relevance shapes {s_v.shape} and {s_a.shape} must match the "
            f"{layout.T} windows, one weight each"
        )
    totals = tuple(args.totals) if args.totals else None
    plan = allocate(s_v, s_a, args.ratio_visual, args.ratio_audio, layout,
                    totals=totals)
    text = (otsio.budget_json(plan) + "\n") if args.json else otsio.budget_csv(plan)
    _emit(text, args.out)
    return 0


def _cmd_run(args) -> int:
    config = otsio.load_model_config(args.config)
    retention = otsio.load_retention_spec(args.spec)
    if args.synth:
        source = otsio.load_synth_spec(args.synth)
        oracle, T = None, None
    else:
        source, sections, header = otsio.read_ots_file(args.input)
        T = header["t"]
        oracle = ContainerOracle(sections, T)
    final, trace = run_pipeline(source, config, retention, oracle=oracle,
                                T=T)
    _emit(otsio.trace_csv(trace), args.trace)
    means = mean_retention(trace)
    report = trace_flops(trace, config)
    print(f"final_len={final.n} "
          f"mean_trr_visual={means['visual']:.6f} "
          f"mean_trr_audio={means['audio']:.6f} "
          f"flops_ratio={report.ratio_vs_full:.6f}")
    return 0


def _cmd_flops(args) -> int:
    config = otsio.load_model_config(args.config)
    try:
        with open(args.trace, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise otsio.ContainerFormatError(
            f"trace CSV {args.trace} is not UTF-8: {exc}") from exc
    view = otsio.parse_trace_csv(text)
    report = trace_flops(view, config)
    text = (otsio.cost_json(report) + "\n") if args.json else otsio.cost_csv(report)
    _emit(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omniprefill",
        description="Stage-adaptive token selection for omni-modal prefill",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="emit the per-layer retention table")
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--boundaries", type=_boundaries, required=True,
                   metavar="LS,LM1,LM2,LL")
    p.add_argument("--ratio", type=_ratio, required=True,
                   help="overall retention (fraction or percent)")
    p.add_argument("--lambda", dest="lambda_", type=float, required=True,
                   help="pre-LLM scale factor (plain number, not a percent)")
    p.add_argument("--modality-ratios", type=_ratio_pair, default=None,
                   metavar="RV,RA")
    p.add_argument("--out", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("gen", help="generate a synthetic stream container")
    p.add_argument("--synth", required=True, help="synth spec JSON")
    p.add_argument("--config", default=None,
                   help="model config JSON; adds per-layer query sections")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("prune-pre", help="pre-LLM diversity pruning")
    p.add_argument("--input", required=True, help="stream container")
    p.add_argument("--spec", required=True, help="retention spec JSON")
    p.add_argument("--out", default=None, help="kept-index JSON")
    p.set_defaults(func=_cmd_prune_pre)

    p = sub.add_parser("allocate", help="one drop layer's budget plan")
    p.add_argument("--relevance", required=True, help="JSON with s_v, s_a")
    p.add_argument("--layout", required=True, help="JSON with n_v, n_a")
    p.add_argument("--ratio-visual", type=_ratio, required=True)
    p.add_argument("--ratio-audio", type=_ratio, required=True)
    p.add_argument("--totals", type=lambda s: _int_tuple(s, 2, "--totals"),
                   default=None, metavar="NV,NA",
                   help="original modality totals; defaults to the layout sums")
    p.add_argument("--out", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_allocate)

    p = sub.add_parser("run", help="full three-stage prefill simulation")
    p.add_argument("--config", required=True, help="model config JSON")
    p.add_argument("--spec", required=True, help="retention spec JSON")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", help="stream container")
    group.add_argument("--synth", help="synth spec JSON")
    p.add_argument("--trace", required=True, help="trace CSV output path")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("flops", help="price a trace CSV")
    p.add_argument("--trace", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_flops)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
