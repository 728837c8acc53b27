#!/usr/bin/env python3
"""Benchmark the omniprefill engine end to end, or module by module.

Run from the root of a source checkout:

    python3 bench/run.py --workload long-clip --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, in turn

--seconds is the least measuring time of each workload, not of the whole
command; it defaults to run_seconds in BENCHMARK.json. Set-up, warm-up and
the peak-memory request come on top of it.
--trace 0 times untraced requests and reports the end-to-end metrics;
--trace 1 alternates untraced and traced requests and reports the per-module
metrics and the tracing overhead. The engine is imported from src/ next to
this directory; without it the run fails with exit code 1. Human-readable
lines come first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. The exit code is 1 when a
request failed or an output check did not hold. A full record (environment,
raw samples and, for traced runs, every span) goes to bench/results/.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("long-clip", "many-windows", "short-clip")


def parse_args(argv):
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "run_seconds"]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                   default="all")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=run_seconds,
                   help="least measuring time per workload "
                        "(default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_engine():
    """Put this checkout's src/ first on the path and import from it."""
    if not (SRC / "omniprefill" / "__init__.py").is_file():
        raise SystemExit(f"error: no engine sources at {SRC}")
    # one BLAS thread unless the caller chose otherwise; set before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(SRC), str(HERE)]
    import omniprefill

    if Path(omniprefill.__file__).resolve().parent != SRC / "omniprefill":
        raise SystemExit(f"error: omniprefill imported from "
                         f"{omniprefill.__file__}, not {SRC}")
    import omnibench

    return omnibench


def write_record(bench, res, args, env, loadavg) -> Path:
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{res.workload}-seed{res.seed}-trace{int(res.trace)}"
    record = {
        "workload": res.workload, "seed": res.seed, "trace": res.trace,
        "seconds": args.seconds, "correct": res.correct,
        "attempted": res.attempted, "failed": res.failed,
        "problems": res.problems[:20],
        "metrics": {k: {"value": v, "unit": res.units[k]}
                    for k, v in res.metrics.items()},
        "details": res.details, "probe_ref_s": bench.PROBE_REF_S,
        "environment": env, "loadavg_start": loadavg,
        "loadavg_end": os.getloadavg(),
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if res.spans:
        with open(out_dir / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in res.spans:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")
    return out_dir / f"{stem}.json"


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = load_engine()
    env = bench.environment(ROOT)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        loadavg = os.getloadavg()
        res = bench.Runner(bench.WORKLOADS[name], args.seed, args.seconds,
                           bool(args.trace)).run()
        path = write_record(bench, res, args, env, loadavg)
        print(f"# {name} seed={args.seed} trace={args.trace} "
              f"attempted={res.attempted} failed={res.failed} "
              f"correct={res.correct} record={path.relative_to(ROOT)}")
        for problem in res.problems[:5]:
            print(f"#   problem: {problem}")
        d = res.details
        for metric, value in res.metrics.items():
            extra = ""
            if metric == "latency_tail_s":
                extra = (f"  (p{d['tail_percentile']:g} of {d['samples']}, "
                         f"{d['tail_samples_beyond']} beyond)")
            print(f"{name} {metric} {value:.6g} {res.units[metric]}{extra}")
        if "error_rate" in d:
            print(f"{name} error_rate {d['error_rate']:.6g} 1")
        prefix = "" if len(names) == 1 else f"{name}."
        summary["correct"] &= res.correct
        summary["attempted"] += res.attempted
        summary["failed"] += res.failed
        summary["metrics"].update(
            {prefix + k: {"value": v, "unit": res.units[k]}
             for k, v in res.metrics.items()})
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
