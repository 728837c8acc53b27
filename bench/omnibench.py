"""Workloads, set-up, requests, output checks and metrics of the benchmark.

The engine is driven the way `omniprefill run --input` drives it, in process
and without file I/O. Set-up builds one OTS container per workload from the
seed, the way `omniprefill gen --config` does: the synthetic stream, stage-1
saliency for every (window, modality) group and query logits for every
layer. A request is read_ots on those bytes, run_pipeline with a
ContainerOracle, trace_csv and trace_flops; the synthetic stand-in therefore
never runs inside a timed request.

Load is a closed loop with one client: the next request starts when the
previous one returns. The host's speed drifts by tens of percent over
seconds, so every timed request is bracketed by a fixed probe computation and
its wall time is rescaled by PROBE_REF_S over the probe's mean per-repetition
time around it. Reported times are therefore seconds on a host where one
probe repetition takes PROBE_REF_S; raw wall times are kept in the result
file beside them.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np

import omniprefill
from omniprefill import cost, pipeline
from omniprefill import io as otsio
from omniprefill.core import AUDIO, VISUAL, ModelConfig, RetentionSpec

import tracing

CONFIG = ModelConfig(layers=28, d_model=3584, d_ff=18944, n_heads=28,
                     boundaries=(16, 19, 21, 24))
RETENTION = RetentionSpec(r_v=0.30, r_a=0.65, lambda_=1.4, tau=0.1)
D = 64
N_Q = 64
DEFAULT_SEED = 7
SETUP_REPS = 3  # at least; more while under SETUP_MIN_S
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 50
WARMUP_REQUESTS = 1
MAX_MEASURE_S = 120.0  # keeps a run well inside its time limit on a slow host

# one probe repetition on a 2-vCPU Intel Xeon host in its fast state
PROBE_REF_S = 8.0e-4
MIB = 1024.0 * 1024.0


@dataclasses.dataclass(frozen=True)
class Workload:
    """One stream shape. tail_pct is fixed per workload so the tail metric
    means the same on every commit. A run times at least min_requests
    requests, which puts ten samples beyond p99 on short-clip, ten beyond
    p75 on many-windows and five beyond p75 on long-clip, whose 20 requests
    already take about 20 s."""

    name: str
    T: int
    n_v: int
    n_a: int
    tail_pct: float
    min_requests: int
    probe_reps: int
    digest: str | None = None  # of the outputs at DEFAULT_SEED


WORKLOADS = {w.name: w for w in (
    Workload("long-clip", T=512, n_v=288, n_a=50, tail_pct=75,
             min_requests=20, probe_reps=100,
             digest="82a5eb2f9667ec35179ddfe9eeca67db"
                    "cff41237ba1150e1b0182e2364abbd6a"),
    Workload("many-windows", T=2048, n_v=16, n_a=4, tail_pct=75,
             min_requests=40, probe_reps=100,
             digest="dc74a7156c20a9387e251fbd3d5fac01"
                    "b04ce887f6780a97abe0eda2fb5a8de6"),
    Workload("short-clip", T=4, n_v=288, n_a=50, tail_pct=99,
             min_requests=1000, probe_reps=2,
             digest="71cf82d3cd049bb673d4b086c19b88b1"
                    "1af8442d8a77942cdb40a343c8a511dd"),
)}


# ---------------------------------------------------------------- probe

class Probe:
    """Fixed reference computation whose time tracks the host's speed.

    It mixes what a request spends its time on: a greedy farthest-point loop
    of small numpy calls, one matmul and a stable argsort. Its inputs never
    change, so its time moves only with the host.
    """

    def __init__(self):
        emb = np.random.default_rng(20260517).standard_normal((256, 64))
        self.unit = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        self.rep()

    def rep(self) -> int:
        dist = 1.0 - self.unit @ self.unit.T
        mind = dist[:, 0].copy()
        value = np.empty_like(mind)
        chosen = [0]
        for _ in range(100):
            np.copyto(value, mind)
            value[chosen] = -np.inf
            pick = int(np.argmax(value))
            chosen.append(pick)
            np.minimum(mind, dist[:, pick], out=mind)
        return int(np.argsort(-dist[0], kind="stable")[0])

    def per_rep(self, reps: int) -> float:
        t0 = time.perf_counter()
        for _ in range(reps):
            self.rep()
        return (time.perf_counter() - t0) / reps


# ---------------------------------------------------------------- set-up

def make_container(w: Workload, seed: int) -> tuple[bytes, float]:
    """The workload's OTS bytes, and the time write_ots took."""
    spec = pipeline.SynthSpec(seed=seed, T=w.T, d=D, n_v=w.n_v, n_a=w.n_a,
                              n_q=N_Q)
    stream, oracle = pipeline.synth_generate(spec)
    sections = {}
    for m, name, count in ((VISUAL, "visual", w.n_v), (AUDIO, "audio", w.n_a)):
        if count == 0:
            continue
        for t in range(w.T):
            sections[f"saliency/w{t}/{name}"] = oracle.saliency(t, m, count)
        # the full-length logits `omniprefill gen --config` writes
        for layer in range(1, CONFIG.layers + 1):
            sections[f"query_logits/layer{layer}/{name}"] = (
                oracle._query_logits(layer, m))
    t0 = time.perf_counter()
    data = otsio.write_ots(stream, sections, generator=spec.provenance(),
                           T=w.T)
    return data, time.perf_counter() - t0


# ---------------------------------------------------------------- requests

@dataclasses.dataclass
class Outcome:
    rows: int
    final_n: int
    trace: pipeline.PrefillTrace
    csv: str
    report: cost.CostReport


def request(data: bytes) -> Outcome:
    """One request. Names are looked up through their modules at call time
    so the traced run's wrappers see them."""
    stream, sections, header = otsio.read_ots(data)
    oracle = pipeline.ContainerOracle(sections, int(header["t"]))
    final, trace = pipeline.run_pipeline(stream, CONFIG, RETENTION,
                                         oracle=oracle)
    csv = otsio.trace_csv(trace)
    report = cost.trace_flops(trace, CONFIG)
    return Outcome(stream.n, final.n, trace, csv, report)


def digest(out: Outcome) -> str:
    """Hash of the trace CSV, the stage-1 kept positions, every layer's kept
    positions and the FLOPs ratio."""
    h = hashlib.sha256(out.csv.encode())
    h.update(out.trace.stage1.kept.astype("<i8").tobytes())
    for sel in out.trace.selections:
        h.update(f"layer{sel.layer}".encode())
        h.update(sel.kept.astype("<i8").tobytes())
    h.update(repr(out.report.ratio_vs_full).encode())
    return h.hexdigest()


def check(out: Outcome) -> list[str]:
    """Invariants every request's outputs must meet."""
    tr = out.trace
    problems = []
    late = tr.config.boundaries[3]
    n_q = tr.n_original[2]
    if np.any(np.diff(tr.seq_len) > 0):
        problems.append("seq_len increases")
    if np.any(tr.seq_len[late - 1:] != n_q):
        problems.append(f"seq_len differs from n_q={n_q} from layer {late} on")
    if np.any(tr.kept_text != n_q):
        problems.append("kept_text differs from n_q")
    if out.final_n != n_q:
        problems.append(f"final stream holds {out.final_n} rows, not {n_q}")
    realized = pipeline.mean_retention(tr)
    slack = pipeline.retention_slack(tr)
    for name, want in (("visual", tr.retention.r_v),
                       ("audio", tr.retention.r_a)):
        if not abs(realized[name] - want) <= slack[name]:
            problems.append(f"{name} mean retention {realized[name]:.6f} "
                            f"misses {want} by more than {slack[name]:.6f}")
    for layer, plan in tr.plans:
        if not np.array_equal(plan.b, plan.b_v + plan.b_a):
            problems.append(f"layer {layer} plan: b != b_v + b_a")
    return problems


class Checker:
    """Checks each request and that all requests of a run agree byte for
    byte; at DEFAULT_SEED also against the workload's recorded digest."""

    def __init__(self, expected: str | None, problems: list[str]):
        self.expected = expected
        self.first: str | None = None
        self.problems = problems

    def __call__(self, out: Outcome) -> bool:
        problems = check(out)
        got = digest(out)
        if self.first is None:
            self.first = got
        if got != self.first:
            problems.append("outputs differ from the run's first request")
        if self.expected is not None and got != self.expected:
            problems.append(f"digest {got} differs from the recorded "
                            f"{self.expected}")
        self.problems.extend(problems)
        return not problems


# ---------------------------------------------------------------- metrics

def tail(samples: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    s = sorted(samples)
    idx = max(0, math.ceil(pct / 100 * len(s)) - 1)
    return s[idx], len(s) - idx - 1


def shrink_layers(trace) -> int:
    """Drop layers whose budget was scaled down to fit the survivors."""
    n_v0, n_a0, _ = trace.n_original
    fired = 0
    for layer, plan in trace.plans:
        nominal = (trace.schedule_v.trr_at(layer) * n_v0
                   + trace.schedule_a.trr_at(layer) * n_a0)
        fired += plan.totals[2] != round(nominal)
    return fired


def outcome_counts(out: Outcome, data: bytes) -> dict[str, float]:
    tr = out.trace
    n_v0, n_a0, _ = tr.n_original
    return {
        "divprune.keep_ratio": float(tr.stage1.kept_v.sum()
                                     + tr.stage1.kept_a.sum()) / (n_v0 + n_a0),
        "selector.tokens_dropped": float(sum(int(s.dropped_v.sum())
                                             + int(s.dropped_a.sum())
                                             for s in tr.selections)),
        "allocator.shrink_layers": float(shrink_layers(tr)),
        "cost.kv_tokens_l1": float(out.report.kv_tokens_per_layer[0]),
        "io.read_ots.bytes": float(len(data)),
    }


# per-layer metric -> (span name, what to add up); times are seconds
SPAN_METRICS = {
    "divprune.win_div_prune.self_s": ("divprune.win_div_prune", "self"),
    "divprune.greedy_maxmin.s": ("divprune.greedy_maxmin", "dur"),
    "divprune.greedy_maxmin.calls": ("divprune.greedy_maxmin", "calls"),
    "divprune.greedy_steps": ("divprune.greedy_maxmin", "value"),
    "selector.apply_budget.self_s": ("selector.apply_budget", "self"),
    "selector.select_topk.s": ("selector.select_topk", "dur"),
    "selector.select_topk.calls": ("selector.select_topk", "calls"),
    "selector.late_removal.s": ("selector.late_removal", "dur"),
    "relevance.window_relevance.s": ("relevance.window_relevance", "dur"),
    "relevance.window_relevance.calls": ("relevance.window_relevance", "calls"),
    "allocator.allocate.s": ("allocator.allocate", "dur"),
    "allocator.allocate.calls": ("allocator.allocate", "calls"),
    "core.WindowLayout.from_stream.s": ("core.WindowLayout.from_stream", "dur"),
    "core.TokenStream.take.calls": ("core.TokenStream.take", "calls"),
    "core.take_bytes": ("core.TokenStream.take", "value"),
    "io.read_ots.s": ("io.read_ots", "dur"),
    "io.trace_csv.s": ("io.trace_csv", "dur"),
    "schedule.build_schedule.s": ("schedule.build_schedule", "dur"),
    "schedule.build_schedule.calls": ("schedule.build_schedule", "calls"),
    "pipeline.run_pipeline.s": ("pipeline.run_pipeline", "dur"),
    "pipeline.run_pipeline.self_s": ("pipeline.run_pipeline", "self"),
    "cost.trace_flops.s": ("cost.trace_flops", "dur"),
}
ORACLE_SPANS = ("pipeline.ContainerOracle.saliency",
                "pipeline.ContainerOracle.query_probs")


def span_metrics(spans, out: Outcome, scale: float) -> dict[str, float]:
    """Per-layer metrics of one traced request; times are multiplied by the
    request's host-speed scale."""
    own = tracing.self_times(spans)
    sums: dict[tuple[str, str], float] = {}
    for s in spans:
        for kind, v in (("dur", s.end - s.start), ("self", own[s.id]),
                        ("calls", 1.0), ("value", s.value or 0.0)):
            sums[(s.name, kind)] = sums.get((s.name, kind), 0.0) + v
    m = {}
    for metric, key in SPAN_METRICS.items():
        v = sums.get(key, 0.0)
        m[metric] = v * scale if key[1] in ("dur", "self") else v
    m["pipeline.oracle.s"] = scale * sum(sums.get((n, "dur"), 0.0)
                                         for n in ORACLE_SPANS)
    late = out.trace.config.boundaries[3]
    split = tracing.phases(spans, late)
    m["pipeline.stage1.s"] = scale * split.get("stage1", 0.0)
    for sel in out.trace.selections:
        key = f"layer{sel.layer}"
        m[f"pipeline.{key}.s"] = scale * split.get(key, 0.0)
    m["trace.spans"] = float(len(spans))
    return m


# ---------------------------------------------------------------- runs

@dataclasses.dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    metrics: dict = dataclasses.field(default_factory=dict)
    units: dict = dataclasses.field(default_factory=dict)
    details: dict = dataclasses.field(default_factory=dict)
    spans: list = dataclasses.field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems and self.attempted > 0

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = float(value)
        self.units[name] = unit


class Runner:
    """One run: set-up, warm-up, then the timed (or traced) closed loop."""

    def __init__(self, w: Workload, seed: int, seconds: float, traced: bool):
        self.w = w
        self.seed = seed
        self.seconds = seconds
        self.res = Result(w.name, seed, traced)
        self.probe = Probe()
        self.checker = Checker(w.digest if seed == DEFAULT_SEED else None,
                               self.res.problems)
        self.last: Outcome | None = None

    def scale(self, before: float, after: float) -> float:
        return PROBE_REF_S / ((before + after) / 2)

    def setup(self) -> bytes:
        times, writes, digests = [], [], set()
        start = time.perf_counter()
        while len(times) < SETUP_REPS or (
                time.perf_counter() - start < SETUP_MIN_S
                and len(times) < SETUP_MAX_REPS):
            before = self.probe.per_rep(self.w.probe_reps)
            t0 = time.perf_counter()
            data, write_s = make_container(self.w, self.seed)
            raw = time.perf_counter() - t0
            scale = self.scale(before, self.probe.per_rep(self.w.probe_reps))
            times.append(raw * scale)
            writes.append(write_s * scale)
            digests.add(hashlib.sha256(data).hexdigest())
        if len(digests) != 1:
            self.res.problems.append("set-up is not deterministic")
        self.res.details["setup_s_reps"] = times
        self.setup_s = statistics.median(times)
        self.write_s = statistics.median(writes)
        return data

    def attempt(self, data: bytes, traced_id: int | None = None,
                tracer=None) -> float | None:
        """Run and check one request; its raw wall time, or None if it
        failed."""
        self.res.attempted += 1
        try:
            t0 = time.perf_counter()
            if tracer is None:
                out = request(data)
            else:
                with tracer.request(traced_id):
                    out = request(data)
            raw = time.perf_counter() - t0
        except Exception as exc:  # a failed request is data, not a crash
            self.res.failed += 1
            self.res.problems.append(f"request raised {exc!r}")
            return None
        if not self.checker(out):
            self.res.failed += 1
            return None
        self.last = out
        return raw

    def loop(self, data: bytes, min_requests: int, tracer=None):
        """Closed loop with probes between requests, for at least
        self.seconds and min_requests attempts of each kind. Untraced and
        traced requests alternate when a tracer is given."""
        plain, traced = [], []
        per_request = []
        reps = self.w.probe_reps
        gc.collect()
        before = self.probe.per_rep(reps)
        start = time.perf_counter()
        i = 0
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= MAX_MEASURE_S or (
                    elapsed >= self.seconds and i >= min_requests * (
                        1 if tracer is None else 2)):
                break
            use = tracer if tracer is not None and i % 2 else None
            n_spans = len(tracer.spans) if tracer is not None else 0
            raw = self.attempt(data, i, use)
            after = self.probe.per_rep(reps)
            scale = self.scale(before, after)
            before = after
            i += 1
            if raw is None:
                continue
            if use is None:
                plain.append((raw * scale, raw))
            else:
                traced.append((raw * scale, raw))
                per_request.append(span_metrics(tracer.spans[n_spans:],
                                                self.last, scale))
        return plain, traced, per_request

    def run(self) -> Result:
        res = self.res
        data = self.setup()
        for _ in range(WARMUP_REQUESTS):
            self.attempt(data)
        if self.res.trace:
            self.run_traced(data)
        else:
            self.run_timed(data)
        res.details["digest"] = self.checker.first
        return res

    def run_timed(self, data: bytes) -> None:
        res, w = self.res, self.w
        plain, _, _ = self.loop(data, w.min_requests)
        lat = [s for s, _ in plain]
        # before any early return, so a run whose requests all fail reads 0
        res.put("success_rate", 1 - res.failed / res.attempted, "1")
        res.details["error_rate"] = res.failed / res.attempted
        if not lat:
            return
        tail_s, beyond = tail(lat, w.tail_pct)
        peak = self.peak_memory(data)
        res.put("latency_p50_s", statistics.median(lat), "s")
        res.put("latency_tail_s", tail_s, "s")
        res.put("tokens_per_s", len(lat) * self.last.rows / sum(lat),
                "tokens/s")
        res.put("setup_s", self.setup_s, "s")
        res.put("peak_mem_mib", peak, "MiB")
        res.put("flops_ratio", self.last.report.ratio_vs_full, "1")
        # the peak-memory request counts as an attempt too
        res.put("success_rate", 1 - res.failed / res.attempted, "1")
        res.details.update(
            tail_percentile=w.tail_pct, tail_samples_beyond=beyond,
            samples=len(lat), error_rate=res.failed / res.attempted,
            raw_latency_p50_s=statistics.median(r for _, r in plain),
            latencies_s=lat)

    def run_traced(self, data: bytes) -> None:
        res = self.res
        tracer = tracing.Tracer(tracing.engine_targets())
        plain, traced, per_request = self.loop(data, 3, tracer)
        res.spans = tracer.spans
        if not per_request:
            return
        for name in sorted(per_request[0]):
            unit = ("s" if name.endswith((".s", "_s")) else
                    "bytes" if name.endswith("bytes") else "count")
            res.put(name, statistics.median(m[name] for m in per_request),
                    unit)
        for name, value in outcome_counts(self.last, data).items():
            unit = {"divprune.keep_ratio": "1",
                    "io.read_ots.bytes": "bytes"}.get(name, "count")
            res.put(name, value, unit)
        res.put("io.write_ots.s", self.write_s, "s")
        res.put("trace.overhead_s",
                statistics.median(s for s, _ in traced)
                - statistics.median(s for s, _ in plain), "s")
        res.details.update(traced_requests=len(traced),
                           untraced_requests=len(plain))

    def peak_memory(self, data: bytes) -> float:
        """tracemalloc peak above the starting baseline over one untimed
        request, in MiB."""
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            self.attempt(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - base) / MIB


# ---------------------------------------------------------------- environment

def environment(root) -> dict:
    """Host, interpreter, numpy/BLAS and source revision of a result."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "engine": omniprefill.__file__,
        **git_revision(root),
    }


def git_revision(root) -> dict:
    if not os.path.isdir(os.path.join(root, ".git")):
        return {"git_commit": None, "git_dirty": None}
    try:
        head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(
            ["git", "-C", str(root), "status", "--porcelain"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"git_commit": None, "git_dirty": None}
    return {"git_commit": head.stdout.strip() or None,
            "git_dirty": bool(status.stdout.strip())}
