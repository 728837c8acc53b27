"""Span tracing for the benchmark's traced run.

Spans are recorded by wrapping the engine's public functions and methods from
the outside, at the names their callers look up; nothing inside the engine
changes. A Tracer installs its wrappers on entry to its context and puts every
original object back on exit, so an untraced request runs the engine exactly
as shipped.

A span holds a name, start, end, its parent span and the request it belongs
to. A few spans also carry one number taken from the call (the layer a
query is for, the greedy step count, the bytes a row subset copies). Spans
stay in memory until the benchmark writes them out at the end.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import time


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    value: float | None = None


def _greedy_steps(args, kwargs, result):
    # greedy_maxmin(embeddings, weights, k): k == n returns before any step
    n = len(args[0])
    k = args[2] if len(args) > 2 else kwargs["k"]
    return k - 1 if k < n else 0


def _take_bytes(args, kwargs, result):
    return (result.embeddings.nbytes + result.modality.nbytes
            + result.window_id.nbytes + result.position.nbytes)


def _query_layer(args, kwargs, result):
    # ContainerOracle.query_probs(self, layer, modality, ordinals)
    return args[1] if len(args) > 1 else kwargs["layer"]


# span name -> function of (args, kwargs, result) giving the span's value
VALUES = {
    "divprune.greedy_maxmin": _greedy_steps,
    "core.TokenStream.take": _take_bytes,
    "pipeline.ContainerOracle.query_probs": _query_layer,
}


def span_name(fn) -> str:
    """Defining module (last dotted part) and qualified name, e.g.
    "divprune.win_div_prune" even when looked up through pipeline."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def engine_targets():
    """(owner, attribute) pairs the traced run wraps.

    Module functions are wrapped where their callers look them up:
    run_pipeline calls the stage functions through omniprefill.pipeline,
    win_div_prune calls greedy_maxmin through omniprefill.divprune and
    apply_budget calls select_topk through omniprefill.selector. The request
    itself calls read_ots, run_pipeline, trace_csv and trace_flops through
    their own modules. Classes contribute every public method and
    staticmethod, plus __post_init__ (construction copies the arrays).
    """
    from omniprefill import core, cost, divprune, pipeline, selector
    from omniprefill import io as otsio

    targets = [(pipeline, name) for name in (
        "win_div_prune", "window_relevance", "allocate", "apply_budget",
        "late_removal", "build_schedule", "run_pipeline")]
    targets += [(divprune, "greedy_maxmin"), (selector, "select_topk"),
                (otsio, "read_ots"), (otsio, "trace_csv"),
                (cost, "trace_flops")]
    for cls in (core.TokenStream, core.WindowLayout, pipeline.ContainerOracle):
        for name, obj in vars(cls).items():
            if name.startswith("_") and name != "__post_init__":
                continue
            if isinstance(obj, staticmethod) or inspect.isfunction(obj):
                targets.append((cls, name))
    return targets


class Tracer:
    """Records spans while active; restores every wrapped object on exit.

    Use one Tracer for a run and enter it once per traced request:

        with tracer.request(i):
            ...
    """

    def __init__(self, targets):
        self.targets = list(targets)
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._request = -1

    def _wrap(self, fn):
        name = span_name(fn)
        value_of = VALUES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(spans), name, clock(), 0.0,
                        stack[-1] if stack else None, self._request)
            spans.append(span)
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if value_of is not None:
                span.value = float(value_of(args, kwargs, result))
            return result

        return wrapper

    def _install(self):
        saved = []
        try:
            for owner, attr in self.targets:
                original = vars(owner)[attr]
                if isinstance(original, staticmethod):
                    wrapped = staticmethod(self._wrap(original.__func__))
                else:
                    wrapped = self._wrap(original)
                setattr(owner, attr, wrapped)
                saved.append((owner, attr, original))
        except BaseException:
            self._restore(saved)
            raise
        return saved

    @staticmethod
    def _restore(saved):
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def request(self, request_id: int):
        """One traced request: wrappers in place plus a root "request"
        span."""
        self._request = request_id
        saved = self._install()
        root = Span(len(self.spans), "request", time.perf_counter(), 0.0,
                    None, request_id)
        self.spans.append(root)
        self._stack.append(root.id)
        try:
            yield
        finally:
            root.end = time.perf_counter()
            self._stack.clear()
            self._restore(saved)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def phases(spans: list[Span], late_layer: int) -> dict[str, float]:
    """Split one request's run_pipeline span into stage 1 and drop layers.

    A drop layer's phase starts at the first oracle query for that layer
    (or, for the late boundary, at late_removal) and runs until the next
    phase starts or run_pipeline returns; stage 1 is everything before the
    first such mark. The phases therefore add up to run_pipeline's duration.
    """
    run = next(s for s in spans if s.name == "pipeline.run_pipeline")
    marks: dict[int, float] = {}
    for s in spans:
        if s.name == "pipeline.ContainerOracle.query_probs":
            layer = int(s.value)
        elif s.name == "selector.late_removal":
            layer = late_layer
        else:
            continue
        marks[layer] = min(marks.get(layer, s.start), s.start)
    order = sorted(marks.items(), key=lambda kv: kv[1])
    bounds = [("stage1", run.start)] + [(f"layer{l}", t) for l, t in order]
    out = {}
    for i, (name, start) in enumerate(bounds):
        stop = bounds[i + 1][1] if i + 1 < len(bounds) else run.end
        out[name] = stop - start
    return out
