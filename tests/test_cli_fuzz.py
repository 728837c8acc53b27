"""The command line ends every case cleanly: exit 0, or exit 1 with exactly
one `error:` line, never a traceback, a warning or a usage error.

One hypothesis test drives `cli.main` in process for schedule, allocate,
run, prune-pre and flops. Each case changes one input of a working command:
a value of a config document becomes a random JSON value, a few bytes of a
small container change, or a line of a trace CSV is replaced, added or
dropped. `gen` is left out, and so are large values of the size keys
(`windows`, `d`, the per-window token counts, `text_tokens`, `layers`): they
would only make a case allocate more, not reach other code.
"""

import contextlib
import copy
import io
import json
import re
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from omniprefill.cli import main

MODEL = {"layers": 28, "d_model": 64, "d_ff": 128, "n_heads": 4,
         "boundaries": [16, 19, 21, 24]}
RETENTION = {"ratio_visual": 0.3, "ratio_audio": 0.65, "lambda": 1.4,
             "tau": 0.1, "ratio": 0.4}
SYNTH = {"seed": 5, "windows": 3, "d": 4, "visual_per_window": 6,
         "audio_per_window": 3, "text_tokens": 3, "planted_windows": [1],
         "planted_gain": 2.0}
RELEVANCE = {"s_v": [0.7, 0.3, 0.0], "s_a": [0.5, 0.25, 0.25], "tau": 0.1}
LAYOUT = {"n_v": [4, 4, 0], "n_a": [2, 1, 3]}
SIZE_KEYS = {"windows", "d", "visual_per_window", "audio_per_window",
             "text_tokens", "layers"}

SPECIAL = [0, -1, 2**31, 2**62, 2**63 - 1, 2**63, -2**63 - 1, 10**400, 1e308,
           -1e308, 5e-324, -0.0, float("nan"), float("inf"), "", "0.5", "12"]


def json_values(big: bool):
    """Random JSON values; with big False no integer exceeds 40."""
    special = st.sampled_from([v for v in SPECIAL
                               if big or not (type(v) is int and v > 40)])
    scalars = st.one_of(special, st.floats(0, 2), special,
                        st.integers(-3, 40), st.floats(), st.none(),
                        st.booleans(), st.text(max_size=4))
    if big:
        scalars = scalars | st.integers(-2**70, 2**70)
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=4),
                        max_leaves=6)


@st.composite
def mutated(draw, doc):
    """doc with one value, or one entry of a list value, made random."""
    doc = copy.deepcopy(doc)
    key = draw(st.sampled_from(sorted(doc)))
    values = json_values(big=key not in SIZE_KEYS)
    if isinstance(doc[key], list) and doc[key] and draw(st.booleans()):
        doc[key][draw(st.integers(0, len(doc[key]) - 1))] = draw(values)
    else:
        doc[key] = draw(values)
    return doc


@st.composite
def changed_bytes(draw, data):
    """data with a few bytes replaced, often in the header, or cut short."""
    data = bytearray(data)
    if draw(st.integers(0, 9)) == 0:
        return bytes(data[:draw(st.integers(0, len(data) - 1))])
    where = st.integers(0, min(len(data), 2048) - 1) | st.integers(
        0, len(data) - 1)
    for _ in range(draw(st.integers(1, 3))):
        data[draw(where)] = draw(st.integers(0, 255))
    return bytes(data)


TRACE_LINES = (
    st.text(alphabet="0123456789,#=-+ .e_nax", max_size=24)
    | st.builds("# {}={}".format,
                st.sampled_from(["n_visual", "n_audio", "n_text", "layers"]),
                st.integers(-2, 40) | st.sampled_from(SPECIAL))
    | st.builds("{},{},0,0,0".format, st.integers(-1, 30),
                st.integers(-2, 10**6) | st.sampled_from(SPECIAL))
)


@st.composite
def changed_lines(draw, text):
    """text with one line replaced, added or dropped."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines)))
    action = draw(st.sampled_from(["replace", "add", "drop"]))
    if action == "add" or i == len(lines):
        lines.insert(i, draw(TRACE_LINES))
    elif action == "replace":
        lines[i] = draw(TRACE_LINES)
    else:
        del lines[i]
    return "\n".join(lines) + "\n"


RATIOS = (st.floats(0, 1) | st.floats(0, 100)).map(repr)


SCHEDULE = {"layers": "28", "boundaries": "16,19,21,24", "ratio": "0.3",
            "lambda": "1.4"}


def schedule_case():
    """The flags of a working `schedule` with one value changed, or the
    modality ratios added, as values argparse accepts."""
    boundary = st.integers(-2, 60) | st.sampled_from([2**63, -2**70])
    changes = st.one_of(
        st.tuples(st.just("layers"), st.integers(-2, 60).map(str)),
        st.tuples(st.just("boundaries"), st.builds(
            lambda b, i, v: ",".join(map(str, b[:i] + [v] + b[i + 1:])),
            st.just([16, 19, 21, 24]), st.integers(0, 3), boundary)),
        st.tuples(st.just("ratio"), RATIOS),
        st.tuples(st.just("lambda"), st.floats().map(repr)
                  | st.floats(1, 2).map(repr)),
        st.tuples(st.just("modality-ratios"),
                  st.tuples(RATIOS, RATIOS).map(",".join)),
    )
    return st.builds(
        lambda change, as_json: (
            ["schedule", *(f"--{k}={v}" for k, v in
                           {**SCHEDULE, change[0]: change[1]}.items())]
            + ["--json"] * as_json, {}),
        changes, st.booleans())


def one_changed(argv, files, changes):
    """(argv, files) with one of the files named in changes replaced by a
    draw from its strategy there."""
    return st.sampled_from(sorted(changes)).flatmap(
        lambda name: changes[name].map(
            lambda new: (argv, {**files, name: new})))


def allocate_case():
    totals = st.none() | st.tuples(st.integers(-2, 40) | st.sampled_from(
        [2**62, 2**63, 10**400]), st.integers(0, 40))
    argv = st.builds(
        lambda rv, ra, tot: (
            ["allocate", "--relevance", "{rel}", "--layout", "{lay}",
             f"--ratio-visual={rv}", f"--ratio-audio={ra}"]
            + ([f"--totals={tot[0]},{tot[1]}"] if tot else [])),
        RATIOS, RATIOS, totals)
    return argv.flatmap(lambda argv: one_changed(
        argv, {"rel": RELEVANCE, "lay": LAYOUT},
        {"rel": mutated(RELEVANCE), "lay": mutated(LAYOUT)}))


RUN = ["run", "--config", "{model}", "--spec", "{spec}", "--trace", "{out}"]
DOCS = {"model": MODEL, "spec": RETENTION, "synth": SYNTH}


def run_case(container):
    return st.one_of(
        one_changed(RUN + ["--synth", "{synth}"], DOCS,
                    {name: mutated(doc) for name, doc in DOCS.items()}),
        one_changed(RUN + ["--input", "{ots}"], DOCS,
                    {"ots": changed_bytes(container)}))


def prune_pre_case(container):
    return one_changed(
        ["prune-pre", "--input", "{ots}", "--spec", "{spec}", "--out",
         "{out}"], {"ots": container, "spec": RETENTION},
        {"ots": changed_bytes(container), "spec": mutated(RETENTION)})


FLOPS = ["flops", "--trace", "{trace}", "--config", "{model}"]


def flops_case(trace):
    return st.sampled_from([FLOPS, FLOPS + ["--json"]]).flatmap(
        lambda argv: one_changed(
            argv, {"trace": trace, "model": MODEL},
            {"trace": changed_lines(trace), "model": mutated(MODEL)}))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A small container and the trace CSV of one run over it."""
    root = tmp_path_factory.mktemp("fuzz-inputs")
    for name, doc in (("model", MODEL), ("spec", RETENTION),
                      ("synth", SYNTH)):
        (root / f"{name}.json").write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--synth", str(root / "synth.json"), "--config",
                     str(root / "model.json"), "--out",
                     str(root / "in.ots")]) == 0
        assert main(["run", "--config", str(root / "model.json"), "--spec",
                     str(root / "spec.json"), "--input", str(root / "in.ots"),
                     "--trace", str(root / "trace.csv")]) == 0
    return (root / "in.ots").read_bytes(), (root / "trace.csv").read_text()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz-cases")


def run_case_in(workdir, argv, files):
    """main(argv) with each {name} in argv a file of files[name], written
    as bytes, text or JSON; returns (exit code, stdout, stderr, warnings)."""
    paths = {"out": str(workdir / "out")}
    for name, content in files.items():
        path = workdir / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif isinstance(content, str):
            path.write_text(content)
        else:
            path.write_text(json.dumps(content))
        paths[name] = str(path)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main([a.format(**paths) for a in argv])
    return rc, out.getvalue(), err.getvalue(), caught


def assert_clean(rc, out, err, caught):
    assert [str(w.message) for w in caught] == []
    if rc == 0:
        assert err == ""
    else:
        assert rc == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(data=st.data())
def test_every_case_exits_cleanly(inputs, workdir, data):
    container, trace = inputs
    argv, files = data.draw(st.one_of(
        schedule_case(), allocate_case(), run_case(container),
        prune_pre_case(container), flops_case(trace)))
    assert_clean(*run_case_in(workdir, argv, files))


HUGE_WIDTH = {**MODEL, "d_model": 10**400}


@pytest.mark.parametrize("argv, model, n_visual", [
    (FLOPS, MODEL, 10**400), (FLOPS, HUGE_WIDTH, None),
    (RUN + ["--synth", "{synth}"], HUGE_WIDTH, None),
], ids=["trace-count-past-float-range", "flops-width-past-float-range",
        "run-width-past-float-range"])
def test_found_cases_exit_with_one_error(inputs, workdir, argv, model,
                                         n_visual):
    # each once ended in a traceback: a count or width too large for a
    # float reached the cost model
    trace = inputs[1]
    if n_visual is not None:
        trace = re.sub(r"# n_visual=\d+", f"# n_visual={n_visual}", trace)
    rc, out, err, caught = run_case_in(workdir, argv, {
        "model": model, "spec": RETENTION, "synth": SYNTH, "trace": trace})
    assert rc == 1
    assert_clean(rc, out, err, caught)
