import dataclasses
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import omniprefill
from omniprefill.cli import main
from omniprefill.core import MAX_GROUP, TEXT, VISUAL, TokenStream
from omniprefill.io import load_synth_spec, read_ots_file, write_ots_file
from omniprefill.pipeline import SynthSpec, synth_generate

MODEL = {"layers": 28, "d_model": 3584, "d_ff": 18944, "n_heads": 28,
         "boundaries": [16, 19, 21, 24]}
RETENTION = {"ratio_visual": 0.30, "ratio_audio": 0.65, "lambda": 1.4,
             "tau": 0.1}
SYNTH = {"seed": 11, "windows": 4, "d": 16, "visual_per_window": 72,
         "audio_per_window": 12, "text_tokens": 10}


@pytest.fixture
def configs(tmp_path):
    paths = {}
    for name, doc in (("model", MODEL), ("retention", RETENTION),
                      ("synth", SYNTH)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


def cli_process(*args):
    """`omniprefill` with these arguments, as a real process."""
    src = os.path.dirname(os.path.dirname(omniprefill.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-W", "error", "-m",
                           "omniprefill.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


def run_process(configs, container, tmp_path):
    """`omniprefill run` on a container, as a real process."""
    return cli_process("run", "--config", configs["model"], "--spec",
                       configs["retention"], "--input", str(container),
                       "--trace", str(tmp_path / "t.csv"))


SCHED = ["schedule", "--layers", "28", "--boundaries", "16,19,21,24",
         "--lambda", "1.4"]


class TestSchedule:
    def test_csv_to_stdout(self, capsys):
        assert main(SCHED + ["--ratio", "0.3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# C=-42.759"
        assert lines[1] == "# delta=0.0295"
        assert len(lines) == 3 + 28

    def test_clipped_edge_prints_positive_zero_delta(self, capsys):
        # lambda*r > 1 with r = 23/28 leaves delta exactly 0: printed
        # unsigned
        assert main(["schedule", "--layers", "28", "--boundaries",
                     "16,19,21,24", "--lambda", "1.5", "--ratio",
                     "0.8214285714285714"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "# delta=0.0000"

    def test_rounding_edge_schedules(self, capsys):
        # lambda 1.2 lies just below 12/10, so delta rounds to -1.6e-17;
        # it is the edge delta = 0, not an infeasible schedule
        assert main(["schedule", "--layers", "12", "--boundaries",
                     "4,6,9,11", "--ratio", "0.8", "--lambda", "1.2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "# delta=0.0000"
        assert lines[3] == "1,shallow,0.960000,0.960000"

    def test_layers_past_4096_is_domain_error(self, capsys):
        assert main(["schedule", "--layers", "4097", "--boundaries",
                     "16,19,21,24", "--lambda", "1.4", "--ratio", "0.3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: layers must be at most 4096, got 4097\n"

    def test_percent_and_fraction_agree(self, capsys):
        main(SCHED + ["--ratio", "0.3"])
        as_fraction = capsys.readouterr().out
        main(SCHED + ["--ratio", "30"])
        as_percent = capsys.readouterr().out
        assert as_fraction == as_percent

    def test_lambda_is_not_a_percentage(self, capsys):
        # 140 stays 140 for --lambda (and is then far too steep to schedule),
        # while the same digits in a ratio flag would mean 1.40
        rc = main(["schedule", "--layers", "28", "--boundaries", "16,19,21,24",
                   "--lambda", "140", "--ratio", "0.3"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_ratio_above_100_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(SCHED + ["--ratio", "140"])
        assert exc.value.code == 2

    def test_split_modality_ratios(self, capsys):
        main(SCHED + ["--ratio", "0.35", "--modality-ratios", "30,65"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("# delta_v=")
        assert lines[2].startswith("# delta_a=")

    def test_json_to_file(self, tmp_path, capsys):
        out = tmp_path / "sched.json"
        assert main(SCHED + ["--ratio", "0.3", "--json", "--out",
                             str(out)]) == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(out.read_text())
        assert len(doc["layers"]) == 28
        assert doc["C"] == pytest.approx(-42.7586, abs=1e-3)

    def test_infeasible_is_domain_error(self, capsys):
        rc = main(SCHED[:-2] + ["--lambda", "1.0", "--ratio", "0.3"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_boundaries(self):
        with pytest.raises(SystemExit) as exc:
            main(["schedule", "--layers", "28", "--boundaries", "16,19,21",
                  "--lambda", "1.4", "--ratio", "0.3"])
        assert exc.value.code == 2

    def test_nan_ratio_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(SCHED + ["--ratio", "nan"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [
        ["--boundaries", "16,19,21,24", "--lambda", "nan"],
        ["--boundaries", "16,19,21,24", "--lambda", "inf"],
        ["--boundaries", "16,19,21,24", "--lambda", "0.5"],
        ["--boundaries", "19,16,21,24", "--lambda", "1.4"],
    ])
    def test_bad_lambda_or_boundaries_is_domain_error(self, flags):
        # as a real process: a one-line message and exit 1, no traceback
        proc = cli_process("schedule", "--layers", "28", "--ratio", "0.3",
                           *flags)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr


class TestGen:
    def test_writes_container(self, configs, tmp_path, capsys):
        out = tmp_path / "s.ots"
        assert main(["gen", "--synth", configs["synth"], "--out",
                     str(out)]) == 0
        assert capsys.readouterr().out.startswith("wrote")
        stream, sections, header = read_ots_file(out)
        assert stream.n == 4 * (72 + 12) + 10
        assert header["t"] == 4
        assert "saliency/w0/visual" in sections
        assert "saliency/w3/audio" in sections

    def test_deterministic_bytes(self, configs, tmp_path):
        a, b = tmp_path / "a.ots", tmp_path / "b.ots"
        main(["gen", "--synth", configs["synth"], "--out", str(a)])
        main(["gen", "--synth", configs["synth"], "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_config_adds_query_sections(self, configs, tmp_path):
        out = tmp_path / "s.ots"
        main(["gen", "--synth", configs["synth"], "--config",
              configs["model"], "--out", str(out)])
        _, sections, _ = read_ots_file(out)
        assert "query_logits/layer17/visual" in sections
        assert "query_logits/layer24/audio" in sections


class TestPrunePre:
    def test_reports_and_emits(self, configs, tmp_path, capsys):
        container = tmp_path / "s.ots"
        main(["gen", "--synth", configs["synth"], "--out", str(container)])
        capsys.readouterr()
        out = tmp_path / "kept.json"
        assert main(["prune-pre", "--input", str(container), "--spec",
                     configs["retention"], "--out", str(out)]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("kept visual ")
        assert line.endswith("text 10/10")
        doc = json.loads(out.read_text())
        kept_v = sum(doc["per_window"]["visual"])
        kept_a = sum(doc["per_window"]["audio"])
        assert f"visual {kept_v}/288" in line
        assert f"audio {kept_a}/48" in line
        assert len(doc["kept_positions"]) == kept_v + kept_a + 10
        positions = doc["kept_positions"]
        assert positions == sorted(positions)

    def test_bad_container_is_domain_error(self, configs, tmp_path, capsys):
        bad = tmp_path / "junk.ots"
        bad.write_bytes(b"NOPE" + b"\x00" * 32)
        rc = main(["prune-pre", "--input", str(bad), "--spec",
                   configs["retention"]])
        assert rc == 1
        assert "bad magic" in capsys.readouterr().err


class TestAllocate:
    def files(self, tmp_path):
        rel = tmp_path / "rel.json"
        rel.write_text(json.dumps({"s_v": [0.8, 0.2], "s_a": [0.5, 0.5]}))
        lay = tmp_path / "lay.json"
        lay.write_text(json.dumps({"n_v": [4, 4], "n_a": [2, 2]}))
        return str(rel), str(lay)

    def test_worked_example_csv(self, tmp_path, capsys):
        rel, lay = self.files(tmp_path)
        assert main(["allocate", "--relevance", rel, "--layout", lay,
                     "--ratio-visual", "0.5", "--ratio-audio", "0.5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["window,B,B_v,B_a", "0,4,3,1", "1,2,1,1"]

    def test_percent_ratios(self, tmp_path, capsys):
        rel, lay = self.files(tmp_path)
        main(["allocate", "--relevance", rel, "--layout", lay,
              "--ratio-visual", "50", "--ratio-audio", "50"])
        assert "0,4,3,1" in capsys.readouterr().out

    def test_json_totals(self, tmp_path, capsys):
        rel, lay = self.files(tmp_path)
        main(["allocate", "--relevance", rel, "--layout", lay,
              "--ratio-visual", "0.5", "--ratio-audio", "0.5", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["totals"] == {"visual": 4, "audio": 2, "combined": 6}

    def test_explicit_totals_flag(self, tmp_path, capsys):
        rel, lay = self.files(tmp_path)
        main(["allocate", "--relevance", rel, "--layout", lay,
              "--ratio-visual", "0.5", "--ratio-audio", "0.5",
              "--totals", "8,4"])
        explicit = capsys.readouterr().out
        main(["allocate", "--relevance", rel, "--layout", lay,
              "--ratio-visual", "0.5", "--ratio-audio", "0.5"])
        assert explicit == capsys.readouterr().out

    def test_oversized_totals_domain_error(self, tmp_path, capsys):
        rel, lay = self.files(tmp_path)
        rc = main(["allocate", "--relevance", rel, "--layout", lay,
                   "--ratio-visual", "1.0", "--ratio-audio", "1.0",
                   "--totals", "80,40"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_length_mismatch_domain_error(self, tmp_path, capsys):
        _, lay = self.files(tmp_path)
        rel = tmp_path / "short.json"
        rel.write_text(json.dumps({"s_v": [1.0], "s_a": [1.0]}))
        rc = main(["allocate", "--relevance", str(rel), "--layout", lay,
                   "--ratio-visual", "0.5", "--ratio-audio", "0.5"])
        assert rc == 1
        assert "must match" in capsys.readouterr().err

    @pytest.mark.parametrize("totals, message", [
        ("-5,4", "total N_v must be finite and non-negative, got -5"),
        (f"4,{10**400}", f"total N_a must be finite and non-negative, got "
                         f"{10**400}"),
    ], ids=["negative", "beyond-float-range"])
    def test_bad_totals_domain_error(self, tmp_path, totals, message):
        # as a real process: a negative original total is refused, not
        # turned into a negative visual budget per window, and one too
        # large for a float is refused, not a traceback
        (tmp_path / "rel.json").write_text(
            json.dumps({"s_v": [0.5, 0.5], "s_a": [0.5, 0.5]}))
        (tmp_path / "lay.json").write_text(
            json.dumps({"n_v": [4, 4], "n_a": [2, 2]}))
        proc = cli_process("allocate", "--relevance", str(tmp_path / "rel.json"),
                           "--layout", str(tmp_path / "lay.json"),
                           "--ratio-visual", "0.3", "--ratio-audio", "0.5",
                           f"--totals={totals}")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("s_v, s_a, message", [
        ([1e308, 1e308], [0.5, 0.5], "window 0: relevance weights "
         "s_v=1e+308, s_a=0.5 overflow its budget split"),
        ([1.2e308, 0.6e308], [1.2e308, 0.6e308],
         "relevance weights sum past the float range"),
        ([8e307, 8e307, 2e307], [0, 0, 0],
         "relevance weights sum past the float range"),
    ], ids=["split", "window-weight", "weight-sum"])
    def test_overflowing_weights_domain_error(self, tmp_path, s_v, s_a,
                                              message):
        # as a real process: weights that overflow the split, a window's
        # weight or the weights' sum are refused in one line, with no numpy
        # warning, not printed as budgets of -2**63 or placed by slot order
        (tmp_path / "rel.json").write_text(
            json.dumps({"s_v": s_v, "s_a": s_a}))
        (tmp_path / "lay.json").write_text(json.dumps(
            {"n_v": [4] * len(s_v), "n_a": [2 * bool(a) for a in s_a]}))
        proc = cli_process("allocate", "--relevance", str(tmp_path / "rel.json"),
                           "--layout", str(tmp_path / "lay.json"),
                           "--ratio-visual", "0.3", "--ratio-audio", "0.5")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("relevance, message", [
        ({"s_v": ["0.5", True], "s_a": [0.5, 0.5]},
         "relevance key 's_v' is malformed"),
        ({"s_v": [0.5, 0.5], "s_a": [0.5, True]},
         "relevance key 's_a' is malformed"),
        ({"s_v": [0.5, 0.5], "s_a": [0.5, 0.5], "tau": "0.1"},
         "unknown relevance keys: tau"),
        ({"s_v": [0.5, 0.5], "s_a": [0.5, 0.5], "tau": True},
         "unknown relevance keys: tau"),
    ], ids=["string-and-bool-weights", "bool-weight", "string-tau",
            "bool-tau"])
    def test_loose_numbers_are_refused(self, tmp_path, relevance, message):
        # weights are finite JSON numbers, as every config number is: a
        # string or a bool is not read as one. allocate reads no
        # temperature, so a tau key is refused whatever its value
        (tmp_path / "rel.json").write_text(json.dumps(relevance))
        (tmp_path / "lay.json").write_text(
            json.dumps({"n_v": [4, 4], "n_a": [2, 2]}))
        proc = cli_process("allocate", "--relevance", str(tmp_path / "rel.json"),
                           "--layout", str(tmp_path / "lay.json"),
                           "--ratio-visual", "0.3", "--ratio-audio", "0.5")
        assert proc.returncode == 1
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"error: {message}")

    @pytest.mark.parametrize("relevance, layout", [
        ({"s_v": [-1, 0.5], "s_a": [0.5, 0.5]}, None),
        ('{"s_v": [Infinity, 0.5], "s_a": [0.5, 0.5]}', None),
        ('{"s_v": [NaN, 0.5], "s_a": [0.5, 0.5]}', None),
        ({"s_v": ["a", 0.5], "s_a": [0.5, 0.5]}, None),
        ({"s_v": [[1, 2], [3]], "s_a": [0.5, 0.5]}, None),
        (None, {"n_v": [-1, 4], "n_a": [2, 2]}),
        (None, {"n_v": [], "n_a": []}),
        (None, {"n_v": [4.9, 4], "n_a": [2, 2]}),
        (None, {"n_v": [4, 4], "n_a": [2, 2.5]}),
        (None, {"n_v": [True, 4], "n_a": [2, 2]}),
        ({"s_v": [0.25] * 4, "s_a": [0] * 4},
         {"n_v": [2**62] * 4, "n_a": [0] * 4}),
    ], ids=["negative-weight", "inf-weight", "nan-weight", "string-weight",
            "nested-weights", "negative-count", "empty-layout",
            "fractional-count", "fractional-audio-count", "boolean-count",
            "counts-summing-past-int64"])
    def test_bad_document_is_domain_error(self, tmp_path, relevance, layout):
        # as a real process: exit 1 and one line, never a plan or a traceback
        docs = {"rel": relevance or {"s_v": [0.5, 0.5], "s_a": [0.5, 0.5]},
                "lay": layout or {"n_v": [4, 4], "n_a": [2, 2]}}
        for name, doc in docs.items():
            (tmp_path / f"{name}.json").write_text(
                doc if isinstance(doc, str) else json.dumps(doc))
        proc = cli_process("allocate", "--relevance", str(tmp_path / "rel.json"),
                           "--layout", str(tmp_path / "lay.json"),
                           "--ratio-visual", "0.5", "--ratio-audio", "0.5")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr


class TestRun:
    def test_synth_run(self, configs, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        assert main(["run", "--config", configs["model"], "--spec",
                     configs["retention"], "--synth", configs["synth"],
                     "--trace", str(trace)]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("final_len=10 ")
        assert "mean_trr_visual=" in line and "flops_ratio=" in line
        assert trace.exists()

    def test_deterministic_trace(self, configs, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            main(["run", "--config", configs["model"], "--spec",
                  configs["retention"], "--synth", configs["synth"],
                  "--trace", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_container_input_matches_synth(self, configs, tmp_path, capsys):
        # a container generated with per-layer query sections carries
        # everything the synthetic oracle knows, so both paths must agree
        container = tmp_path / "s.ots"
        main(["gen", "--synth", configs["synth"], "--config",
              configs["model"], "--out", str(container)])
        t_synth, t_cont = tmp_path / "synth.csv", tmp_path / "cont.csv"
        main(["run", "--config", configs["model"], "--spec",
              configs["retention"], "--synth", configs["synth"],
              "--trace", str(t_synth)])
        synth_line = capsys.readouterr().out
        assert main(["run", "--config", configs["model"], "--spec",
                     configs["retention"], "--input", str(container),
                     "--trace", str(t_cont)]) == 0
        cont_line = capsys.readouterr().out
        assert t_synth.read_bytes() == t_cont.read_bytes()
        assert synth_line.splitlines()[-1] == cont_line.splitlines()[-1]

    def test_container_window_count_is_honoured(self, configs, tmp_path):
        # 4 windows of tokens in a container whose header declares t = 6:
        # run and prune-pre must both count the two trailing empty windows
        stream, _ = synth_generate(SynthSpec(seed=3, T=4, d=8, n_v=6, n_a=2,
                                             n_q=3))
        container = tmp_path / "t6.ots"
        write_ots_file(str(container), stream, T=6)
        kept = tmp_path / "kept.json"
        assert main(["prune-pre", "--input", str(container), "--spec",
                     configs["retention"], "--out", str(kept)]) == 0
        windows = json.loads(kept.read_text())["per_window"]
        assert len(windows["visual"]) == len(windows["audio"]) == 6
        trace = tmp_path / "t.csv"
        assert main(["run", "--config", configs["model"], "--spec",
                     configs["retention"], "--input", str(container),
                     "--trace", str(trace)]) == 0
        counted = len(windows["visual"])
        assert f"# windows={counted}" in trace.read_text().splitlines()

    def test_input_and_synth_exclusive(self, configs, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", configs["model"], "--spec",
                  configs["retention"], "--synth", configs["synth"],
                  "--input", "x.ots", "--trace", str(tmp_path / "t.csv")])
        assert exc.value.code == 2

    def test_infeasible_retention(self, configs, tmp_path, capsys):
        spec = tmp_path / "full.json"
        spec.write_text(json.dumps({"ratio_visual": 1.0, "ratio_audio": 1.0,
                                    "lambda": 1.0, "tau": 0.1}))
        rc = main(["run", "--config", configs["model"], "--spec", str(spec),
                   "--synth", configs["synth"],
                   "--trace", str(tmp_path / "t.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("lambda", "NaN"),
                                            ("lambda", "Infinity"),
                                            ("tau", "NaN")])
    def test_non_finite_spec_value(self, configs, tmp_path, capsys, key,
                                   value):
        # json reads NaN and Infinity as floats; the spec must refuse them
        spec = tmp_path / "nan.json"
        spec.write_text(json.dumps(RETENTION).replace(
            f'"{key}": {RETENTION[key]}', f'"{key}": {value}'))
        assert value in spec.read_text()
        rc = main(["run", "--config", configs["model"], "--spec", str(spec),
                   "--synth", configs["synth"],
                   "--trace", str(tmp_path / "t.csv")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_unknown_spec_key(self, configs, tmp_path, capsys):
        spec = tmp_path / "typo.json"
        spec.write_text(json.dumps(dict(RETENTION, lamda=1.4)))
        rc = main(["run", "--config", configs["model"], "--spec", str(spec),
                   "--synth", configs["synth"],
                   "--trace", str(tmp_path / "t.csv")])
        assert rc == 1
        assert "unknown retention spec keys" in capsys.readouterr().err

    @pytest.mark.parametrize("name, edit, message", [
        ("model", {"layers": None}, "model config key 'layers' is malformed"),
        ("synth", {"seed": None}, "synth spec key 'seed' is malformed"),
        ("retention", {"ratio_visual": [1]},
         "retention spec key 'ratio_visual' is malformed"),
        ("synth", {"planted_windows": 5},
         "synth spec key 'planted_windows' is malformed"),
        ("model", b"\xff", "is not JSON: 'utf-8' codec can't decode"),
        # numbers of the wrong kind, which int() would have read
        ("synth", {"planted_windows": "12"},
         "synth spec key 'planted_windows' is malformed: '12'"),
        ("model", {"layers": 28.9}, "model config key 'layers' is malformed"),
        ("model", {"d_model": True},
         "model config key 'd_model' is malformed: True"),
        ("model", {"boundaries": [16, 19, 21, 24.5]},
         "model config key 'boundaries' is malformed"),
        ("model", {"layers": 4097}, "layers must be at most 4096, got 4097"),
        # sizes past the SynthSpec bounds, refused before anything is drawn
        ("synth", {"audio_per_window": 4097},
         "n_v and n_a must be at most 4096"),
        ("synth", {"windows": 10**9, "visual_per_window": 0,
                   "audio_per_window": 0}, "T at most the 10 tokens"),
        ("synth", {"windows": 2**20, "d": 2},
         "tokens x d at most 134217728; got T=1048576 d=2"),
    ], ids=["null-layers", "null-seed", "list-ratio", "scalar-planted",
            "not-utf8", "string-planted", "fractional-layers",
            "bool-d-model", "fractional-boundary", "layers-past-4096",
            "group-past-4096", "windows-past-tokens", "entries-past-2**27"])
    def test_malformed_config_is_domain_error(self, configs, name, edit,
                                              message):
        # as a real process: exit 1 and one error line, never a traceback
        doc = {"model": MODEL, "synth": SYNTH, "retention": RETENTION}[name]
        with open(configs[name], "wb") as fh:
            fh.write(edit + json.dumps(doc).encode() if isinstance(edit, bytes)
                     else json.dumps(dict(doc, **edit)).encode())
        proc = cli_process("run", "--config", configs["model"], "--spec",
                           configs["retention"], "--synth", configs["synth"],
                           "--trace", os.devnull)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        assert message in proc.stderr

    @pytest.mark.parametrize("command", ["run", "prune-pre"])
    @pytest.mark.parametrize("t", [2.7, "2"])
    def test_mistyped_header_t_is_domain_error(self, configs, tmp_path,
                                               command, t):
        # read as 2 by int(), the t of a container is now refused
        good = tmp_path / "good.ots"
        main(["gen", "--synth", configs["synth"], "--out", str(good)])
        container = tmp_path / "bad.ots"
        container.write_bytes(patched(good.read_bytes(), "t", None, t))
        if command == "run":
            proc = run_process(configs, container, tmp_path)
        else:
            proc = cli_process("prune-pre", "--input", str(container),
                               "--spec", configs["retention"])
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (f"error: header 't' is malformed: {t!r} (an "
                               f"integer is needed, not "
                               f"{type(t).__name__})\n")

    def test_wrong_length_saliency_is_domain_error(self, configs, tmp_path):
        # run as a real process: a bad section must end in exit code 1 and
        # a one-line message, never a traceback
        stream, oracle = synth_generate(load_synth_spec(configs["synth"]))
        sections = {"saliency/w0/visual": oracle.saliency(0, VISUAL, 72)[:5]}
        container = tmp_path / "bad.ots"
        write_ots_file(str(container), stream, sections, T=4)
        proc = run_process(configs, container, tmp_path)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: saliency section for window 0")

    @pytest.mark.parametrize("command", ["run", "prune-pre"])
    def test_group_past_ceiling_is_domain_error(self, configs, tmp_path,
                                                command):
        # 4,097 visual rows of width 1 in window 1: a small container whose
        # group would need a 64 MiB distance block
        n = 1 + MAX_GROUP + 1 + 2
        stream = TokenStream(
            embeddings=np.ones((n, 1), dtype=np.float32),
            modality=np.array([VISUAL] * (n - 2) + [TEXT] * 2),
            window_id=np.array([0] + [1] * (MAX_GROUP + 1) + [-1] * 2),
            position=np.arange(n))
        container = tmp_path / "big.ots"
        write_ots_file(str(container), stream, T=2)
        proc = (run_process(configs, container, tmp_path)
                if command == "run" else
                cli_process("prune-pre", "--input", str(container), "--spec",
                            configs["retention"]))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (f"error: window 1 holds {MAX_GROUP + 1} visual "
                               f"rows; a group may hold at most "
                               f"{MAX_GROUP}\n")

    def test_duplicate_section_name_is_domain_error(self, configs,
                                                    tmp_path):
        # a table naming a section twice would read as its second block
        stream, oracle = synth_generate(load_synth_spec(configs["synth"]))
        sections = {f"saliency/w{t}/visual": oracle.saliency(t, VISUAL, 72)
                    for t in (0, 1)}
        good = tmp_path / "good.ots"
        write_ots_file(str(good), stream, sections, T=4)
        data = good.read_bytes()
        # both names are as long, so the header keeps its length
        container = tmp_path / "twice.ots"
        container.write_bytes(data.replace(b'"saliency/w1/visual"',
                                           b'"saliency/w0/visual"'))
        proc = run_process(configs, container, tmp_path)
        assert proc.returncode == 1
        assert proc.stderr == ("error: section 'saliency/w0/visual' at entry "
                               "1 repeats the name of entry 0\n")
        assert run_process(configs, good, tmp_path).returncode == 0

    @pytest.mark.parametrize("field, entries, value", [
        ("saliency/w1/visual", slice(3, 4), np.nan),
        # every visual token of window 1, so some survive stage 1
        ("query_logits/layer17/visual", slice(72, 144), np.inf),
        # rows 84..155 are window 1's visual tokens, row 0 is window 0's first
        ("embeddings", (90, 2), np.nan),
        ("window_id", 0, -1),
        # window 3's rows (visual and audio) moved past the header's t = 4
        ("window_id", slice(252, 336), 9),
        # a header t far past the token count would size every per-window
        # array by t, not by the data
        ("t", None, 10**7),
    ], ids=["nan-saliency", "inf-query-logit", "nan-visual-embedding",
            "negative-window-id", "window-id-past-t", "t-past-token-count"])
    def test_non_finite_signal_is_domain_error(self, configs, tmp_path,
                                               field, entries, value):
        good = tmp_path / "good.ots"
        main(["gen", "--synth", configs["synth"], "--config",
              configs["model"], "--out", str(good)])
        container = tmp_path / "bad.ots"
        if field in ("window_id", "t"):
            # write_ots refuses these, so patch the bytes of a valid one
            container.write_bytes(patched(good.read_bytes(), field, entries,
                                          value))
        else:
            stream, sections, header = read_ots_file(good)
            arrays = dict(sections, embeddings=stream.embeddings)
            arrays[field] = arrays[field].copy()
            arrays[field][entries] = value
            stream = dataclasses.replace(stream,
                                         embeddings=arrays.pop("embeddings"))
            write_ots_file(str(container), stream, arrays,
                           generator=header["generator"], T=header["t"])
        proc = run_process(configs, container, tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr


def patched(data: bytes, field: str, entries, value) -> bytes:
    """Container bytes with window_id[entries] or the header t set to
    value; the header is re-padded as write_ots pads it."""
    (header_len,) = struct.unpack("<Q", data[4:12])
    header = json.loads(data[12 : 12 + header_len])
    if field == "t":
        raw = json.dumps(dict(header, t=value), sort_keys=True,
                         separators=(",", ":")).encode()
        raw += b" " * (-(12 + len(raw)) % 8)
        return (data[:4] + struct.pack("<Q", len(raw)) + raw
                + data[12 + header_len :])
    n = header["n"]
    at = 12 + header_len + 8 * n  # the window-id column
    column = np.frombuffer(data, "<i8", count=n, offset=at).copy()
    column[entries] = value
    return data[:at] + column.tobytes() + data[at + 8 * n :]


class TestFlops:
    def test_prices_a_run_trace(self, configs, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        main(["run", "--config", configs["model"], "--spec",
              configs["retention"], "--synth", configs["synth"],
              "--trace", str(trace)])
        run_line = capsys.readouterr().out.strip()
        printed = float(run_line.split("flops_ratio=")[1])
        assert main(["flops", "--trace", str(trace), "--config",
                     configs["model"], "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ratio_vs_full"] == pytest.approx(printed, abs=5e-7)
        assert doc["peak_kv_tokens"] == int(doc["kv_tokens_per_layer"][0])

    def test_peak_is_the_longest_layer(self, tmp_path):
        # a hand-written trace may rise: its peak is its longest layer,
        # not its first
        (tmp_path / "model.json").write_text(json.dumps(
            {"layers": 3, "d_model": 8, "d_ff": 16, "n_heads": 2,
             "boundaries": [1, 2, 2, 3]}))
        (tmp_path / "trace.csv").write_text(
            "# n_visual=10\n# n_audio=5\n# n_text=3\n"
            "layer,seq_len,kept_visual,kept_audio,kept_text\n"
            "1,5,1,1,3\n2,18,10,5,3\n3,3,0,0,3\n")
        argv = ("flops", "--trace", str(tmp_path / "trace.csv"),
                "--config", str(tmp_path / "model.json"))
        proc = cli_process(*argv)
        assert proc.returncode == 0 and proc.stderr == ""
        assert "# peak_kv_tokens=18" in proc.stdout.splitlines()
        proc = cli_process(*argv, "--json")
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout)["peak_kv_tokens"] == 18

    def test_missing_trace_file(self, configs, tmp_path, capsys):
        rc = main(["flops", "--trace", str(tmp_path / "nope.csv"),
                   "--config", configs["model"]])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestMalformedTrace:
    @pytest.fixture
    def trace_lines(self, configs, tmp_path):
        """A run's trace CSV lines, and the index of its layer-1 row."""
        trace = tmp_path / "trace.csv"
        main(["run", "--config", configs["model"], "--spec",
              configs["retention"], "--synth", configs["synth"],
              "--trace", str(trace)])
        lines = trace.read_text().splitlines()
        at = lines.index("layer,seq_len,kept_visual,kept_audio,kept_text") + 1
        assert lines[at].startswith("1,")
        return lines, at

    @pytest.mark.parametrize("edit, message", [
        (lambda row: "x" + row[1:], "layer and seq_len must be integers"),
        (lambda row: "1,99999999999999999999999" + row[row.index(",", 2):],
         "seq_len 99999999999999999999999 lies outside"),
        (lambda row: "1,-5" + row[row.index(",", 2):],
         "seq_len -5 lies outside"),
    ], ids=["non-integer-layer", "seq-len-past-int64", "negative-seq-len"])
    def test_bad_row_is_domain_error(self, configs, tmp_path, trace_lines,
                                     edit, message):
        lines, at = trace_lines
        lines[at] = edit(lines[at])
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        proc = cli_process("flops", "--trace", str(bad), "--config",
                           configs["model"])
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: line {at + 1}: ")
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_layer_count_mismatch_is_domain_error(self, configs, tmp_path,
                                                  trace_lines):
        lines, at = trace_lines
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines[: at + 1]) + "\n")
        proc = cli_process("flops", "--trace", str(bad), "--config",
                           configs["model"])
        assert proc.returncode == 1
        assert proc.stderr == "error: trace covers 1 layers, config has 28\n"

    def test_trace_not_utf8_is_domain_error(self, configs, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_bytes(b"# layers=28\n\xff\xfe\n")
        proc = cli_process("flops", "--trace", str(trace), "--config",
                           configs["model"])
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: trace CSV {trace} is not "
                                      f"UTF-8: ")
        assert proc.stderr.count("\n") == 1


class TestUsage:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--out", "x.ots"])
        assert exc.value.code == 2
