import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from omniprefill import core
from omniprefill.allocator import BudgetPlan
from omniprefill.core import (
    AUDIO,
    MAX_ROWS,
    MODALITY_NAMES,
    TEXT,
    VISUAL,
    ModelConfig,
    Owned,
    RetentionSpec,
    StreamError,
    TokenStream,
    WindowLayout,
)
from omniprefill.cost import CostReport
from omniprefill.divprune import SelectionResult, win_div_prune
from omniprefill.pipeline import PrefillTrace, SynthSpec, run_pipeline
from omniprefill.selector import LayerSelection


def make_stream(rows, d=4, seed=0):
    """rows: list of (modality, window) in stream order."""
    rng = np.random.default_rng(seed)
    n = len(rows)
    return TokenStream(
        embeddings=rng.normal(size=(n, d)).astype(np.float32),
        modality=np.array([m for m, _ in rows], dtype=np.int64),
        window_id=np.array([w for _, w in rows], dtype=np.int64),
        position=np.arange(n, dtype=np.int64),
    )


MIXED_ROWS = [
    (VISUAL, 0), (VISUAL, 0), (AUDIO, 0),
    (VISUAL, 1), (AUDIO, 1), (AUDIO, 1),
    (TEXT, -1), (TEXT, -1),
]


class TestTokenStream:
    def test_counts_and_shape(self):
        s = make_stream(MIXED_ROWS)
        assert s.n == 8
        assert s.d == 4
        assert s.n_visual == 3
        assert s.n_audio == 3
        assert s.n_text == 2
        assert s.count(TEXT) == 2

    def test_arrays_are_frozen(self):
        s = make_stream(MIXED_ROWS)
        with pytest.raises(ValueError):
            s.embeddings[0, 0] = 9.0
        with pytest.raises(ValueError):
            s.modality[0] = TEXT

    def test_bytes_backed_arrays_are_not_copied(self):
        data = np.arange(8, dtype="<i8").tobytes() + bytes(32)
        ints = np.frombuffer(data, dtype="<i8", count=8)
        emb = np.frombuffer(data, dtype="<f4", offset=64).reshape(8, 1)
        s = TokenStream(embeddings=emb, modality=np.full(8, TEXT),
                        window_id=np.full(8, -1), position=ints)
        assert s.position is ints and s.embeddings is emb

    @pytest.mark.parametrize("source", ["writable", "read-only-view",
                                        "bytearray"])
    def test_mutable_sources_are_copied(self, source):
        if source == "bytearray":
            buf = bytearray(np.arange(8, dtype="<i8").tobytes())
            array = np.frombuffer(buf, dtype="<i8")
            array.setflags(write=False)
        else:
            buf = np.arange(8, dtype=np.int64)
            array = buf
            if source == "read-only-view":
                array = buf.view()
                array.setflags(write=False)
        s = TokenStream(embeddings=np.zeros((8, 1), dtype=np.float32),
                        modality=np.full(8, TEXT), window_id=np.full(8, -1),
                        position=array)
        np.frombuffer(buf, dtype=np.uint8)[0] = 0xFF
        assert array[0] != 0  # the source did change
        assert np.array_equal(s.position, np.arange(8))
        assert not s.position.flags.writeable

    def test_one_source_in_two_fields_is_frozen_once(self):
        # kept and rows naming one array give one read-only copy of it;
        # equal arrays that are two objects stay two copies
        rows = np.arange(5)
        shared = SelectionResult(kept=rows, rows=rows, kept_v=[2], kept_a=[3])
        assert shared.kept is shared.rows
        rows[0] = 9  # a writable source is still copied
        assert shared.rows.tolist() == [0, 1, 2, 3, 4]
        assert not shared.rows.flags.writeable
        apart = SelectionResult(kept=rows.copy(), rows=rows, kept_v=[2],
                                kept_a=[3])
        assert apart.kept is not apart.rows

    def test_owned_arrays_are_adopted_and_callers_copied(self):
        # an array the engine made and wraps in Owned is kept, frozen in
        # place; the same array handed over bare, as a caller would, is
        # copied, so the caller's later writes cannot reach the stream
        def fields():
            return {"embeddings": np.zeros((4, 2), dtype=np.float32),
                    "modality": np.full(4, TEXT),
                    "window_id": np.full(4, -1), "position": np.arange(4)}

        made = fields()
        adopted = TokenStream(**{k: Owned(v) for k, v in made.items()})
        given = fields()
        copied = TokenStream(**given)
        for name in made:
            assert getattr(adopted, name) is made[name]
            assert not made[name].flags.writeable
            assert not np.shares_memory(getattr(copied, name), given[name])
            assert given[name].flags.writeable

    def test_owned_counts_and_selections_are_adopted(self):
        # the drop layers hand their fresh selections and the plan's frozen
        # counts over in Owned; bare arrays from a caller are copied
        b_v, b_a, kept = np.array([2, 1]), np.array([0, 3]), np.arange(6)
        layout = WindowLayout(Owned(b_v), Owned(b_a))
        selection = LayerSelection(layer=17, kept=Owned(kept),
                                   dropped_v=Owned(b_v), dropped_a=b_a)
        assert layout.n_v is b_v and layout.n_a is b_a
        assert selection.kept is kept and selection.dropped_v is b_v
        assert not kept.flags.writeable
        assert not np.shares_memory(selection.dropped_a, b_a)
        mine = np.array([2, 1])
        assert not np.shares_memory(WindowLayout(mine, mine).n_v, mine)
        assert not np.shares_memory(
            LayerSelection(layer=17, kept=mine, dropped_v=[0],
                           dropped_a=[0]).kept, mine)

    @pytest.mark.parametrize("field", ["embeddings", "modality",
                                       "window_id", "position", "all"])
    @pytest.mark.memory
    def test_rows_past_ceiling_rejected(self, field):
        # MAX_ROWS + 1 rows of zero stride, so nothing is allocated: the
        # ceiling is checked on the shapes, before any field is copied
        n = MAX_ROWS + 1
        long = {"embeddings": np.broadcast_to(np.float32(0.0), (n, 1)),
                "modality": np.broadcast_to(np.int64(TEXT), (n,)),
                "window_id": np.broadcast_to(np.int64(-1), (n,)),
                "position": np.broadcast_to(np.int64(0), (n,))}
        fields = {"embeddings": np.zeros((1, 1), dtype=np.float32),
                  "modality": [TEXT], "window_id": [-1], "position": [0]}
        fields.update(long if field == "all" else {field: long[field]})
        tracemalloc.start()
        try:
            with pytest.raises(StreamError, match=(
                    f"a stream holds at most {MAX_ROWS} rows, "
                    f"{'embeddings' if field == 'all' else field} has {n}")):
                TokenStream(**fields)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_rows_at_ceiling_accepted(self, monkeypatch):
        # the ceiling is read when a stream is built; a lower one shows
        # where it falls without 2**31 rows
        monkeypatch.setattr(core, "MAX_ROWS", len(MIXED_ROWS))
        assert make_stream(MIXED_ROWS).n == len(MIXED_ROWS)
        with pytest.raises(StreamError, match="at most 8 rows, embeddings has 9"):
            make_stream(MIXED_ROWS + [(TEXT, -1)])

    def test_take_preserves_rows(self):
        s = make_stream(MIXED_ROWS)
        sub = s.take(np.array([0, 3, 6]))
        assert sub.n == 3
        assert np.array_equal(sub.position, s.position[[0, 3, 6]])
        assert np.array_equal(sub.embeddings, s.embeddings[[0, 3, 6]])

    def test_take_requires_ascending_rows(self):
        # other rows give positions that do not increase, which the
        # constructor refuses as a StreamError, a ValueError
        s = make_stream(MIXED_ROWS)
        with pytest.raises(StreamError, match="not strictly increasing at "
                                              "row 1"):
            s.take(np.array([3, 0]))
        with pytest.raises(ValueError):
            s.take(np.array([2, 2]))

    def test_rows_of(self):
        s = make_stream(MIXED_ROWS)
        assert s.rows_of(VISUAL).tolist() == [0, 1, 3]
        assert s.rows_of(AUDIO).tolist() == [2, 4, 5]
        assert s.rows_of(TEXT).tolist() == [6, 7]

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            TokenStream(
                embeddings=np.zeros((3, 2), dtype=np.float32),
                modality=np.zeros(2, dtype=np.int64),
                window_id=np.zeros(3, dtype=np.int64),
                position=np.arange(3, dtype=np.int64),
            )


class TestWindowLayout:
    def test_from_stream(self):
        s = make_stream(MIXED_ROWS)
        lay = WindowLayout.from_stream(s)
        assert lay.T == 2
        assert lay.n_v.tolist() == [2, 1]
        assert lay.n_a.tolist() == [1, 2]
        assert lay.total_visual == 3
        assert lay.total_audio == 3

    def test_from_stream_padded_windows(self):
        s = make_stream(MIXED_ROWS)
        lay = WindowLayout.from_stream(s, T=4)
        assert lay.T == 4
        assert lay.n_v.tolist() == [2, 1, 0, 0]

    @pytest.mark.parametrize("m, name", [(VISUAL, "visual"), (AUDIO, "audio")])
    def test_from_stream_rejects_negative_window(self, m, name):
        # the stream itself refuses the id, so no layout ever sees it
        with pytest.raises(StreamError, match=f"{name} row 1 has window id "
                                              f"-1; it must be >= 0"):
            WindowLayout.from_stream(
                make_stream([(VISUAL, 0), (m, -1), (TEXT, -1)]))

    def test_text_only_stream(self):
        # a layout always carries at least one (possibly empty) window
        s = make_stream([(TEXT, -1), (TEXT, -1)])
        lay = WindowLayout.from_stream(s)
        assert lay.T == 1
        assert lay.total_visual == 0
        assert lay.total_audio == 0


class TestModelConfig:
    def test_valid(self):
        cfg = ModelConfig(layers=28, d_model=3584, d_ff=18944, n_heads=28,
                          boundaries=(16, 19, 21, 24))
        assert cfg.boundaries == (16, 19, 21, 24)

    @pytest.mark.parametrize("bad", [
        (0, 19, 21, 24),     # shallow boundary below 1
        (19, 16, 21, 24),    # ordering violated
        (16, 22, 21, 24),    # middle boundaries swapped
        (16, 19, 24, 24),    # late boundary not past middle
        (16, 19, 21, 29),    # beyond model depth
    ])
    def test_rejects_bad_boundaries(self, bad):
        with pytest.raises(ValueError):
            ModelConfig(layers=28, d_model=64, d_ff=256, n_heads=4,
                        boundaries=bad)

    def test_layers_at_most_4096(self):
        # every schedule and trace array holds one entry per layer
        ModelConfig(layers=4096, d_model=64, d_ff=256, n_heads=4,
                    boundaries=(16, 19, 21, 24))
        with pytest.raises(ValueError,
                           match=r"^layers must be at most 4096, got 4097$"):
            ModelConfig(layers=4097, d_model=64, d_ff=256, n_heads=4,
                        boundaries=(16, 19, 21, 24))

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            ModelConfig(layers=0, d_model=64, d_ff=256, n_heads=4,
                        boundaries=(1, 2, 3, 4))

    @pytest.mark.parametrize("field", ["d_model", "d_ff", "n_heads"])
    @pytest.mark.parametrize("value", [0, 2**63, 10**400],
                             ids=["zero", "2**63", "10**400"])
    def test_widths_lie_in_int64_range(self, field, value):
        # a width past 2**63 would overflow the cost model's floats
        widths = {"d_model": 64, "d_ff": 256, "n_heads": 4, field: value}
        with pytest.raises(ValueError, match=r"in \[1, 2\*\*63\)"):
            ModelConfig(layers=28, boundaries=(16, 19, 21, 24), **widths)


class TestRetentionSpec:
    def test_range_checks(self):
        with pytest.raises(ValueError):
            RetentionSpec(r_v=1.2, r_a=0.5, lambda_=1.4, tau=0.1)
        with pytest.raises(ValueError):
            RetentionSpec(r_v=0.3, r_a=0.5, lambda_=0.9, tau=0.1)
        with pytest.raises(ValueError):
            RetentionSpec(r_v=0.3, r_a=0.5, lambda_=1.4, tau=0.0)

    @pytest.mark.parametrize("field, value", [
        ("lambda_", math.nan), ("lambda_", math.inf), ("tau", math.nan),
        ("r_v", math.nan),
    ])
    def test_non_finite_values_rejected(self, field, value):
        good = dict(r_v=0.3, r_a=0.5, lambda_=1.4, tau=0.1)
        with pytest.raises(ValueError, match=field.rstrip("_")):
            RetentionSpec(**dict(good, **{field: value}))


def test_result_types_take_only_what_they_cannot_derive():
    # b and totals follow from b_v and b_a, seq_len and kept_text from the
    # kept counts and n_q, flops_total and peak_kv_tokens from the per-layer
    # arrays; none is an argument, and neither are the unread r and formula
    plan = BudgetPlan(b_v=[1, 2, 0], b_a=[3, 0, 0])
    assert plan.b.tolist() == [4, 2, 0] and plan.totals == (3, 3, 6)
    assert not plan.b.flags.writeable
    config = ModelConfig(layers=28, d_model=8, d_ff=16, n_heads=2,
                         boundaries=(16, 19, 21, 24))
    _, trace = run_pipeline(SynthSpec(seed=3, T=2, d=4, n_v=6, n_a=3, n_q=2),
                            config, RetentionSpec(r_v=0.3, r_a=0.6,
                                                  lambda_=1.4, tau=0.1))
    n_q = trace.n_original[2]
    assert np.array_equal(trace.seq_len, trace.kept_v + trace.kept_a + n_q)
    assert trace.kept_text.tolist() == [n_q] * 28
    assert not (trace.seq_len.flags.writeable
                or trace.kept_text.flags.writeable)
    report = CostReport(flops_per_layer=[3.0, 9.0, 1.5],
                        kv_tokens_per_layer=[5, 18, 3], ratio_vs_full=0.5)
    assert report.flops_total == 13.5 and report.peak_kv_tokens == 18
    assert report.formula == CostReport.formula
    assert report.formula.startswith("v1: ")
    trace_args = {f.name: getattr(trace, f.name)
                  for f in dataclasses.fields(trace) if f.init}
    for build, args in [
        (BudgetPlan, dict(b_v=[1], b_a=[1], b=[2])),
        (BudgetPlan, dict(b_v=[1], b_a=[1], totals=(1, 1, 2))),
        (PrefillTrace, dict(trace_args, seq_len=trace.seq_len)),
        (PrefillTrace, dict(trace_args, kept_text=trace.kept_text)),
        (CostReport, dict(flops_per_layer=[1.0], kv_tokens_per_layer=[1],
                          ratio_vs_full=1.0, flops_total=1.0)),
        (CostReport, dict(flops_per_layer=[1.0], kv_tokens_per_layer=[1],
                          ratio_vs_full=1.0, peak_kv_tokens=1)),
        (CostReport, dict(flops_per_layer=[1.0], kv_tokens_per_layer=[1],
                          ratio_vs_full=1.0, formula="v2")),
        (RetentionSpec, dict(r_v=0.3, r_a=0.5, lambda_=1.4, tau=0.1, r=0.4)),
    ]:
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            build(**args)


def layout_check(stream, layout):
    """win_div_prune's check that a layout counts the stream's rows."""
    win_div_prune(stream, layout, None,
                  RetentionSpec(r_v=0.5, r_a=0.5, lambda_=1.0, tau=0.1))


class TestValidateStream:
    """A stream is validated once, when it is built: each invariant is a
    StreamError naming the first faulty row. win_div_prune then checks only
    that the layout it is given counts the stream's rows."""

    def test_clean_stream(self):
        s = make_stream(MIXED_ROWS)
        layout_check(s, WindowLayout.from_stream(s))

    @pytest.mark.parametrize("code", [3, -1, 7])
    def test_unknown_modality_code(self, code):
        rows = MIXED_ROWS[:4] + [(code, 1)] + MIXED_ROWS[5:]
        with pytest.raises(StreamError, match=r"^1 of 8 modality codes are "
                                              r"not 0, 1 or 2, the first at "
                                              r"row 4$"):
            make_stream(rows)

    def test_text_with_window_id(self):
        with pytest.raises(StreamError, match=r"^text row 1 has window id 0; "
                                              r"it must be -1$"):
            make_stream([(VISUAL, 0), (TEXT, 0)])

    @pytest.mark.parametrize("window", [-1, -2])
    def test_negative_window_id(self, window):
        with pytest.raises(StreamError, match=rf"^audio row 2 has window id "
                                              rf"{window}; it must be >= 0$"):
            make_stream([(VISUAL, 0), (TEXT, -1), (AUDIO, window)])

    def test_text_window_id_below_no_window(self):
        with pytest.raises(StreamError, match=r"^text row 0 has window id -2; "
                                              r"it must be -1$"):
            make_stream([(TEXT, -2), (VISUAL, 0)])

    @pytest.mark.parametrize("at", [1, 5, 7])
    def test_position_not_increasing(self, at):
        s = make_stream(MIXED_ROWS)
        position = s.position.copy()
        position[at] = position[at - 1]
        with pytest.raises(StreamError, match=rf"^position not strictly "
                                              rf"increasing at row {at}$"):
            dataclasses.replace(s, position=position)

    def test_window_out_of_range(self):
        # the stream is valid; the layout it is checked against is too short
        s = make_stream([(VISUAL, 0), (VISUAL, 5), (TEXT, -1)])
        with pytest.raises(StreamError, match=r"window id 5 lies outside "
                                              r"\[0, 1\)"):
            layout_check(s, WindowLayout(n_v=np.array([2]),
                                         n_a=np.array([0])))

    def test_window_order_violation(self):
        # visual tokens of window 1 appear before window 0
        with pytest.raises(StreamError, match=r"^window_id decreases along "
                                              r"visual rows at row 1$"):
            make_stream([(VISUAL, 1), (VISUAL, 0), (TEXT, -1)])
        # audio steps back from window 2 to 1 while visual rows stay in order
        with pytest.raises(StreamError, match=r"^window_id decreases along "
                                              r"audio rows at row 4$"):
            make_stream([(AUDIO, 0), (VISUAL, 0), (AUDIO, 2), (VISUAL, 1),
                         (AUDIO, 1)])

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_window_order_checked_across_row_blocks(self, monkeypatch, block):
        # the order check runs in blocks of rows, each carrying a modality's
        # last window id, also across blocks without that modality's rows;
        # the named row is the plain walk's first fault, visual rows first
        monkeypatch.setattr(core, "_CHECK_ROWS", block)
        rng = np.random.default_rng(block)
        for _ in range(200):
            n = int(rng.integers(1, 16))
            mods = rng.choice([VISUAL, AUDIO, TEXT], size=n)
            wins = np.where(mods == TEXT, -1,
                            np.sort(rng.integers(0, 4, size=n)))
            for r in rng.integers(0, n, size=int(rng.integers(0, 3))):
                if mods[r] != TEXT:
                    wins[r] = rng.integers(0, 4)
            want = None
            for m in (VISUAL, AUDIO):
                ids = [(r, w) for r, (c, w) in enumerate(zip(mods, wins))
                       if c == m]
                back = [r for (_, a), (r, b) in zip(ids, ids[1:]) if b < a]
                if back and want is None:
                    want = (MODALITY_NAMES[m], back[0])
            fields = dict(embeddings=np.zeros((n, 1), dtype=np.float32),
                          modality=mods, window_id=wins, position=np.arange(n))
            if want is None:
                TokenStream(**fields)
                continue
            with pytest.raises(StreamError, match=rf"^window_id decreases "
                               rf"along {want[0]} rows at row {want[1]}$"):
                TokenStream(**fields)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_text_embedding(self, value):
        s = make_stream(MIXED_ROWS)
        emb = s.embeddings.copy()
        emb[7, 2] = value
        emb[3, 0] = value  # a visual row: stage 1's norms find it
        with pytest.raises(StreamError, match=r"^text row 7 has a non-finite "
                                              r"embedding$"):
            dataclasses.replace(s, embeddings=emb)

    def test_total_mismatch(self):
        # a total that differs is reported at its first differing window
        s = make_stream(MIXED_ROWS)
        lay = WindowLayout(n_v=np.array([2, 2]), n_a=np.array([1, 2]))
        with pytest.raises(StreamError, match="window 1 holds 1 visual rows, "
                                              "layout declares 2"):
            layout_check(s, lay)

    def test_per_window_mismatch(self):
        s = make_stream(MIXED_ROWS)
        lay = WindowLayout(n_v=np.array([1, 2]), n_a=np.array([2, 1]))
        with pytest.raises(StreamError, match="window 0 holds 2 visual rows, "
                                              "layout declares 1"):
            layout_check(s, lay)
