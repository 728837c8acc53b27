import copy
import dataclasses
import json
import math
import struct
import warnings
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omniprefill.allocator import allocate
from omniprefill.core import (
    AUDIO,
    TEXT,
    VISUAL,
    ModelConfig,
    RetentionSpec,
    StreamError,
    TokenStream,
    WindowLayout,
)
from omniprefill.cost import trace_flops
from omniprefill.io import (
    COLUMNS,
    MAGIC,
    ConfigError,
    ContainerFormatError,
    budget_csv,
    budget_json,
    cost_csv,
    cost_json,
    load_model_config,
    load_retention_spec,
    load_synth_spec,
    parse_trace_csv,
    read_ots,
    read_ots_file,
    schedule_csv,
    schedule_json,
    trace_csv,
    write_ots,
    write_ots_file,
)
from omniprefill.pipeline import SynthSpec, run_pipeline, synth_generate
from omniprefill.schedule import build_schedule, solve_delta

QWEN25 = ModelConfig(layers=28, d_model=3584, d_ff=18944, n_heads=28,
                     boundaries=(16, 19, 21, 24))


def tiny_stream():
    # 2 visual + 1 audio in window 0, 2 visual in window 1, 2 text
    emb = np.arange(28, dtype=np.float32).reshape(7, 4) / 7.0
    return TokenStream(
        embeddings=emb,
        modality=np.array([VISUAL, VISUAL, AUDIO, VISUAL, VISUAL, TEXT, TEXT]),
        window_id=np.array([0, 0, 0, 1, 1, -1, -1]),
        position=np.arange(7),
    )


def repack(data: bytes, mutate) -> bytes:
    """Re-emit container bytes with the JSON header altered by mutate(dict),
    padded as write_ots pads it."""
    (header_len,) = struct.unpack("<Q", data[4:12])
    header = json.loads(data[12 : 12 + header_len])
    mutate(header)
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    raw += b" " * (-(12 + len(raw)) % 8)
    return data[:4] + struct.pack("<Q", len(raw)) + raw + data[12 + header_len :]


def column_offset(data: bytes, key: str, row: int = 0) -> int:
    """Byte offset of one entry of an int64 column."""
    (header_len,) = struct.unpack("<Q", data[4:12])
    n = json.loads(data[12 : 12 + header_len])["n"]
    return 12 + header_len + 8 * (n * COLUMNS.index(key) + row)


def poke_column(data: bytes, key: str, row: int, value: int) -> bytes:
    """Container bytes with one entry of an int64 column replaced."""
    at = column_offset(data, key, row)
    return data[:at] + struct.pack("<q", value) + data[at + 8 :]


def poke_embedding(data: bytes, row: int, col: int, value: float) -> bytes:
    """Container bytes with one embedding entry replaced."""
    (header_len,) = struct.unpack("<Q", data[4:12])
    header = json.loads(data[12 : 12 + header_len])
    at = 12 + header_len + 24 * header["n"] + 4 * (row * header["d"] + col)
    return data[:at] + struct.pack("<f", value) + data[at + 4 :]


def header_edit(mutate):
    return lambda data: repack(data, mutate)


def entry_edit(index, **fields):
    """A header mutation setting fields of one entry of the columnar
    section table."""
    def mutate(header):
        for key, value in fields.items():
            header["sections"][key][index] = value
    return mutate


def add_entry(header, **fields):
    """Append one entry to the columnar section table of header."""
    for key, value in fields.items():
        header["sections"][key].append(value)


class TestRoundTrip:
    def test_stream_fields_survive(self):
        stream = tiny_stream()
        sections = {"saliency/w0/visual": np.array([0.5, 1.5], dtype=np.float32)}
        data = write_ots(stream, sections, generator={"kind": "test"}, T=2)
        back, back_sections, header = read_ots(data)
        assert np.array_equal(back.embeddings, stream.embeddings)
        assert np.array_equal(back.modality, stream.modality)
        assert np.array_equal(back.window_id, stream.window_id)
        assert np.array_equal(back.position, stream.position)
        assert np.array_equal(back_sections["saliency/w0/visual"],
                              sections["saliency/w0/visual"])
        assert header["n"] == 7 and header["d"] == 4 and header["t"] == 2
        assert header["counts"] == {"visual": 4, "audio": 1, "text": 2}
        assert header["generator"] == {"kind": "test"}

    def test_synth_stream_round_trip(self):
        stream, _ = synth_generate(SynthSpec(seed=9, T=3, d=8, n_v=6, n_a=2,
                                             n_q=4))
        back, sections, header = read_ots(write_ots(stream))
        assert np.array_equal(back.embeddings, stream.embeddings)
        assert sections == {}
        assert header["t"] == 3

    def test_multi_section_shapes(self):
        stream = tiny_stream()
        sections = {
            "query_logits/layer17/visual": np.ones((3, 4), dtype=np.float32),
            "saliency/w1/visual": np.array([2.0, 3.0], dtype=np.float32),
        }
        _, back, _ = read_ots(write_ots(stream, sections))
        assert back["query_logits/layer17/visual"].shape == (3, 4)
        assert back["saliency/w1/visual"].shape == (2,)

    def test_minimal_container(self):
        stream = TokenStream(
            embeddings=np.array([[0.25]], dtype=np.float32),
            modality=np.array([TEXT]),
            window_id=np.array([-1]),
            position=np.array([0]),
        )
        back, _, header = read_ots(write_ots(stream))
        assert back.n == 1 and back.d == 1
        assert header["t"] == 1  # text-only still occupies one window

    def test_file_round_trip(self, tmp_path):
        stream = tiny_stream()
        path = tmp_path / "s.ots"
        write_ots_file(path, stream, T=2)
        back, _, _ = read_ots_file(path)
        assert np.array_equal(back.position, stream.position)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ContainerFormatError, match="cannot read"):
            read_ots_file(tmp_path / "absent.ots")

    def test_layout(self):
        stream = tiny_stream()
        data = write_ots(stream, {"x": np.ones(3, dtype=np.float32)}, T=2)
        assert data[:4] == b"OTS3"
        (header_len,) = struct.unpack("<Q", data[4:12])
        assert (12 + header_len) % 8 == 0
        raw = data[12 : 12 + header_len]
        header = json.loads(raw)
        assert raw.rstrip(b" ") == json.dumps(
            header, sort_keys=True, separators=(",", ":")).encode()
        assert sorted(header) == ["counts", "d", "generator", "n", "sections",
                                  "t", "version"]
        assert header["version"] == 3
        assert header["sections"] == {"length": [12], "name": ["x"],
                                      "shape": [[3]]}
        offset = 12 + header_len
        for key in COLUMNS:
            column = np.frombuffer(data, "<i8", count=7, offset=offset)
            assert np.array_equal(column, getattr(stream, key))
            offset += 7 * 8
        assert data[offset : offset + 112] == stream.embeddings.tobytes()
        assert data[offset + 112 :] == (struct.pack("<Q", 12)
                                        + np.ones(3, "<f4").tobytes())


class TestZeroCopy:
    def test_arrays_are_views_of_the_bytes(self):
        sections = {"x": np.arange(6, dtype=np.float32).reshape(2, 3)}
        data = write_ots(tiny_stream(), sections, T=2)
        stream, back, _ = read_ots(data)
        anchor = np.frombuffer(data, dtype=np.uint8)
        for array in (stream.embeddings, stream.modality, stream.window_id,
                      stream.position, back["x"]):
            assert np.shares_memory(array, anchor)
            assert not array.flags.writeable
            assert array.flags.aligned

    def test_sections_are_views_of_the_bytes(self):
        # many small sections, each a slice of one view of the section bytes
        sections = {f"saliency/w{t}/visual": np.full(t + 1, t, np.float32)
                    for t in range(5)}
        sections["m"] = np.arange(6, dtype=np.float32).reshape(3, 2)
        data = write_ots(tiny_stream(), sections, T=2)
        _, back, _ = read_ots(data)
        anchor = np.frombuffer(data, dtype=np.uint8)
        assert back.keys() == sections.keys()
        for name, array in back.items():
            assert np.array_equal(array, sections[name])
            assert array.shape == sections[name].shape
            assert np.shares_memory(array, anchor)
            assert not array.flags.writeable

    def test_file_read_is_a_view(self, tmp_path):
        path = tmp_path / "s.ots"
        write_ots_file(path, tiny_stream(), T=2)
        stream, _, _ = read_ots_file(path)
        assert not stream.embeddings.flags.owndata
        assert not stream.position.flags.writeable


class TestSectionsMapping:
    SECTIONS = {"b/one": np.array([2.5], dtype=np.float32),
                "c/empty": np.zeros(0, dtype=np.float32),
                "a/matrix": np.arange(6, dtype=np.float32).reshape(2, 3),
                "d/vector": np.array([1.5, -2.0, 3.25], dtype=np.float32),
                "e/zero-rows": np.zeros((0, 4), dtype=np.float32)}

    def read(self):
        data = write_ots(tiny_stream(), self.SECTIONS, T=2)
        return (data,) + read_ots(data)

    def test_mapping_interface(self):
        _, _, back, _ = self.read()
        assert isinstance(back, Mapping)
        assert list(back.keys()) == sorted(self.SECTIONS)
        assert len(back) == 5
        assert "d/vector" in back and "z" not in back
        assert back.get("z") is None
        assert back.get("z", "absent") == "absent"
        assert back.get("d/vector").tolist() == [1.5, -2.0, 3.25]
        with pytest.raises(KeyError):
            back["z"]
        assert [name for name, _ in back.items()] == sorted(self.SECTIONS)
        for name, array in back.items():
            assert array.dtype == np.float32
            assert array.shape == np.shape(self.SECTIONS[name])
            assert np.array_equal(array, self.SECTIONS[name])

    def test_dict_equals_the_reference_walk(self):
        data, _, back, _ = self.read()
        plain = dict(back)
        expected = reference_sections(data)
        assert list(plain) == list(expected)
        for name in expected:
            assert plain[name].shape == expected[name].shape
            assert plain[name].tobytes() == expected[name].tobytes()

    def test_views_are_read_only_aligned_and_shared(self):
        data, _, back, _ = self.read()
        anchor = np.frombuffer(data, dtype=np.uint8)
        for name, array in back.items():
            assert not array.flags.writeable
            assert not array.flags.owndata
            assert array.flags.aligned
            assert array.size == 0 or np.shares_memory(array, anchor)
        assert back["e/zero-rows"].shape == (0, 4)

    def test_zero_dimensional_entry(self):
        # write_ots writes a scalar as one entry of shape [1]; a table may
        # still declare shape [] for those 4 bytes
        data, _, _, _ = self.read()
        scalar = repack(data, entry_edit(1, shape=[]))
        _, back, _ = read_ots(scalar)
        assert back["b/one"].shape == () and back["b/one"] == 2.5
        assert not back["b/one"].flags.writeable
        assert back["b/one"].tobytes() == \
            reference_sections(scalar)["b/one"].tobytes()

    def test_item_assignment_refused(self):
        _, _, back, _ = self.read()
        with pytest.raises(TypeError):
            back["d/vector"] = np.ones(3, dtype=np.float32)
        with pytest.raises(TypeError):
            del back["d/vector"]
        with pytest.raises(ValueError):
            back["d/vector"][0] = 7.0
        assert back["d/vector"][0] == 1.5

    def test_rewrite_is_byte_identical(self):
        data, stream, back, header = self.read()
        assert write_ots(stream, back, T=header["t"]) == data

    def test_header_has_no_section_table(self):
        _, _, back, header = self.read()
        assert "sections" not in header
        assert sorted(header) == ["counts", "d", "generator", "n", "t",
                                  "version"]

    def test_gather_fills_absent_names_with_ones(self):
        _, _, back, _ = self.read()
        sizes, vec = back.gather(["d/vector", "z", "b/one"],
                                 np.array([3, 2, 1]))
        assert sizes.tolist() == [3, -1, 1]
        assert vec.dtype == np.float32
        assert vec.tolist() == [1.5, -2.0, 3.25, 1.0, 1.0, 2.5]
        sizes, vec = back.gather(["b/one", "a/matrix"], np.array([1, 6]))
        assert vec.dtype == np.float32
        assert vec.tolist() == [2.5, 0, 1, 2, 3, 4, 5]

    def test_gather_without_a_vector(self):
        _, _, back, _ = self.read()
        # no name held, no names at all
        for names, counts in ((["z", "y"], [1, 2]), ([], [])):
            sizes, vec = back.gather(names, np.array(counts, dtype=np.int64))
            assert sizes.tolist() == [-1] * len(names) and vec is None
        # a held name gives its own entries whatever its count
        sizes, vec = back.gather(["z", "d/vector"], np.array([1, 2]))
        assert sizes.tolist() == [-1, 3]
        assert vec.tolist() == [1.0, 1.5, -2.0, 3.25]
        _, empty, _ = read_ots(write_ots(tiny_stream(), T=2))
        assert len(empty) == 0
        sizes, vec = empty.gather(["z"], np.array([4]))
        assert sizes.tolist() == [-1] and vec is None


class TestWriterRefuses:
    """write_ots raises where read_ots would refuse the bytes."""

    @pytest.mark.parametrize("T", [0, -1, 8])
    def test_window_count_outside_token_range(self, T):
        # tiny_stream holds 7 tokens, so t may lie in [1, 7]
        with pytest.raises(ContainerFormatError,
                           match=rf"t={T} for n=7 .*\[1, max\(1, n\)\]"):
            write_ots(tiny_stream(), T=T)

    def test_window_count_at_token_count(self):
        data = write_ots(tiny_stream(), T=7)
        assert read_ots(data)[2]["t"] == 7

    @pytest.mark.parametrize("row, window, T", [(3, 1, 1), (4, 7, None)])
    def test_window_id_outside_t(self, row, window, T):
        stream = tiny_stream()
        ids = stream.window_id.copy()
        ids[row] = window
        bad = dataclasses.replace(stream, window_id=ids)
        # T=None infers 8 from the id 7, which lies past n=7
        match = (rf"row {row} with window id {window}, outside \[0, {T}\)"
                 if T else r"t=8 for n=7")
        with pytest.raises(ContainerFormatError, match=match):
            write_ots(bad, T=T)

    @pytest.mark.parametrize("sections, name, got", [
        ({1: np.ones(2)}, "1", "int and float64"),
        ({"a": np.ones(2), 2: np.ones(2)}, "2", "int and float64"),
        ({"b": np.ones(2, dtype=complex)}, "'b'", "str and complex128"),
        ({"c": np.array(["1.0", "2.0"])}, "'c'", "str and <U3"),
        ({"d": [1.0, None]}, "'d'", "str and object"),
    ], ids=["int-name", "mixed-names", "complex", "string", "object"])
    def test_bad_section_refused_before_writing(self, tmp_path, sections,
                                                name, got):
        # never bytes read_ots refuses, a TypeError from sorting the names,
        # or data cast to float32 with a warning; and no file is left
        message = (f"^section {name} must have a str name and real data; "
                   f"got {got}$")
        path = tmp_path / "out.ots"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContainerFormatError, match=message):
                write_ots(tiny_stream(), sections)
            with pytest.raises(ContainerFormatError, match=message):
                write_ots_file(str(path), tiny_stream(), sections)
        assert not path.exists()

    def test_text_window_ids_do_not_count_toward_t(self):
        # text rows carry no window id: a stream refuses one, and so does
        # read_ots, with the same message, so t comes from the other rows
        stream = tiny_stream()
        assert read_ots(write_ots(stream))[2]["t"] == 2
        ids = stream.window_id.copy()
        ids[5] = 40
        message = r"^text row 5 has window id 40; it must be -1$"
        with pytest.raises(StreamError, match=message):
            dataclasses.replace(stream, window_id=ids)
        data = poke_column(write_ots(stream), "window_id", 5, 40)
        with pytest.raises(ContainerFormatError, match=message):
            read_ots(data)

    def test_negative_window_id_with_inferred_t(self):
        # no stream holds one, so write_ots never meets one
        stream = tiny_stream()
        ids = stream.window_id.copy()
        ids[:5] = -3
        with pytest.raises(StreamError,
                           match=r"^visual row 0 has window id -3; it must be "
                                 r">= 0$"):
            dataclasses.replace(stream, window_id=ids)


class TestCanonicalBytes:
    def test_writes_are_deterministic(self):
        stream = tiny_stream()
        sections = {"b": np.zeros(2, dtype=np.float32),
                    "a": np.ones(3, dtype=np.float32)}
        assert write_ots(stream, sections) == write_ots(stream, sections)

    def test_section_order_is_name_sorted(self):
        stream = tiny_stream()
        fwd = write_ots(stream, {"a": np.ones(1, dtype=np.float32),
                                 "b": np.zeros(1, dtype=np.float32)})
        rev = write_ots(stream, {"b": np.zeros(1, dtype=np.float32),
                                 "a": np.ones(1, dtype=np.float32)})
        assert fwd == rev

    def test_reencode_is_identity(self):
        stream, _ = synth_generate(SynthSpec(seed=4, T=2, d=4, n_v=3, n_a=2,
                                             n_q=2))
        sections = {"saliency/w0/visual": np.array([1, 2, 3], dtype=np.float32)}
        data = write_ots(stream, sections, generator={"seed": 4}, T=2)
        back, back_sections, header = read_ots(data)
        again = write_ots(back, back_sections, generator=header["generator"],
                          T=header["t"])
        assert again == data


class TestMalformedBytes:
    def test_garbage_magic(self):
        with pytest.raises(ContainerFormatError, match="bad magic"):
            read_ots(b"NOPE" + b"\x00" * 20)

    def test_other_version_magic(self):
        data = write_ots(tiny_stream())
        with pytest.raises(ContainerFormatError, match="unsupported container"):
            read_ots(b"OTS9" + data[4:])

    def test_ots1_magic(self):
        data = write_ots(tiny_stream())
        with pytest.raises(ContainerFormatError,
                           match="unsupported container version b'OTS1'"):
            read_ots(b"OTS1" + data[4:])

    def test_ots2_container(self):
        # a version 2 container, with its list of one object per section,
        # is refused by its magic before its header is read
        data = write_ots(tiny_stream(), {"x": np.ones(4, dtype=np.float32)})

        def version2(header):
            table = header["sections"]
            header.update(version=2, sections=[
                dict(zip(table, entry)) for entry in zip(*table.values())])

        old = b"OTS2" + repack(data, version2)[4:]
        with pytest.raises(ContainerFormatError,
                           match=r"unsupported container version b'OTS2', "
                                 r"this reader handles b'OTS3'; omniprefill "
                                 r"gen regenerates"):
            read_ots(old)

    def test_too_short_for_prologue(self):
        with pytest.raises(ContainerFormatError, match="truncated at byte"):
            read_ots(MAGIC + b"\x01")

    def test_header_overruns_data(self):
        data = write_ots(tiny_stream())
        bad = data[:4] + struct.pack("<Q", len(data) * 2) + data[12:]
        with pytest.raises(ContainerFormatError, match="truncated header"):
            read_ots(bad)

    def test_header_not_json(self):
        raw = b"{nope"
        bad = MAGIC + struct.pack("<Q", len(raw)) + raw
        with pytest.raises(ContainerFormatError, match="unreadable header"):
            read_ots(bad)

    def test_header_number_too_long(self):
        raw = b'{"n":' + b"9" * 5000 + b"}"
        bad = MAGIC + struct.pack("<Q", len(raw)) + raw
        with pytest.raises(ContainerFormatError, match="unreadable header"):
            read_ots(bad)

    def test_header_not_object(self):
        raw = b"[1,2]"
        bad = MAGIC + struct.pack("<Q", len(raw)) + raw
        with pytest.raises(ContainerFormatError, match="JSON object"):
            read_ots(bad)

    def test_header_version_field(self):
        data = write_ots(tiny_stream())
        bad = repack(data, lambda h: h.update(version=1))
        with pytest.raises(ContainerFormatError, match="unsupported version"):
            read_ots(bad)

    def test_missing_required_key(self):
        data = write_ots(tiny_stream())
        bad = repack(data, lambda h: h.pop("counts"))
        with pytest.raises(ContainerFormatError, match="required key 'counts'"):
            read_ots(bad)

    def test_per_token_list_length(self):
        # n one larger than the columns hold: the columns run past the end
        data = write_ots(tiny_stream())
        bad = repack(data, lambda h: h.update(n=8))
        with pytest.raises(ContainerFormatError, match="truncated payload"):
            read_ots(bad)

    @pytest.mark.parametrize("key, value", [
        ("t", 2.7), ("t", "2"), ("t", True), ("t", 2.0), ("n", 7.0),
        ("d", "4"), ("d", False)])
    def test_dimension_must_be_a_json_integer(self, key, value):
        # int() would read 2.7 as 2, "2" as 2 and true as 1
        data = write_ots(tiny_stream(), T=2)
        with pytest.raises(ContainerFormatError,
                           match=f"header '{key}' is malformed: .* \\(an "
                                 f"integer is needed, not "):
            read_ots(repack(data, lambda h: h.update({key: value})))

    @pytest.mark.parametrize("edit", [
        lambda h: h["counts"].update(audio=True),
        lambda h: h["counts"].update(visual=4.0),
        lambda h: h.update(version=3.0)],
        ids=["bool-count", "float-count", "float-version"])
    def test_counts_and_version_are_json_integers(self, edit):
        data = write_ots(tiny_stream(), T=2)
        with pytest.raises(ContainerFormatError,
                           match="count mismatch|unsupported version"):
            read_ots(repack(data, edit))

    @pytest.mark.parametrize("t", [0, -1])
    def test_window_count_must_be_positive(self, t):
        data = write_ots(tiny_stream())
        with pytest.raises(ContainerFormatError, match="invalid dimensions"):
            read_ots(repack(data, lambda h: h.update(t=t)))

    def test_unknown_modality_code_with_matching_counts(self):
        data = poke_column(write_ots(tiny_stream()), "modality", 6, 7)
        bad = repack(data, lambda h: h["counts"].update(text=1))
        with pytest.raises(ContainerFormatError, match="1 of 7 modality codes"):
            read_ots(bad)

    @pytest.mark.parametrize("row, window", [(0, 2), (2, 9), (3, -1)])
    def test_window_id_outside_header_t(self, row, window):
        data = poke_column(write_ots(tiny_stream(), T=2), "window_id", row,
                           window)
        with pytest.raises(ContainerFormatError,
                           match=f"row {row} has window id {window}, "
                                 r"outside \[0, 2\)"):
            read_ots(data)

    def test_non_finite_text_embedding(self):
        # a stream refuses the embedding, so the bytes are poked
        data = poke_embedding(write_ots(tiny_stream()), 6, 1, np.inf)
        with pytest.raises(ContainerFormatError,
                           match="text row 6 has a non-finite embedding"):
            read_ots(data)

    def test_non_finite_visual_embedding_is_left_to_stage1(self):
        stream = tiny_stream()
        emb = stream.embeddings.copy()
        emb[3, 0] = np.nan
        back, _, _ = read_ots(write_ots(dataclasses.replace(stream,
                                                            embeddings=emb)))
        assert np.isnan(back.embeddings[3, 0])

    def test_count_mismatch(self):
        data = write_ots(tiny_stream())
        bad = repack(data, lambda h: h["counts"].update(visual=9))
        with pytest.raises(ContainerFormatError, match="count mismatch"):
            read_ots(bad)

    def test_truncated_payload(self):
        data = write_ots(tiny_stream())
        with pytest.raises(ContainerFormatError, match="truncated payload"):
            read_ots(data[:-4])

    def test_truncated_section_prefix(self):
        sections = {"x": np.ones(4, dtype=np.float32)}
        data = write_ots(tiny_stream(), sections)
        with pytest.raises(ContainerFormatError, match="section prefix"):
            read_ots(data[: -(16 + 3)])

    def test_truncated_section_data(self):
        sections = {"x": np.ones(4, dtype=np.float32)}
        data = write_ots(tiny_stream(), sections)
        with pytest.raises(ContainerFormatError, match="truncated section 'x'"):
            read_ots(data[:-4])

    def test_section_prefix_disagrees_with_header(self):
        sections = {"x": np.ones(4, dtype=np.float32)}
        data = write_ots(tiny_stream(), sections)
        bad = data[:-24] + struct.pack("<Q", 12) + data[-16:]
        with pytest.raises(ContainerFormatError, match="prefix at byte"):
            read_ots(bad)

    def test_section_shape_length_disagree(self):
        sections = {"x": np.ones(4, dtype=np.float32)}
        data = write_ots(tiny_stream(), sections)
        bad = repack(data, entry_edit(0, shape=[5]))
        with pytest.raises(ContainerFormatError, match="shape"):
            read_ots(bad)

    def test_unrepresentable_empty_shapes(self):
        data = write_ots(tiny_stream(), {"x": np.zeros(0, dtype=np.float32)})
        bad = repack(data, entry_edit(0, shape=[0, 2**62]))
        with pytest.raises(ContainerFormatError, match="not representable"):
            read_ots(bad)
        empty = TokenStream(embeddings=np.zeros((0, 1), dtype=np.float32),
                            modality=[], window_id=[], position=[])
        bad = repack(write_ots(empty), lambda h: h.update(d=2**62))
        with pytest.raises(ContainerFormatError, match="not representable"):
            read_ots(bad)

    @pytest.mark.parametrize("shape", [[2**32, 2**32], [-1, 0], [0, -3], []])
    def test_section_shape_overflow_or_negative(self, shape):
        # each product wraps or comes to 0 in int64, which the zero-length
        # section below would match; an empty shape is a scalar of 4 bytes
        data = write_ots(tiny_stream(), {"x": np.zeros(0, dtype=np.float32)})
        bad = repack(data, entry_edit(0, shape=shape))
        with pytest.raises(ContainerFormatError, match="section 'x'"):
            read_ots(bad)

    @pytest.mark.parametrize("edit, field", [
        (header_edit(lambda h: h.update(n="abc")), "header 'n'"),
        # an unknown modality code in the column fails the counts tally
        (lambda data: poke_column(data, "modality", 0, 5), "count mismatch"),
        (header_edit(lambda h: h.update(counts=5)), "header 'counts'"),
        # the file ends inside the window-id column
        (lambda data: data[: column_offset(data, "window_id", 3) + 3],
         "truncated payload"),
        # a number where entry 0's shape list belongs
        (header_edit(entry_edit(0, shape=5)),
         r"section 'x' shape is malformed: 5 \(a list of integers is "
         r"needed\)"),
        (header_edit(entry_edit(0, shape=["x"])), "section 'x' shape"),
        (header_edit(entry_edit(0, length="x")), "section 'x' length"),
        (header_edit(lambda h: h.update(sections=5)),
         "header 'sections' must be an object"),
        (header_edit(entry_edit(0, name=["x"])),
         "section entry 0 name is malformed"),
        # a declared length past 2**64 - 1 is compared as a number, never
        # squeezed into a 64-bit integer
        (header_edit(entry_edit(0, shape=[2**62], length=2**64)),
         "section 'x' prefix at byte 472 says 16 bytes, header says "
         "18446744073709551616"),
        # the earliest faulty entry is reported, even when a later one is
        # malformed: entry 0's prefix says 12 bytes, entry 1's length is "x"
        (lambda data: repack(
            data[:-24] + struct.pack("<Q", 12) + data[-16:],
            lambda h: add_entry(h, length="x", name="y", shape=[1])),
         "section 'x' prefix at byte 448 says 12 bytes, header says 16"),
    ], ids=["n-string", "modality-number", "counts-number",
            "window-id-strings", "section-entry-number", "shape-strings",
            "length-string", "sections-number", "section-name-list",
            "length-past-u64", "fault-before-malformed-entry"])
    def test_mistyped_header_field(self, edit, field):
        data = write_ots(tiny_stream(), {"x": np.ones(4, dtype=np.float32)})
        with pytest.raises(ContainerFormatError, match=field):
            read_ots(edit(data))

    def test_duplicate_section_name(self):
        # the second block would hide the first without a word
        data = write_ots(tiny_stream(), {"a": np.ones(4, dtype=np.float32),
                                         "b": np.zeros(4, dtype=np.float32)})
        bad = repack(data, entry_edit(1, name="a"))
        with pytest.raises(ContainerFormatError,
                           match="section 'a' at entry 1 repeats the name "
                                 "of entry 0"):
            read_ots(bad)

    @pytest.mark.parametrize("edit, message", [
        # a repeated name is reported before a later malformed entry
        (entry_edit(2, length="x"),
         "section 'a' at entry 1 repeats the name of entry 0"),
        # and after a malformed field of its own entry or an earlier one
        (entry_edit(1, shape=["x"]), "section 'a' shape is malformed"),
        (entry_edit(0, length="x"), "section 'a' length is malformed"),
        # but before negative dimensions or a wrong length of its entry
        (entry_edit(1, shape=[-1], length=-4),
         "section 'a' at entry 1 repeats the name of entry 0"),
        (entry_edit(1, length=12),
         "section 'a' at entry 1 repeats the name of entry 0"),
        # an earlier entry's fault comes first
        (entry_edit(0, shape=[-1], length=-4),
         r"section 'a' declares negative dimensions \(-1,\)"),
        # a fault of the table's structure comes before any entry's
        (lambda h: h.update(sections=[
            dict(zip(h["sections"], entry))
            for entry in zip(*h["sections"].values())]),
         r"header 'sections' must be an object, got \[\{"),
        (lambda h: h["sections"].pop("shape"),
         r"must hold the columns length, name and shape, got \['length', "
         r"'name'\]"),
        (lambda h: h["sections"].update(offset=[0, 24, 48]),
         "must hold the columns length, name and shape"),
        (lambda h: h["sections"].update(length=dict.fromkeys("abc", 16)),
         "section column 'length' must be a list"),
        (lambda h: h["sections"]["shape"].pop(),
         "section columns differ in length: 3 lengths, 3 names, 2 shapes"),
    ], ids=["before-later-malformed", "after-own-malformed",
            "after-earlier-malformed", "before-own-negative",
            "before-own-length", "after-earlier-negative",
            "after-table-not-object", "after-missing-column",
            "after-extra-column", "after-column-not-list",
            "after-unequal-columns"])
    def test_duplicate_name_fault_order(self, edit, message):
        data = write_ots(tiny_stream(), {
            name: np.ones(4, dtype=np.float32) for name in "abc"})

        def mutate(header):
            header["sections"]["name"][1] = "a"
            edit(header)

        with pytest.raises(ContainerFormatError, match=message):
            read_ots(repack(data, mutate))

    def test_trailing_garbage(self):
        data = write_ots(tiny_stream())
        with pytest.raises(ContainerFormatError, match="trailing bytes"):
            read_ots(data + b"\x00\x00")


FUZZ_SEED = write_ots(tiny_stream(), {"x": np.ones((2, 2), dtype=np.float32),
                                      "y": np.zeros(0, dtype=np.float32)},
                      generator={"kind": "fuzz"}, T=2)


@st.composite
def damaged(draw):
    """FUZZ_SEED after a few random byte flips, deletions, insertions and
    truncations."""
    data = bytearray(FUZZ_SEED)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["flip", "delete", "insert", "truncate"]))
        at = draw(st.integers(0, len(data)))
        if kind == "flip" and at < len(data):
            data[at] ^= draw(st.integers(1, 255))
        elif kind == "delete":
            del data[at : at + draw(st.integers(1, 16))]
        elif kind == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=16))
        else:
            del data[at:]
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(data=damaged())
def test_damaged_container_reads_or_is_a_format_error(data):
    try:
        read_ots(data)
    except ContainerFormatError:
        pass


def reference_sections(data: bytes) -> dict[str, np.ndarray]:
    """A plain per-entry walk of the section table: its structure first,
    then one step per table entry, each entry's checks in turn. It is the
    independent reference for the columnar reader, and expects valid bytes
    up to the first section."""
    (header_len,) = struct.unpack("<Q", data[4:12])
    header = json.loads(data[12 : 12 + header_len])
    offset = 12 + header_len + 24 * header["n"] + 4 * header["n"] * header["d"]
    region_start = offset
    region = np.frombuffer(data, dtype="<f4",
                           count=(len(data) - offset) // 4, offset=offset)
    table = header["sections"]
    if not isinstance(table, dict):
        raise ContainerFormatError(
            f"header 'sections' must be an object, got {table!r:.60}")
    if set(table) != {"length", "name", "shape"}:
        raise ContainerFormatError(
            f"header 'sections' must hold the columns length, name and "
            f"shape, got {sorted(table)!r:.60}")
    for key in ("length", "name", "shape"):
        if not isinstance(table[key], list):
            raise ContainerFormatError(f"section column {key!r} must be a "
                                       f"list, got {table[key]!r:.60}")
    count = len(table["name"])
    if len(table["length"]) != count or len(table["shape"]) != count:
        raise ContainerFormatError(
            f"section columns differ in length: {len(table['length'])} "
            f"lengths, {count} names, {len(table['shape'])} shapes")

    def integer(value):
        return isinstance(value, int) and not isinstance(value, bool)

    sections, entry_of = {}, {}
    for index in range(count):
        name = table["name"][index]
        length = table["length"][index]
        shape = table["shape"][index]
        if not isinstance(name, str):
            raise ContainerFormatError(
                f"section entry {index} name is malformed: {name!r:.60} "
                f"(a section needs a string name)")
        if not integer(length):
            raise ContainerFormatError(
                f"section {name!r} length is malformed: {length!r:.60} (an "
                f"integer is needed, not {type(length).__name__})")
        if not isinstance(shape, list):
            raise ContainerFormatError(
                f"section {name!r} shape is malformed: {shape!r:.60} (a list "
                f"of integers is needed)")
        for dim in shape:
            if not integer(dim):
                raise ContainerFormatError(
                    f"section {name!r} shape is malformed: {shape!r:.60} (an "
                    f"integer is needed, not {type(dim).__name__})")
        shape = tuple(shape)
        if name in entry_of:
            raise ContainerFormatError(
                f"section {name!r} at entry {index} repeats the name of entry "
                f"{entry_of[name]}")
        entry_of[name] = index
        if any(x < 0 for x in shape):
            raise ContainerFormatError(
                f"section {name!r} declares negative dimensions {shape}")
        expected = math.prod(shape) * 4
        if length != expected:
            raise ContainerFormatError(
                f"section {name!r} declares {length} bytes but shape {shape} "
                f"needs {expected}")
        if offset + 8 > len(data):
            raise ContainerFormatError(
                f"truncated section prefix for {name!r} at byte {offset}")
        (stored_len,) = struct.unpack("<Q", data[offset : offset + 8])
        if stored_len != length:
            raise ContainerFormatError(
                f"section {name!r} prefix at byte {offset} says {stored_len} "
                f"bytes, header says {length}")
        offset += 8
        if offset + length > len(data):
            raise ContainerFormatError(
                f"truncated section {name!r} at byte {offset}: need {length} "
                f"bytes, found {len(data) - offset}")
        lo = (offset - region_start) // 4
        try:
            sections[name] = region[lo : lo + length // 4].reshape(shape)
        except ValueError as exc:
            raise ContainerFormatError(
                f"section {name!r} shape {shape} is not representable "
                f"({exc})") from exc
        offset += length
    if offset != len(data):
        raise ContainerFormatError(
            f"{len(data) - offset} unexpected trailing bytes at byte {offset}")
    return sections


TABLE_BASE = write_ots(tiny_stream(), T=2)
# values of the wrong kind for a field, a dimension or a whole column
MISTYPED = ["x", "12", "", 1.5, -2.5, 4.0, None, True, False, [1], [], {},
            {"3": 1}, float("nan"), float("inf")]


@st.composite
def section_tables(draw):
    """TABLE_BASE with a hand-made columnar section table of distinct
    names, of vectors only or of any shapes (empty, scalar, zero-size,
    ragged, multi-dimensional), then a few random faults: entry edits, a
    repeated name (which write_ots cannot write) among them, faults of the
    table's structure and byte faults."""
    entries, blocks = [], []
    vectors = draw(st.booleans())  # a table of vectors only, or any shapes
    for index in range(draw(st.integers(0, 5))):
        shape = draw(st.lists(st.integers(0, 3), min_size=vectors,
                              max_size=1 if vectors else 3))
        values = np.arange(math.prod(shape), dtype="<f4") + 10 * index
        entries.append({"length": values.nbytes, "shape": shape,
                        "name": f"w/{index}"})
        blocks.append(struct.pack("<Q", values.nbytes) + values.tobytes())
    faults = draw(st.lists(st.sampled_from(
        ["length", "shape", "huge", "negative", "mistype", "duplicate",
         "prefix", "truncate", "trailing", "structure"]), max_size=3))
    for fault in faults:
        if not entries or fault not in ("length", "shape", "huge",
                                        "negative", "mistype", "duplicate"):
            continue
        entry = draw(st.integers(0, len(entries) - 1))
        if fault == "duplicate":
            # a later entry takes an earlier entry's name
            source = draw(st.integers(0, len(entries) - 1))
            later, earlier = max(source, entry), min(source, entry)
            entries[later]["name"] = entries[earlier]["name"]
        elif fault == "length":
            entries[entry]["length"] = draw(st.one_of(
                st.integers(-8, 48), st.sampled_from([2**64, -(2**64)]),
                st.integers(-(2**70), 2**70)))
        elif fault == "huge":
            # length and shape agree on more bytes than any file holds,
            # some past what a 64-bit integer holds
            bits = draw(st.sampled_from([29, 61, 62, 70]))
            entries[entry].update(length=2 ** (bits + 2), shape=[2**bits])
        elif fault == "negative":
            # length and shape agree on a negative byte count
            dim = draw(st.integers(-3, -1))
            shape = draw(st.sampled_from(
                [[dim]] if vectors else [[dim], [2, dim], [dim, -1]]))
            entries[entry].update(length=4 * math.prod(shape), shape=shape)
        elif fault == "shape":
            entries[entry]["shape"] = draw(st.one_of(
                st.lists(st.integers(-2, 4), min_size=vectors,
                         max_size=1 if vectors else 3),
                st.sampled_from([[2**62], [0, 2**62], [2**32, 2**32],
                                 [0, 2**64], [1] * 70])))
        else:
            field = draw(st.sampled_from(["name", "length", "shape", "dim"]))
            value = draw(st.sampled_from(MISTYPED))
            shape = entries[entry]["shape"]
            if field == "dim" and isinstance(shape, list):
                # one dimension of the wrong kind, after well-formed ones
                entries[entry]["shape"] = shape + [value]
            elif field != "dim":
                entries[entry][field] = value
    table = {key: [entry[key] for entry in entries]
             for key in ("length", "name", "shape")}
    for fault in faults:
        if fault != "structure":
            continue
        fault = draw(st.sampled_from(["table", "columns", "column", "ragged"]))
        if fault == "table":
            # the version 2 list of one object per entry, or no table at all
            table = copy.deepcopy(draw(st.sampled_from([entries, *MISTYPED])))
        elif not isinstance(table, dict):
            continue
        elif fault == "columns":
            # a column missing, or one too many
            key = draw(st.sampled_from(["length", "name", "shape", "offset"]))
            if table.pop(key, None) is None:
                table[key] = [0] * len(entries)
        elif fault == "column" and table:
            table[draw(st.sampled_from(sorted(table)))] = draw(
                st.sampled_from([value for value in MISTYPED
                                 if not isinstance(value, list)]))
        elif fault == "ragged" and table:
            column = table[draw(st.sampled_from(sorted(table)))]
            if isinstance(column, list):
                if column and draw(st.booleans()):
                    column.pop()
                else:
                    column.append(draw(st.sampled_from([4, "w/9", [1]])))
    data = repack(TABLE_BASE, lambda h: h.update(sections=table))
    region_start = len(data)
    data = bytearray(data + b"".join(blocks))
    for fault in faults:
        if fault == "prefix" and blocks:
            block = draw(st.integers(0, len(blocks) - 1))
            at = region_start + sum(map(len, blocks[:block]))
            at += draw(st.integers(0, 7))
            if at < len(data):
                data[at] ^= draw(st.integers(1, 255))
        elif fault == "truncate":
            del data[draw(st.integers(region_start, len(data))):]
        elif fault == "trailing":
            data += draw(st.binary(min_size=1, max_size=12))
    return bytes(data)


def sections_or_error(read, data: bytes):
    """What a reader makes of data: each section's name, shape and bytes,
    in order, or the ContainerFormatError's message."""
    try:
        sections = read(data)
    except ContainerFormatError as exc:
        return str(exc)
    return [(name, array.shape, array.tobytes())
            for name, array in sections.items()]


@settings(max_examples=400, deadline=None)
@given(data=section_tables())
def test_columnar_reader_matches_the_reference_walk(data):
    expected = sections_or_error(reference_sections, data)
    assert sections_or_error(lambda d: read_ots(d)[1], data) == expected
    if isinstance(expected, list):
        assert sections_or_error(lambda d: dict(read_ots(d)[1]), data) == \
            expected
        anchor = np.frombuffer(data, dtype=np.uint8)
        for array in read_ots(data)[1].values():
            assert not array.flags.owndata and not array.flags.writeable
            assert array.size == 0 or np.shares_memory(array, anchor)


def reference_gather(sections: dict, names, counts):
    """Sections.gather as a plain walk, one name at a time: each name's
    entry count (-1 when not held) and one concatenate of each held name's
    entries or, for a name not held, its count of float32 ones; None when no
    name is held."""
    arrays = [sections.get(name) for name in names]
    sizes = [-1 if a is None else a.size for a in arrays]
    if all(a is None for a in arrays):
        return sizes, None
    return sizes, np.concatenate([
        np.ones(k, dtype=np.float32) if a is None else np.ravel(a)
        for a, k in zip(arrays, counts)])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_gather_matches_the_reference_walk(data):
    pool = [f"saliency/w{t}/{m}" for t in range(5) for m in ("visual", "audio")]
    sections = {}
    for i, name in enumerate(data.draw(st.lists(st.sampled_from(pool),
                                                unique=True))):
        shape = data.draw(st.sampled_from([(0,), (1,), (3,), (5,), (2, 2)]))
        sections[name] = (10.0 * i + np.arange(math.prod(shape)) - 0.5
                          ).astype(np.float32).reshape(shape)
    names = data.draw(st.lists(st.sampled_from(pool), max_size=8))
    counts = data.draw(st.lists(st.integers(0, 4), min_size=len(names),
                                max_size=len(names)))
    _, back, _ = read_ots(write_ots(tiny_stream(), sections, T=2))
    sizes, vec = back.gather(names, np.array(counts, dtype=np.int64))
    want_sizes, want = reference_gather(sections, names, counts)
    assert sizes.tolist() == want_sizes
    if want is None:
        assert vec is None
    else:
        assert vec.dtype == np.float32
        assert vec.tobytes() == want.tobytes()


class TestConfigLoading:
    MODEL = {"layers": 28, "d_model": 3584, "d_ff": 18944, "n_heads": 28,
             "boundaries": [16, 19, 21, 24]}

    def test_model_from_dict(self):
        cfg = load_model_config(dict(self.MODEL))
        assert cfg == QWEN25

    def test_model_from_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(self.MODEL))
        assert load_model_config(path) == QWEN25

    def test_unknown_key_rejected(self):
        doc = dict(self.MODEL, dmodel=1)
        with pytest.raises(ConfigError, match="unknown model config keys: dmodel"):
            load_model_config(doc)

    def test_missing_key_rejected(self):
        doc = dict(self.MODEL)
        del doc["d_ff"]
        with pytest.raises(ConfigError, match="missing model config keys: d_ff"):
            load_model_config(doc)

    def test_boundaries_must_be_four(self):
        with pytest.raises(ConfigError, match="four"):
            load_model_config(dict(self.MODEL, boundaries=[16, 19, 21]))

    def test_invalid_values_become_config_errors(self):
        doc = dict(self.MODEL, boundaries=[21, 19, 16, 24])
        with pytest.raises(ConfigError):
            load_model_config(doc)

    def test_not_json_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{oops")
        with pytest.raises(ConfigError, match="not JSON"):
            load_model_config(path)

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            load_model_config(path)

    @pytest.mark.parametrize("load, doc, key", [
        # each of these used to be read as something else without a word
        (load_synth_spec, {"planted_windows": "12"}, "planted_windows"),
        (load_synth_spec, {"planted_windows": [1.0]}, "planted_windows"),
        (load_synth_spec, {"windows": 4.0}, "windows"),
        (load_synth_spec, {"seed": True}, "seed"),
        (load_synth_spec, {"planted_gain": True}, "planted_gain"),
        (load_model_config, {"layers": 28.9}, "layers"),
        (load_model_config, {"d_model": True}, "d_model"),
        (load_model_config, {"boundaries": [16, 19, 21, 24.5]}, "boundaries"),
        (load_model_config, {"n_heads": "28"}, "n_heads"),
        (load_retention_spec, {"tau": "0.1"}, "tau"),
        (load_retention_spec, {"lambda": False}, "lambda"),
        (load_retention_spec, {"ratio_visual": float("nan")}, "ratio_visual"),
    ], ids=["planted-string", "planted-float", "windows-float", "seed-bool",
            "gain-bool", "layers-fraction", "d-model-bool",
            "boundary-fraction", "heads-string", "tau-string",
            "lambda-bool", "ratio-nan"])
    def test_numbers_must_be_json_numbers(self, load, doc, key):
        base = {load_synth_spec: {"seed": 7, "windows": 4, "d": 16,
                                  "visual_per_window": 72,
                                  "audio_per_window": 12, "text_tokens": 10},
                load_model_config: self.MODEL,
                load_retention_spec: {"ratio_visual": 0.3,
                                      "ratio_audio": 0.65, "lambda": 1.4,
                                      "tau": 0.1}}[load]
        with pytest.raises(ConfigError, match=f"key '{key}' is malformed"):
            load(dict(base, **doc))

    def test_whole_numbers_may_fill_float_keys(self):
        spec = load_retention_spec({"ratio_visual": 0, "ratio_audio": 1,
                                    "lambda": 2, "tau": 1})
        assert spec == RetentionSpec(r_v=0.0, r_a=1.0, lambda_=2.0, tau=1.0)
        assert type(spec.lambda_) is float

    def test_retention_spec(self):
        spec = load_retention_spec({"ratio_visual": 0.3, "ratio_audio": 0.65,
                                    "lambda": 1.4, "tau": 0.1})
        assert spec == RetentionSpec(r_v=0.3, r_a=0.65, lambda_=1.4, tau=0.1)

    @pytest.mark.parametrize("value", [0.35, float("inf")],
                             ids=["number", "inf"])
    def test_retention_overall_ratio_refused(self, value):
        # nothing reads an overall ratio, so a document carrying one is
        # refused as a typo would be, whatever its value
        with pytest.raises(ConfigError,
                           match="^unknown retention spec keys: ratio$"):
            load_retention_spec({"ratio_visual": 0.3, "ratio_audio": 0.65,
                                 "lambda": 1.4, "tau": 0.1, "ratio": value})

    def test_retention_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown retention spec keys"):
            load_retention_spec({"ratio_visual": 0.3, "ratio_audio": 0.65,
                                 "lambda": 1.4, "tau": 0.1, "lamda": 1.0})

    def test_synth_spec(self):
        spec = load_synth_spec({"seed": 7, "windows": 4, "d": 16,
                                "visual_per_window": 72,
                                "audio_per_window": 12, "text_tokens": 10,
                                "planted_windows": [1], "planted_gain": 6.0})
        assert spec == SynthSpec(seed=7, T=4, d=16, n_v=72, n_a=12, n_q=10,
                                 planted_windows=(1,), planted_gain=6.0)

    def test_synth_spec_planting_optional(self):
        spec = load_synth_spec({"seed": 7, "windows": 2, "d": 4,
                                "visual_per_window": 3, "audio_per_window": 2,
                                "text_tokens": 2})
        assert spec.planted_windows == ()
        assert spec.planted_gain == 0.0


class TestScheduleReports:
    def test_shared_delta_comment(self):
        plan = build_schedule(QWEN25, 0.3, 1.4)
        _, c = solve_delta(QWEN25, 0.3, 1.4)
        text = schedule_csv(plan, plan, QWEN25, c)
        lines = text.splitlines()
        assert lines[0] == "# C=-42.759"
        assert lines[1] == "# delta=0.0295"
        assert lines[2] == "layer,block,trr_v,trr_a"
        assert len(lines) == 3 + 28

    def test_split_delta_comments(self):
        plan_v = build_schedule(QWEN25, 0.3, 1.4)
        plan_a = build_schedule(QWEN25, 0.65, 1.4)
        _, c = solve_delta(QWEN25, 0.3, 1.4)
        lines = schedule_csv(plan_v, plan_a, QWEN25, c).splitlines()
        assert lines[1].startswith("# delta_v=")
        assert lines[2].startswith("# delta_a=")

    def test_rows_match_plan(self):
        plan_v = build_schedule(QWEN25, 0.3, 1.4)
        plan_a = build_schedule(QWEN25, 0.65, 1.4)
        _, c = solve_delta(QWEN25, 0.3, 1.4)
        lines = schedule_csv(plan_v, plan_a, QWEN25, c).splitlines()
        row17 = lines[4 + 16].split(",")
        assert row17[0] == "17"
        assert float(row17[2]) == pytest.approx(plan_v.trr_at(17), abs=1e-6)
        assert float(row17[3]) == pytest.approx(plan_a.trr_at(17), abs=1e-6)

    def test_json_mirror(self):
        plan = build_schedule(QWEN25, 0.3, 1.4)
        _, c = solve_delta(QWEN25, 0.3, 1.4)
        doc = json.loads(schedule_json(plan, plan, QWEN25, c))
        assert doc["C"] == pytest.approx(c)
        assert len(doc["layers"]) == 28
        assert doc["layers"][0]["layer"] == 1
        assert doc["layers"][16]["trr_v"] == pytest.approx(plan.trr_at(17))


class TestBudgetReports:
    def plan(self):
        return allocate(np.array([0.8, 0.2]), np.array([0.5, 0.5]), 0.5, 0.5,
                        WindowLayout(n_v=np.array([4, 4]),
                                     n_a=np.array([2, 2])))

    def test_csv_rows(self):
        lines = budget_csv(self.plan()).splitlines()
        assert lines[0] == "window,B,B_v,B_a"
        assert len(lines) == 3
        assert lines[1] == "0,4,3,1"

    def test_json_mirror(self):
        plan = self.plan()
        doc = json.loads(budget_json(plan))
        assert doc["totals"]["combined"] == plan.totals[2]
        assert [row["B"] for row in doc["budgets"]] == plan.b.tolist()


class TestTraceReports:
    def ran(self):
        spec = SynthSpec(seed=0, T=4, d=16, n_v=72, n_a=12, n_q=10)
        ret = RetentionSpec(r_v=0.30, r_a=0.65, lambda_=1.4, tau=0.1)
        _, trace = run_pipeline(spec, QWEN25, ret)
        return trace

    def test_csv_round_trip(self):
        trace = self.ran()
        view = parse_trace_csv(trace_csv(trace))
        assert np.array_equal(view.seq_len, trace.seq_len)
        assert view.n_original == tuple(trace.n_original)
        assert view.layers == 28

    def test_view_prices_like_trace(self):
        trace = self.ran()
        view = parse_trace_csv(trace_csv(trace))
        assert trace_flops(view, QWEN25).flops_total == pytest.approx(
            trace_flops(trace, QWEN25).flops_total, rel=1e-12
        )

    def test_header_line_required(self):
        text = trace_csv(self.ran()).replace("layer,seq_len", "layer,len")
        with pytest.raises(ContainerFormatError, match="unexpected trace header"):
            parse_trace_csv(text)

    def test_metadata_required(self):
        text = "\n".join(
            line for line in trace_csv(self.ran()).splitlines()
            if not line.startswith("# n_visual")
        )
        with pytest.raises(ContainerFormatError, match="metadata"):
            parse_trace_csv(text)

    @pytest.mark.parametrize("value, message", [
        ("x", "must be integers"), ("-3", "must be non-negative"),
        (str(10**400), "below 2\\*\\*63")])
    def test_metadata_counts_checked(self, value, message):
        text = "\n".join(
            f"# n_audio={value}" if line.startswith("# n_audio") else line
            for line in trace_csv(self.ran()).splitlines()
        )
        with pytest.raises(ContainerFormatError, match=message):
            parse_trace_csv(text)

    def test_column_count_checked(self):
        text = trace_csv(self.ran()) + "29,1,1\n"
        with pytest.raises(ContainerFormatError, match="5 columns"):
            parse_trace_csv(text)

    def test_layer_coverage_checked(self):
        lines = trace_csv(self.ran()).splitlines()
        del lines[-2]  # drop layer 27, keep 28
        with pytest.raises(ContainerFormatError, match="cover 1..L"):
            parse_trace_csv("\n".join(lines))

    def test_empty_rejected(self):
        with pytest.raises(ContainerFormatError, match="no data rows"):
            parse_trace_csv("# n_visual=1\n")


class TestCostReports:
    def report(self):
        spec = SynthSpec(seed=0, T=4, d=16, n_v=72, n_a=12, n_q=10)
        ret = RetentionSpec(r_v=0.30, r_a=0.65, lambda_=1.4, tau=0.1)
        _, trace = run_pipeline(spec, QWEN25, ret)
        return trace_flops(trace, QWEN25)

    def test_csv_layout(self):
        rep = self.report()
        lines = cost_csv(rep).splitlines()
        assert lines[0].startswith("# formula=v1:")
        assert lines[4] == "layer,flops,kv_tokens"
        assert len(lines) == 5 + 28
        first = lines[5].split(",")
        assert first[0] == "1"
        assert int(first[2]) == rep.peak_kv_tokens

    def test_json_mirror(self):
        rep = self.report()
        doc = json.loads(cost_json(rep))
        assert doc["flops_total"] == pytest.approx(rep.flops_total)
        assert doc["ratio_vs_full"] == pytest.approx(rep.ratio_vs_full)
        assert len(doc["flops_per_layer"]) == 28
        assert doc["kv_tokens_per_layer"][0] == rep.peak_kv_tokens
