"""Bit-exact serialization.

OTS container ("omni token stream"), version 4:

    bytes 0..3    magic b"OTS4"
    bytes 4..11   header length H, unsigned 64-bit little-endian
    bytes 12..    UTF-8 JSON header, exactly H bytes, canonical form
                  (lexicographically sorted keys, no whitespace) padded
                  with spaces so that 12 + H is a multiple of 8
    next          three little-endian int64 columns of n entries each:
                  modality codes, window ids, positions (24n bytes)
    next          row-major float32 little-endian embeddings, n*d*4 bytes
    then          one block per header-declared section, in header order:
                  unsigned 64-bit LE byte length, then that many bytes of
                  float32 little-endian data

The header declares n, d, t, per-modality counts, generator provenance and
the section table: {"length": [...], "name": [...]}, two equal-length
columns with one entry per section, in name order; it holds no per-token
data. Every section is a float32 vector keyed by name (saliency or query
logits), so its byte length is its one size, which its block's prefix
repeats. Canonical form means identical inputs produce identical bytes.
Readers validate every declared size before touching the data, so
truncation is caught without materializing anything, and return read-only
views of input bytes rather than copies. `omniprefill gen` writes an OTS4
container; OTS1 to OTS3 ones are refused. An integer in a header or a
config document is a JSON integer, never a bool, a string or a float, and a
float is a finite JSON number, never a bool.

Configuration documents (model, retention, synth, and allocate's relevance
and layout) are plain JSON with fixed schemas; unknown keys are rejected
outright because a typo in a boundary would silently corrupt every
downstream number. A document's faults are ConfigErrors (defined in core,
re-exported here); a value the built object refuses is that object's own
error, a StreamError for a layout. Reports emit CSV with a header row and
'#' metadata comments; JSON mirrors exist for tooling.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import struct
from collections.abc import Mapping

import numpy as np

from .allocator import BudgetPlan
from .core import (
    AUDIO,
    MODALITY_NAMES,
    TEXT,
    VISUAL,
    ConfigError,
    EngineError,
    ModelConfig,
    RetentionSpec,
    StreamError,
    TokenStream,
    field_value,
    integer,
    integers,
    outside_array,
)
from .cost import CostReport
from .pipeline import PrefillTrace, SynthSpec
from .schedule import SchedulePlan, block_labels

MAGIC = b"OTS4"
OTS_VERSION = 4
COLUMNS = ("modality", "window_id", "position")


class ContainerFormatError(EngineError):
    """Malformed or truncated OTS bytes."""


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_ots(
    stream: TokenStream,
    sections: dict[str, np.ndarray] | None = None,
    generator: dict | None = None,
    T: int | None = None,
) -> bytes:
    """Serialize a stream (and optional named float sections) canonically.

    T defaults to one past the largest window id (text rows carry
    NO_WINDOW, as every TokenStream's do). Bytes read_ots would refuse are
    a ContainerFormatError, raised before anything is written: a T that is
    not an integer (a bool, a float or a string) or lies outside
    [1, max(1, n)], a visual or audio window id at or past T, a section
    name that is not a str, or section data that is not a 1-d vector of
    real numbers.
    """
    sections = sections or {}
    if T is None:
        T = int(stream.window_id.max(initial=0)) + 1
    T = field_value("T", integer, T, ContainerFormatError)
    if not 1 <= T <= max(1, stream.n):
        raise ContainerFormatError(f"cannot write t={T} for n={stream.n} "
                                   f"tokens (t must lie in [1, max(1, n)])")
    outside = np.flatnonzero(stream.window_id >= T)
    if outside.size:
        row = int(outside[0])
        raise ContainerFormatError(
            f"cannot write {MODALITY_NAMES[int(stream.modality[row])]} row "
            f"{row} with window id {int(stream.window_id[row])}, outside "
            f"[0, {T})")
    for name, data in sections.items():
        array = outside_array(data)
        if not isinstance(name, str) or array.dtype.kind not in "biuf":
            raise ContainerFormatError(
                f"section {name!r:.60} must have a str name and real data; "
                f"got {type(name).__name__} and {array.dtype}")
        if array.ndim != 1:
            raise ContainerFormatError(
                f"section {name!r:.60} must be a 1-d vector; got shape "
                f"{array.shape}")
    names = sorted(sections)
    with np.errstate(over="ignore"):  # float32 rounds past its range to inf
        arrays = [np.ascontiguousarray(sections[name], dtype="<f4")
                  for name in names]
    table = {"length": [arr.nbytes for arr in arrays], "name": names}
    blobs = [x for arr in arrays for x in (struct.pack("<Q", arr.nbytes), arr)]
    header = {
        "counts": {
            "audio": stream.n_audio,
            "text": stream.n_text,
            "visual": stream.n_visual,
        },
        "d": stream.d,
        "generator": generator,
        "n": stream.n,
        "sections": table,
        "t": T,
        "version": OTS_VERSION,
    }
    header_bytes = _canonical_json(header)
    header_bytes += b" " * (-(12 + len(header_bytes)) % 8)
    columns = [np.ascontiguousarray(getattr(stream, key), dtype="<i8")
               for key in COLUMNS]
    embeddings = np.ascontiguousarray(stream.embeddings, dtype="<f4")
    return b"".join([MAGIC, struct.pack("<Q", len(header_bytes)),
                     header_bytes, *columns, embeddings, *blobs])


def write_ots_file(path, stream, sections=None, generator=None, T=None) -> None:
    """write_ots to path; a refused stream or section leaves no file."""
    data = write_ots(stream, sections, generator, T)
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise ContainerFormatError(f"cannot write {path}: {exc}") from exc


def _number(value) -> float:
    """float(value), when value is a finite JSON number that is not a bool."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError("a finite number is needed")
    return float(value)


def _numbers(value) -> tuple[float, ...]:
    """A JSON list of finite numbers, none a bool, as a tuple."""
    if type(value) is not list:
        raise TypeError("a list of numbers is needed")
    return tuple(map(_number, value))


def _shaped(flat: np.ndarray, shape: tuple, what: str):
    """flat, a float32 view of math.prod(shape) entries, in that shape; an
    empty view may declare a dimension numpy cannot represent."""
    try:
        return flat.reshape(shape)
    except ValueError as exc:
        raise ContainerFormatError(f"{what} shape {shape} is not "
                                   f"representable ({exc})") from exc


SECTION_COLUMNS = ("length", "name")


class Sections(Mapping):
    """A container's sections, read-only, in section-table order: name ->
    float32 vector, a view of the container bytes. One view of the section
    region backs every section; a section's own view is made only when it
    is asked for, so a table of thousands of entries costs a name index and
    two int64 columns, not an array object per entry."""

    def __init__(self, region: np.ndarray, index: dict[str, int],
                 firsts: np.ndarray, sizes: np.ndarray):
        self._region = region
        self._index = index
        # one trailing -1 in each column answers the -1 of an absent name
        self._first = np.concatenate((firsts, [-1]))
        self._size = np.concatenate((sizes, [-1]))

    def __getitem__(self, name: str) -> np.ndarray:
        entry = self._index[name]
        first = int(self._first[entry])
        return self._region[first : first + int(self._size[entry])]

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def gather(self, names: list[str], counts: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray | None]:
        """Each name's entry count (-1 for a name not held) and, in one
        index, the float32 entries of every name back to back, with
        counts[i] ones for a name i not held. The vector is None when no
        name is held."""
        get = self._index.get
        entries = np.fromiter((get(name, -1) for name in names),
                              dtype=np.int64, count=len(names))
        sizes = self._size[entries]
        held = sizes >= 0
        if not held.any():
            return sizes, None
        # entry j of name i sits at _first[entries[i]] + j of the region
        lengths = np.where(held, sizes, counts)
        ends = lengths.cumsum()
        at = ((self._first[entries] - (ends - lengths)).repeat(lengths)
              + np.arange(ends[-1]))
        if held.all():
            return sizes, self._region[at]
        held = held.repeat(lengths)
        vec = np.ones(at.size, dtype=np.float32)
        vec[held] = self._region[at[held]]
        return sizes, vec


def _read_sections(data, table, start: int) -> Sections:
    """The sections a columnar table declares, as a Sections mapping over
    the blocks that fill data[start:]. Past the table's structure, passes
    over whole columns answer only whether every entry is sound, and a table
    they refuse goes to _section_fault: walking every table would read one
    of thousands of entries about 4.5 times as slowly."""
    if not isinstance(table, dict):
        raise ContainerFormatError(
            f"header 'sections' must be an object, got {table!r:.60}")
    if sorted(table) != list(SECTION_COLUMNS):
        raise ContainerFormatError(
            f"header 'sections' must hold the columns length and name, got "
            f"{sorted(table)!r:.60}")
    lengths, names = columns = [table[k] for k in SECTION_COLUMNS]
    for key, column in zip(SECTION_COLUMNS, columns):
        if type(column) is not list:
            raise ContainerFormatError(
                f"section column {key!r} must be a list, got {column!r:.60}")
    if len(lengths) != len(names):
        raise ContainerFormatError(
            f"section columns differ in length: {len(lengths)} lengths, "
            f"{len(names)} names")

    # integer's rule comes first, so the passes after it meet only str
    # names and integers, and their Python-int sum cannot wrap. Blocks that
    # fill the data fit int64 lengths; whole float32 entries put every
    # block, a u64 prefix and its data, a multiple of 4 bytes past start, so
    # each section is a slice of one view and each prefix two of its words
    if not (set(map(type, names)) <= {str} and set(map(type, lengths)) <= {int}
            and min(lengths, default=0) >= 0
            and 8 * len(lengths) + sum(lengths) == len(data) - start):
        _section_fault(data, columns, start)
    sizes, partial = np.divmod(np.array(lengths, dtype=np.int64), 4)
    if partial.any():
        _section_fault(data, columns, start)
    region = np.frombuffer(data, dtype="<f4", count=(len(data) - start) // 4,
                           offset=start)
    firsts = (sizes + 2).cumsum()
    firsts -= sizes
    stored = region.view("<i4")[firsts[:, None] - [2, 1]].view("<i8")[:, 0]
    index = dict(zip(names, itertools.count()))
    if len(index) < len(names) or not (stored == 4 * sizes).all():
        _section_fault(data, columns, start)
    return Sections(region, index, firsts, sizes)


def _section_fault(data, columns: list, start: int):
    """Raise the first fault of a section table the column passes refused:
    entry by entry, the first check it fails of a malformed name or length,
    a name an earlier entry uses, a length negative or not 4 bytes per
    entry, a truncated or disagreeing length prefix and truncated data;
    past the last entry, trailing bytes. Python-int sums cannot wrap."""
    at, first = start, {}
    for entry, (length, name) in enumerate(zip(*columns)):
        if type(name) is not str:
            raise ContainerFormatError(
                f"section entry {entry} name is malformed: {name!r:.60} "
                f"(a section needs a string name)")
        field_value(f"section {name!r} length", integer, length,
                    ContainerFormatError)
        if first.setdefault(name, entry) != entry:
            raise ContainerFormatError(
                f"section {name!r} at entry {entry} repeats the name of "
                f"entry {first[name]}")
        if length < 0 or length % 4:
            raise ContainerFormatError(
                f"section {name!r} declares {length} bytes, not a whole "
                f"number of 4-byte float32 entries")
        if at + 8 > len(data):
            raise ContainerFormatError(
                f"truncated section prefix for {name!r} at byte {at}")
        said = int.from_bytes(data[at : at + 8], "little")
        if said != length:
            raise ContainerFormatError(
                f"section {name!r} prefix at byte {at} says {said} bytes, "
                f"header says {length}")
        at += 8
        if at + length > len(data):
            raise ContainerFormatError(
                f"truncated section {name!r} at byte {at}: need {length} "
                f"bytes, found {len(data) - at}")
        at += length
    raise ContainerFormatError(
        f"{len(data) - at} unexpected trailing bytes at byte {at}")


def read_ots(data: bytes) -> tuple[TokenStream, Sections, dict]:
    """Parse OTS bytes back into (stream, sections, header).

    Strict inverse of write_ots on valid input; every size is checked against
    what the header declares before any array is built, and a stream that
    TokenStream refuses is a ContainerFormatError with the same message.
    sections, a read-only Sections mapping of float32 vectors, replaces the
    header's "sections" table. When data is a bytes object, the stream's
    arrays and the sections are read-only views of it, not copies.
    """
    if len(data) < 12:
        raise ContainerFormatError(
            f"truncated at byte {len(data)}: magic and header length need 12 bytes")
    if data[:4] != MAGIC:
        # "OTS" and another digit is another container revision, not garbage
        if data[:3] == MAGIC[:3]:
            raise ContainerFormatError(
                f"unsupported container version {data[:4]!r}, this reader "
                f"handles {MAGIC!r}; omniprefill gen regenerates a container "
                f"from its synth spec")
        raise ContainerFormatError(
            f"bad magic at byte 0: got {data[:4]!r}, expected {MAGIC!r}")
    (header_len,) = struct.unpack("<Q", data[4:12])
    if 12 + header_len > len(data):
        raise ContainerFormatError(
            f"truncated header at byte 12: declared {header_len} bytes, "
            f"{len(data) - 12} available")
    try:
        header = json.loads(data[12 : 12 + header_len].decode("utf-8"))
    except ValueError as exc:  # bad UTF-8, bad JSON or an oversized number
        raise ContainerFormatError(f"unreadable header at byte 12: {exc}") from exc
    if not isinstance(header, dict):
        raise ContainerFormatError("header must be a JSON object")
    version = header.get("version")
    if type(version) is not int or version != OTS_VERSION:
        raise ContainerFormatError(
            f"unsupported version {version!r}, this reader handles {OTS_VERSION}")

    for key in ("n", "d", "t", "counts", "sections"):
        if key not in header:
            raise ContainerFormatError(f"header lacks required key {key!r}")
    n, d, t = (field_value(f"header {key!r}", integer, header[key],
                           ContainerFormatError) for key in ("n", "d", "t"))
    # every window array is sized by t, so t may not outgrow the tokens
    if n < 0 or d < 1 or not 1 <= t <= max(1, n):
        raise ContainerFormatError(f"invalid dimensions n={n}, d={d}, t={t} "
                                   f"(t must lie in [1, max(1, n)])")
    declared = header["counts"]
    if not isinstance(declared, dict):
        raise ContainerFormatError(
            f"header 'counts' must be an object, got {declared!r:.60}")

    offset = 12 + header_len
    payload_len = 24 * n + 4 * n * d
    if offset + payload_len > len(data):
        raise ContainerFormatError(
            f"truncated payload at byte {offset}: the columns and embeddings "
            f"need {payload_len} bytes (24n+4nd), found {len(data) - offset}")
    modality, window_id, position = (
        np.frombuffer(data, dtype="<i8", count=n, offset=offset + 8 * n * i)
        for i in range(3))
    embeddings = _shaped(
        np.frombuffer(data, dtype="<f4", count=n * d, offset=offset + 24 * n),
        (n, d), "embeddings")
    offset += payload_len

    for label, code in (("visual", VISUAL), ("audio", AUDIO), ("text", TEXT)):
        actual = int(np.count_nonzero(modality == code))
        if type(declared.get(label)) is not int or declared[label] != actual:
            raise ContainerFormatError(
                f"count mismatch: header says {declared.get(label)} {label} "
                f"tokens, codes tally {actual}")
    # a negative value turns into a huge one as uint64, so one compare
    # picks the visual and audio codes and one covers both ends of [0, t)
    outside = ((modality.view("<u8") < TEXT)
               & (window_id.view("<u8") >= t))
    if outside.any():
        row = int(outside.argmax())
        raise ContainerFormatError(
            f"{MODALITY_NAMES[int(modality[row])]} row {row} has window id "
            f"{int(window_id[row])}, outside [0, {t})")
    del outside  # a flag per row, not held while the stream is built
    # the stream's own invariants are TokenStream's to check
    try:
        stream = TokenStream(embeddings=embeddings, modality=modality,
                             window_id=window_id, position=position)
    except StreamError as exc:
        raise ContainerFormatError(str(exc)) from exc

    sections = _read_sections(data, header.pop("sections"), offset)
    return stream, sections, header


def read_ots_file(path) -> tuple[TokenStream, Sections, dict]:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ContainerFormatError(f"cannot read {path}: {exc}") from exc
    return read_ots(data)


# ---------------------------------------------------------------- configs

def _load_config(source, cls, kind: str, fields: dict):
    """cls built from a config document, a path or a dict. fields maps each
    document key to (argument name, conversion, required). An unknown or
    missing key, or a value its conversion refuses, is a ConfigError naming
    the key; a value cls refuses is cls's own domain error (a ConfigError,
    or a StreamError from a WindowLayout)."""
    if isinstance(source, dict):
        doc = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read {kind} file {source}: {exc}") from exc
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ConfigError(f"{kind} file {source} is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{kind} document must be a JSON object")
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise ConfigError(f"unknown {kind} keys: {', '.join(unknown)}")
    missing = sorted(k for k, (_, _, required) in fields.items()
                     if required and k not in doc)
    if missing:
        raise ConfigError(f"missing {kind} keys: {', '.join(missing)}")
    return cls(**{arg: field_value(f"{kind} key {key!r}", convert, doc[key],
                                   ConfigError)
                  for key, (arg, convert, _) in fields.items() if key in doc})


def load_model_config(source) -> ModelConfig:
    return _load_config(source, ModelConfig, "model config", {
        "layers": ("layers", integer, True),
        "d_model": ("d_model", integer, True),
        "d_ff": ("d_ff", integer, True),
        "n_heads": ("n_heads", integer, True),
        "boundaries": ("boundaries", integers, True),
    })


def load_retention_spec(source) -> RetentionSpec:
    return _load_config(source, RetentionSpec, "retention spec", {
        "ratio_visual": ("r_v", _number, True),
        "ratio_audio": ("r_a", _number, True),
        "lambda": ("lambda_", _number, True),
        "tau": ("tau", _number, True),
    })


def load_synth_spec(source) -> SynthSpec:
    return _load_config(source, SynthSpec, "synth spec", {
        "seed": ("seed", integer, True),
        "windows": ("T", integer, True),
        "d": ("d", integer, True),
        "visual_per_window": ("n_v", integer, True),
        "audio_per_window": ("n_a", integer, True),
        "text_tokens": ("n_q", integer, True),
        "planted_windows": ("planted_windows", integers, False),
        "planted_gain": ("planted_gain", _number, False),
    })


# ---------------------------------------------------------------- reports

def _schedule_rows(plan_v, plan_a, config: ModelConfig):
    """(layer, block label, trr_v, trr_a) of every layer, 1 first."""
    return zip(range(1, config.layers + 1), block_labels(config),
               plan_v.per_layer_trr.tolist(), plan_a.per_layer_trr.tolist())


def schedule_csv(
    plan_v: SchedulePlan,
    plan_a: SchedulePlan,
    config: ModelConfig,
    c_value: float,
) -> str:
    """Per-layer schedule table. With one shared target the two trr columns
    coincide and a single delta comment is emitted."""
    lines = [f"# C={c_value:.3f}"]
    if plan_v.delta == plan_a.delta:
        lines.append(f"# delta={plan_v.delta:.4f}")
    else:
        lines.append(f"# delta_v={plan_v.delta:.4f}")
        lines.append(f"# delta_a={plan_a.delta:.4f}")
    lines.append("layer,block,trr_v,trr_a")
    for layer, block, trr_v, trr_a in _schedule_rows(plan_v, plan_a, config):
        lines.append(f"{layer},{block},{trr_v:.6f},{trr_a:.6f}")
    return "\n".join(lines) + "\n"


def schedule_json(plan_v, plan_a, config, c_value) -> str:
    doc = {
        "C": c_value,
        "delta_a": plan_a.delta,
        "delta_v": plan_v.delta,
        "layers": [
            {"block": block, "layer": layer, "trr_a": trr_a, "trr_v": trr_v}
            for layer, block, trr_v, trr_a in _schedule_rows(plan_v, plan_a,
                                                             config)
        ],
    }
    return _canonical_json(doc).decode("utf-8")


def budget_csv(plan: BudgetPlan) -> str:
    lines = ["window,B,B_v,B_a"]
    for t in range(plan.T):
        lines.append(f"{t},{int(plan.b[t])},{int(plan.b_v[t])},{int(plan.b_a[t])}")
    return "\n".join(lines) + "\n"


def budget_json(plan: BudgetPlan) -> str:
    doc = {
        "budgets": [
            {"B": int(plan.b[t]), "B_a": int(plan.b_a[t]),
             "B_v": int(plan.b_v[t]), "window": t}
            for t in range(plan.T)
        ],
        "totals": {"audio": plan.totals[1], "combined": plan.totals[2],
                   "visual": plan.totals[0]},
    }
    return _canonical_json(doc).decode("utf-8")


def trace_csv(trace: PrefillTrace) -> str:
    n_v, n_a, n_q = trace.n_original
    ls, lm1, lm2, ll = trace.config.boundaries
    lines = [
        f"# layers={trace.layers}",
        f"# boundaries={ls},{lm1},{lm2},{ll}",
        f"# windows={trace.T}",
        f"# n_visual={n_v}",
        f"# n_audio={n_a}",
        f"# n_text={n_q}",
        f"# ratio_visual={trace.retention.r_v:.6f}",
        f"# ratio_audio={trace.retention.r_a:.6f}",
        f"# lambda={trace.retention.lambda_:.6f}",
        f"# tau={trace.retention.tau:.6f}",
        "layer,seq_len,kept_visual,kept_audio,kept_text",
    ]
    # each column read once, as Python ints
    columns = (trace.seq_len.tolist(), trace.kept_v.tolist(),
               trace.kept_a.tolist(), trace.kept_text.tolist())
    lines += [f"{i},{n},{v},{a},{q}"
              for i, (n, v, a, q) in enumerate(zip(*columns), start=1)]
    return "\n".join(lines) + "\n"


@dataclasses.dataclass(frozen=True)
class TraceView:
    """Just enough of a trace, reloaded from CSV, to price it."""

    seq_len: np.ndarray
    n_original: tuple[int, int, int]

    @property
    def layers(self) -> int:
        return int(self.seq_len.shape[0])


def parse_trace_csv(text: str) -> TraceView:
    meta: dict[str, str] = {}
    rows: list[tuple[int, int]] = []
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if "=" in line:
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value.strip()
            continue
        if not header_seen:
            if line != "layer,seq_len,kept_visual,kept_audio,kept_text":
                raise ContainerFormatError(
                    f"line {lineno}: unexpected trace header {line!r}"
                )
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise ContainerFormatError(
                f"line {lineno}: expected 5 columns, got {len(parts)}"
            )
        try:
            layer, seq_len = int(parts[0]), int(parts[1])
        except ValueError:
            raise ContainerFormatError(
                f"line {lineno}: layer and seq_len must be integers"
            ) from None
        if not 0 <= seq_len < 2**63:
            raise ContainerFormatError(
                f"line {lineno}: seq_len {seq_len} lies outside [0, 2**63)"
            )
        rows.append((layer, seq_len))
    if not header_seen or not rows:
        raise ContainerFormatError("trace CSV has no data rows")
    try:
        n_original = (int(meta["n_visual"]), int(meta["n_audio"]),
                      int(meta["n_text"]))
    except KeyError as exc:
        raise ContainerFormatError(
            f"trace CSV lacks required metadata comment {exc}"
        ) from exc
    except ValueError:
        raise ContainerFormatError(
            "trace CSV metadata n_visual, n_audio and n_text must be integers"
        ) from None
    if not all(0 <= n < 2**63 for n in n_original):
        raise ContainerFormatError("trace CSV token counts must be "
                                   "non-negative and below 2**63")
    rows.sort()
    if [r[0] for r in rows] != list(range(1, len(rows) + 1)):
        raise ContainerFormatError("trace CSV layer column must cover 1..L")
    return TraceView(
        seq_len=np.array([r[1] for r in rows], dtype=np.int64),
        n_original=n_original,
    )


def cost_csv(report: CostReport) -> str:
    lines = [
        f"# formula={report.formula}",
        f"# flops_total={report.flops_total:.6e}",
        f"# ratio_vs_full={report.ratio_vs_full:.6f}",
        f"# peak_kv_tokens={report.peak_kv_tokens}",
        "layer,flops,kv_tokens",
    ]
    for i, (fl, kv) in enumerate(
        zip(report.flops_per_layer, report.kv_tokens_per_layer), start=1
    ):
        lines.append(f"{i},{fl:.6e},{int(kv)}")
    return "\n".join(lines) + "\n"


def cost_json(report: CostReport) -> str:
    doc = {
        "flops_per_layer": [float(x) for x in report.flops_per_layer],
        "flops_total": report.flops_total,
        "formula": report.formula,
        "kv_tokens_per_layer": [int(x) for x in report.kv_tokens_per_layer],
        "peak_kv_tokens": report.peak_kv_tokens,
        "ratio_vs_full": report.ratio_vs_full,
    }
    return _canonical_json(doc).decode("utf-8")
