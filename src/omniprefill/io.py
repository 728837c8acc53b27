"""Bit-exact serialization.

OTS container ("omni token stream"), version 3:

    bytes 0..3    magic b"OTS3"
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
the section table: {"length": [...], "name": [...], "shape": [[...], ...]},
three equal-length columns with one entry per name, in name order. It holds
no per-token data. Sections carry saliency vectors, attention matrices, or
query logits keyed by name. Canonical form means identical inputs produce
identical bytes. Readers validate every declared size before touching the
data, so truncation is caught without materializing anything, and return
read-only views of input bytes rather than copies. OTS1 and OTS2 containers
are no longer read; `omniprefill gen` writes an OTS3 one. An integer in a
header or a config document is a JSON integer, never a bool, a string or a
float, and a float is a finite JSON number, never a bool.

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
from .schedule import SchedulePlan, block_of

MAGIC = b"OTS3"
OTS_VERSION = 3
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
    a ContainerFormatError instead: a T outside [1, max(1, n)], a visual
    or audio window id at or past T, a section name that is not a str, or
    section data that is not of real numbers.
    """
    sections = sections or {}
    if T is None:
        T = int(stream.window_id.max(initial=0)) + 1
    T = int(T)
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
        dtype = outside_array(data).dtype
        if not isinstance(name, str) or dtype.kind not in "biuf":
            raise ContainerFormatError(
                f"section {name!r:.60} must have a str name and real data; "
                f"got {type(name).__name__} and {dtype}")
    names = sorted(sections)
    with np.errstate(over="ignore"):  # float32 rounds past its range to inf
        arrays = [np.ascontiguousarray(sections[name], dtype="<f4")
                  for name in names]
    table = {"length": [arr.nbytes for arr in arrays], "name": names,
             "shape": [list(arr.shape) for arr in arrays]}
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
    """flat, a float32 view already checked to hold math.prod(shape)
    entries, in that shape. An empty view can still declare a dimension
    numpy cannot represent."""
    try:
        return flat.reshape(shape)
    except ValueError as exc:
        raise ContainerFormatError(f"{what} shape {shape} is not "
                                   f"representable ({exc})") from exc


SECTION_COLUMNS = ("length", "name", "shape")


class Sections(Mapping):
    """A container's sections, read-only, in section-table order: name ->
    float32 view of the container bytes. One view of the section region
    backs every section; a section's own view is made only when it is asked
    for, so a table of thousands of entries costs a name index and two
    int64 columns, not an array object per entry."""

    def __init__(self, region: np.ndarray, index: dict[str, int],
                 firsts: np.ndarray, sizes: np.ndarray, shapes: dict):
        self._region = region
        self._index = index
        # one trailing -1 in each column answers the -1 of an absent name
        self._first = np.append(firsts, -1)
        self._size = np.append(sizes, -1)
        self._shapes = shapes  # entry -> shape, for entries not vectors

    def __getitem__(self, name: str) -> np.ndarray:
        entry = self._index[name]
        first = int(self._first[entry])
        flat = self._region[first : first + int(self._size[entry])]
        shape = self._shapes.get(entry)
        return flat if shape is None else flat.reshape(shape)

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
        ends = np.cumsum(lengths)
        at = (np.repeat(self._first[entries] - (ends - lengths), lengths)
              + np.arange(ends[-1]))
        if held.all():
            return sizes, self._region[at]
        held = np.repeat(held, lengths)
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
            f"header 'sections' must hold the columns length, name and "
            f"shape, got {sorted(table)!r:.60}")
    lengths, names, shapes = columns = [table[k] for k in SECTION_COLUMNS]
    for key, column in zip(SECTION_COLUMNS, columns):
        if type(column) is not list:
            raise ContainerFormatError(
                f"section column {key!r} must be a list, got {column!r:.60}")
    if not len(lengths) == len(names) == len(shapes):
        raise ContainerFormatError(
            f"section columns differ in length: {len(lengths)} lengths, "
            f"{len(names)} names, {len(shapes)} shapes")

    # integer's rule comes first, so the passes after it meet only str
    # names and integers, and their Python-int sums and products cannot wrap
    if not (set(map(type, names)) <= {str} and set(map(type, lengths)) <= {int}
            and set(map(type, shapes)) <= {list}
            and set(map(type, itertools.chain.from_iterable(shapes))) <= {int}
            and min(itertools.chain.from_iterable(shapes), default=0) >= 0
            and lengths == [4 * math.prod(shape) for shape in shapes]
            and 8 * len(lengths) + sum(lengths) == len(data) - start):
        _section_fault(data, columns, start)
    # the blocks fill the data, so every one, a u64 length prefix and its
    # data, starts a multiple of 4 bytes past start: each section is a
    # slice of this single view and each prefix two of its words
    region = np.frombuffer(data, dtype="<f4", count=(len(data) - start) // 4,
                           offset=start)
    sizes = np.array(lengths, dtype=np.int64) // 4
    firsts = np.cumsum(sizes + 2) - sizes
    stored = region.view("<i4")[firsts[:, None] - [2, 1]].view("<i8")[:, 0]
    index = dict(zip(names, itertools.count()))
    if len(index) < len(names) or not np.array_equal(stored, 4 * sizes):
        _section_fault(data, columns, start)
    # every other check has passed for every entry, so the first shape
    # numpy cannot represent is the table's first fault
    shaped = {entry: tuple(dims) for entry, dims in enumerate(shapes)
              if len(dims) != 1}
    for entry, shape in shaped.items():
        first = int(firsts[entry])
        _shaped(region[first : first + int(sizes[entry])], shape,
                f"section {names[entry]!r}")
    return Sections(region, index, firsts, sizes, shaped)


def _section_fault(data, columns: list, start: int):
    """Raise the first fault of a section table the column passes refused:
    entry by entry, the first check the entry fails of a malformed field, a
    name an earlier entry uses, negative dimensions, a length not 4 bytes
    per entry, a truncated length prefix, a prefix that disagrees,
    truncated data and a shape numpy cannot represent; past the last entry,
    trailing bytes. The sums stay Python ints, so none can wrap."""
    at, first = start, {}
    for entry, (length, name, shape) in enumerate(zip(*columns)):
        if type(name) is not str:
            raise ContainerFormatError(
                f"section entry {entry} name is malformed: {name!r:.60} "
                f"(a section needs a string name)")
        field_value(f"section {name!r} length", integer, length,
                    ContainerFormatError)
        shape = field_value(f"section {name!r} shape", integers, shape,
                            ContainerFormatError)
        if first.setdefault(name, entry) != entry:
            raise ContainerFormatError(
                f"section {name!r} at entry {entry} repeats the name of "
                f"entry {first[name]}")
        if min(shape, default=0) < 0:
            raise ContainerFormatError(
                f"section {name!r} declares negative dimensions {shape}")
        if length != 4 * math.prod(shape):
            raise ContainerFormatError(
                f"section {name!r} declares {length} bytes but shape {shape} "
                f"needs {4 * math.prod(shape)}")
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
        _shaped(np.frombuffer(data, dtype="<f4", count=length // 4,
                              offset=at), shape, f"section {name!r}")
        at += length
    raise ContainerFormatError(
        f"{len(data) - at} unexpected trailing bytes at byte {at}")


def read_ots(data: bytes) -> tuple[TokenStream, Sections, dict]:
    """Parse OTS bytes back into (stream, sections, header).

    Strict inverse of write_ots on valid input; every size is checked against
    what the header declares before any array is built, and a stream that
    TokenStream refuses is a ContainerFormatError with the same message.
    sections is a read-only Sections mapping that makes each section's view
    when it is asked for; the header comes back without its "sections"
    table, which the mapping replaces. When data is a bytes object, the
    stream's arrays and the sections are read-only views of it, not copies.
    """
    if len(data) < 12:
        raise ContainerFormatError(
            f"truncated at byte {len(data)}: magic and header length need 12 bytes")
    if data[:4] != MAGIC:
        # "OTS" followed by an unexpected digit is a later/earlier container
        # revision, not garbage; report it as a version problem.
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
    outside = np.flatnonzero((modality.view("<u8") < TEXT)
                             & (window_id.view("<u8") >= t))
    if outside.size:
        row = int(outside[0])
        raise ContainerFormatError(
            f"{MODALITY_NAMES[int(modality[row])]} row {row} has window id "
            f"{int(window_id[row])}, outside [0, {t})")
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
    for layer in range(1, config.layers + 1):
        lines.append(
            f"{layer},{block_of(layer, config)},"
            f"{plan_v.trr_at(layer):.6f},{plan_a.trr_at(layer):.6f}"
        )
    return "\n".join(lines) + "\n"


def schedule_json(plan_v, plan_a, config, c_value) -> str:
    doc = {
        "C": c_value,
        "delta_a": plan_a.delta,
        "delta_v": plan_v.delta,
        "layers": [
            {
                "block": block_of(layer, config),
                "layer": layer,
                "trr_a": plan_a.trr_at(layer),
                "trr_v": plan_v.trr_at(layer),
            }
            for layer in range(1, config.layers + 1)
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
    for i in range(trace.layers):
        lines.append(
            f"{i + 1},{int(trace.seq_len[i])},{int(trace.kept_v[i])},"
            f"{int(trace.kept_a[i])},{int(trace.kept_text[i])}"
        )
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
