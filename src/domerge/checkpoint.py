"""safetensors container I/O and adapter extraction.

The container layout is: an 8-byte little-endian unsigned header length N,
then N bytes of JSON mapping tensor names to {dtype, shape, data_offsets},
then one flat byte buffer. data_offsets are [begin, end) relative to the
buffer. A "__metadata__" entry in the header (string map, written by some
producers) is tolerated and ignored.

Parsing is strict: every declared tensor must land inside the buffer, byte
ranges must not overlap, and each range must match shape x dtype width.
Failures raise ParseError carrying the file byte position.

A header longer than the reference reader's limit is refused unread, and
so is a key that is not text. Loaded records name byte ranges of the open
file, read on demand with positional reads; no file is mapped. Saving
writes the header and then each record at its tensor's cursor with
positional writes, so tensors can be produced and written one at a time,
or one row block at a time, the blocks of different tensors interleaved.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
import stat
import sys
import weakref
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# dtype -> (wire name, width, numpy storage code); bf16 is stored as raw 16-bit words
_DTYPES = {
    "f64": ("F64", 8, "<f8"),
    "f32": ("F32", 4, "<f4"),
    "f16": ("F16", 2, "<f2"),
    "bf16": ("BF16", 2, "<u2"),
}
_WIRE_TO_DTYPE = {wire: name for name, (wire, _, _) in _DTYPES.items()}

# the longest header the reference safetensors reader accepts
_MAX_HEADER_BYTES = 100_000_000
# a JSON "\ud800" escape decodes to a lone surrogate: a str no output can encode
_SURROGATE = re.compile("[\ud800-\udfff]")

# a LoRA factor pair is stored under <layer key><suffix>
LORA_A_SUFFIX = ".lora_A.weight"
LORA_B_SUFFIX = ".lora_B.weight"


class CheckpointError(Exception):
    """Base for all container and adapter-structure failures."""


class ParseError(CheckpointError):
    """A container that breaks the format: a bad header, dtype or byte range, or a payload cut short."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (byte {position})")
        self.message, self.position = message, position


class AlignmentError(CheckpointError):
    """Adapter structure problems: unmatched factor pairs, shape conflicts."""


class _InputFile:
    """An open regular file; it is closed once nothing refers to it."""

    def __init__(self, path):
        self.path, self.fd = path, os.open(path, os.O_RDONLY | os.O_NONBLOCK)  # no wait on a FIFO
        weakref.finalize(self, os.close, self.fd)
        if not stat.S_ISREG(os.fstat(self.fd).st_mode):  # a directory opens, but its reads name no path
            raise OSError(f"{path}: not a regular file")


@dataclass(frozen=True)
class TensorRecord:
    """A tensor and its little-endian, row-major payload: bytes, or for a
    loaded record the input file it starts in at byte position."""

    key: str
    dtype: str  # one of f64, f32, f16, bf16
    shape: tuple[int, ...]
    payload: bytes | memoryview | _InputFile
    position: int = 0

    def __post_init__(self):
        if self.dtype not in _DTYPES:
            raise ValueError(f"unsupported dtype {self.dtype!r}")
        expected = math.prod(self.shape) * _DTYPES[self.dtype][1]
        if not isinstance(self.payload, _InputFile) and len(self.payload) != expected:
            raise ValueError(
                f"{self.key}: payload is {len(self.payload)} bytes, "
                f"shape {self.shape} x {self.dtype} needs {expected}"
            )

    @property
    def storage(self) -> np.dtype:
        """The dtype of the stored words: the number type, or uint16 for bf16."""
        return np.dtype(_DTYPES[self.dtype][2])

    @property
    def raw(self) -> memoryview:
        """The payload bytes as a read-only view; a loaded record reads them from its file on each access."""
        return memoryview(self._words().reshape(-1).view(np.uint8)).toreadonly()

    def _words(self, out=None) -> np.ndarray:
        """The stored words: a view of an in-memory payload, or read into out or a new array."""
        if not isinstance(self.payload, _InputFile):
            return np.frombuffer(self.payload, dtype=self.storage).reshape(self.shape)
        out = np.empty(self.shape, self.storage) if out is None else out
        view, at = memoryview(out.reshape(-1).view(np.uint8)), self.position
        while view:  # one call reads at most about 2 GB
            got = os.preadv(self.payload.fd, [view], at)
            if not got:
                message = f"{self.payload.path}: tensor {self.key!r} ends past the end of the file"
                raise ParseError(message, at)
            view, at = view[got:], at + got
        return out

    def values(self, out=None, wide=None) -> np.ndarray:
        """The stored numbers, exactly: in the stored precision, except bf16,
        widened to f32 in wide (a uint32 array of the record's shape) or a new
        array. A loaded record reads its words into out (a C-ordered array of
        its shape and storage dtype) or a new one; an in-memory one views them."""
        words = self._words(out)
        if self.dtype == "bf16":
            return np.left_shift(words, 16, dtype=np.uint32, out=wide).view("<f4")
        return words

    def to_array(self) -> np.ndarray:
        """Decode to a new float64 array regardless of storage precision."""
        return self.values().astype(np.float64)

    def rows(self, start: int, stop: int) -> "TensorRecord":
        """Rows [start, stop) of a tensor of one or more dimensions, as a record
        of the same payload narrowed to them: nothing is read or copied."""
        if not self.shape or not 0 <= start <= stop <= self.shape[0]:
            raise ValueError(f"{self.key}: no rows [{start}, {stop}) in shape {self.shape}")
        width = math.prod(self.shape[1:]) * _DTYPES[self.dtype][1]
        shape = (stop - start, *self.shape[1:])
        if isinstance(self.payload, _InputFile):
            return TensorRecord(self.key, self.dtype, shape, self.payload, self.position + start * width)
        return TensorRecord(self.key, self.dtype, shape, memoryview(self.payload)[start * width : stop * width])

    @classmethod
    def from_array(cls, key: str, arr, dtype: str = "f32") -> "TensorRecord":
        """Encode arr; the record's payload is a read-only view of the one encoded copy.

        f32 and f64 input is encoded as it is, anything else is widened to
        f64 first. A C-ordered f32 arr encoded to f32 is not copied: the
        payload views arr itself.
        """
        if dtype not in _DTYPES:
            raise ValueError(f"unsupported dtype {dtype!r}")
        arr = np.asarray(arr, order="C")
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        encoded = _encode_bf16(arr) if dtype == "bf16" else arr.astype(_DTYPES[dtype][2], copy=False)
        raw = memoryview(encoded.reshape(-1).view(np.uint8)).toreadonly()
        return cls(key=key, dtype=dtype, shape=arr.shape, payload=raw)


def _encode_bf16(arr: np.ndarray) -> np.ndarray:
    # round-to-nearest-even truncation of the f32 bit pattern
    u = arr.astype("<f4").view("<u4")
    rounded = ((u.astype(np.uint64) + 0x7FFF + ((u >> 16) & 1)) >> 16).astype(np.uint16)
    nan = np.isnan(arr)
    if nan.any():  # keep NaN payloads from rounding up into infinity
        rounded = np.where(nan, ((u >> 16) | 0x0040).astype(np.uint16), rounded)
    return rounded.astype("<u2")


def _unique_keys(pairs) -> dict:
    # json keeps the last of repeated keys; a header that names a tensor
    # twice is ambiguous, so it is rejected instead, as is a key that is not text
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeats key {key!r}")
        if _SURROGATE.search(key):
            raise ValueError(f"key {key!r} is not text")
        out[key] = value
    return out


def load_checkpoint(path) -> dict[str, TensorRecord]:
    """Parse a container file's header into records, header order preserved.

    Only the header is read, after its declared length is checked against
    _MAX_HEADER_BYTES and the file size. Each record names its payload's byte range in
    the one open file, which stays readable after its path is replaced or
    unlinked, and is closed once no record refers to it. Reading a record
    past the end of a file cut short since raises ParseError.
    Every ParseError's message starts with path.
    """
    file = _InputFile(path)
    try:
        return _parse_header(file)
    except ParseError as e:
        raise ParseError(f"{path}: {e.message}", e.position) from e.__cause__


def _parse_header(file: _InputFile) -> dict[str, TensorRecord]:
    size = os.fstat(file.fd).st_size
    header_len = int.from_bytes(os.pread(file.fd, 8, 0), "little")
    if header_len > _MAX_HEADER_BYTES:
        raise ParseError(f"{header_len}-byte header is over the {_MAX_HEADER_BYTES}-byte limit", 0)
    if 8 + header_len > size:
        raise ParseError(f"file size {size} is too short for a {header_len}-byte header", 0)
    try:
        header = json.loads(os.pread(file.fd, header_len, 8), object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as e:  # bad JSON or _unique_keys' keys, bytes that are not text, too deep
        raise ParseError(f"bad header: {e}", 8) from e
    if not isinstance(header, dict):
        raise ParseError("header must be a JSON object", 8)

    buf_start = 8 + header_len
    buf_len = size - buf_start
    records: dict[str, TensorRecord] = {}
    spans: list[tuple[int, int, str]] = []
    for key, entry in header.items():
        if key == "__metadata__":
            continue
        if not isinstance(entry, dict) or not {"dtype", "shape", "data_offsets"} <= set(entry):
            raise ParseError(f"tensor {key!r}: missing dtype/shape/data_offsets", 8)
        wire = entry["dtype"]
        if not isinstance(wire, str) or wire not in _WIRE_TO_DTYPE:
            raise ParseError(f"tensor {key!r}: unknown dtype {wire!r}", 8)
        dtype = _WIRE_TO_DTYPE[wire]
        # type(), not isinstance: JSON true/false load as bool, an int subclass
        shape = entry["shape"]
        if not isinstance(shape, list) or any(type(d) is not int or d < 0 for d in shape):
            raise ParseError(f"tensor {key!r}: bad shape {shape!r}", 8)
        offs = entry["data_offsets"]
        if not (isinstance(offs, list) and len(offs) == 2 and all(type(o) is int for o in offs)):
            raise ParseError(f"tensor {key!r}: bad data_offsets {offs!r}", 8)
        begin, end = offs
        width = _DTYPES[dtype][1]
        need = math.prod(shape) * width
        if begin < 0 or end < begin:
            raise ParseError(f"tensor {key!r}: invalid range [{begin}, {end})", buf_start + max(begin, 0))
        if end - begin != need:
            raise ParseError(
                f"tensor {key!r}: range holds {end - begin} bytes, "
                f"shape {shape} x {wire} needs {need}",
                buf_start + begin,
            )
        if end > buf_len:
            raise ParseError(
                f"tensor {key!r}: range ends at {end} but buffer has {buf_len} bytes", size
            )
        spans.append((begin, end, key))
        records[key] = TensorRecord(key, dtype, tuple(shape), file, buf_start + begin)

    spans.sort()
    for (b1, e1, k1), (b2, e2, k2) in zip(spans, spans[1:]):
        if b2 < e1:
            raise ParseError(f"tensors {k1!r} and {k2!r} overlap at buffer offset {b2}", buf_start + b2)
    return records


def check_output_path(path) -> Path:
    """path as a Path; if it is a directory or has none, an OSError naming it, not atomic_file's temp file."""
    path = Path(path)
    if path.is_dir() and not path.is_symlink():
        raise IsADirectoryError(f"{path}: is a directory")
    if not path.parent.is_dir():
        raise NotADirectoryError(f"{path}: {path.parent} is not a directory")
    return path


@contextlib.contextmanager
def atomic_file(path):
    """Yield a sibling temp file opened for binary writing (callers encode their own
    text); it replaces path on a clean exit, and on any error it is removed and path
    is left as it was. It is created, after check_output_path, with mode 0o666 less the umask."""
    path = check_output_path(path)
    tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _pwrite(fd: int, data, at: int) -> None:
    """Write all of data (bytes or a 1-D byte view) to fd at byte position at."""
    view = memoryview(data)
    while view:  # one call writes at most about 2 GB
        done = os.pwrite(fd, view, at)
        view, at = view[done:], at + done


def save_checkpoint(records, path, layout=None) -> None:
    """Serialize tensors deterministically (sorted keys) and atomically.

    records is a key -> TensorRecord map, or given layout, a key -> (dtype,
    shape) map, an iterable of (key, TensorRecord) pairs consumed one at a
    time. The header comes from the layout alone, padded with spaces so the
    byte buffer starts 8-byte aligned. Each record is written as it arrives,
    at the cursor of its tensor's byte range, so a tensor may arrive as row
    blocks in row order, interleaved with other tensors' blocks. A key not
    in the layout, a record of another dtype, rank or trailing shape or past
    the end of its range, a range left short (a tensor of no bytes needs
    no record), and a tensor keyed "__metadata__" are each a ValueError, and
    path is left as it was on any error. Equal tensors give byte-identical
    files in either form.
    """
    if layout is None:
        layout = {key: (rec.dtype, rec.shape) for key, rec in records.items()}
        records = records.items()
    header, cursors, begin = {}, {}, 0  # cursors: key -> [next, end] buffer offsets of its range
    for key in sorted(layout):
        dtype, shape = layout[key]
        if dtype not in _DTYPES:
            raise ValueError(f"{key}: unsupported dtype {dtype!r}")
        if key == "__metadata__":  # a reader takes that entry for the header's metadata, not a tensor
            raise ValueError("no tensor can be saved as '__metadata__': safetensors reserves that key")
        end = begin + math.prod(shape) * _DTYPES[dtype][1]
        header[key] = {
            "dtype": _DTYPES[dtype][0],
            "shape": list(shape),
            "data_offsets": [begin, end],
        }
        cursors[key], begin = [begin, end], end
    body = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    pad = -(8 + len(body)) % 8
    body += b" " * pad
    with atomic_file(path) as fh:
        _pwrite(fh.fileno(), len(body).to_bytes(8, "little") + body, 0)
        for key, rec in records:
            if key not in layout:
                raise ValueError(f"{key}: not in the layout")
            (dtype, shape), (at, end) = layout[key], cursors[key]
            need = math.prod(rec.shape) * _DTYPES[rec.dtype][1]
            if (rec.dtype, len(rec.shape), rec.shape[1:]) != (dtype, len(shape), tuple(shape[1:])) or at + need > end:
                raise ValueError(f"{key}: {rec.dtype} {rec.shape} does not fit the rest of {dtype} {tuple(shape)}")
            _pwrite(fh.fileno(), rec.raw, 8 + len(body) + at)
            cursors[key][0] = at + need
            del rec  # let the block go before the next one is produced
        short = sorted(key for key, (at, end) in cursors.items() if at < end)
        if short:
            raise ValueError(f"tensors {short} were left short of their bytes: too few rows, or never written")


def check_factors(label: str, b_shape, a_shape) -> None:
    """Raise AlignmentError, its message starting with label, unless B and A
    chain into a LoRA pair of rank at least 1 and at most min of the full
    shape (PEFT refuses rank 0)."""
    if len(b_shape) != 2 or len(a_shape) != 2:
        raise AlignmentError(f"{label}: factors must be 2-D")
    if b_shape[1] != a_shape[0]:
        raise AlignmentError(f"{label}: inner dimensions differ, B is {b_shape}, A is {a_shape}")
    if b_shape[1] < 1:
        raise AlignmentError(f"{label}: rank 0; a LoRA pair has rank at least 1")
    if b_shape[1] > min(b_shape[0], a_shape[1]):
        raise AlignmentError(f"{label}: rank {b_shape[1]} exceeds min of full shape {(b_shape[0], a_shape[1])}")


@dataclass
class AdapterSet:
    """Adapters aligned by layer key, in input order.

    Each adapter maps a layer key to its stored (B, A) factor records, whose
    shapes and values were checked at load; factors() decodes one layer's A
    when it is asked for, and a merge reads its B records a piece at a time.
    """

    adapters: list[dict[str, tuple[TensorRecord, TensorRecord]]]
    names: list[str]
    scalings: list[float]
    warnings: list[str] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.adapters)

    @property
    def layer_keys(self) -> list[str]:
        return sorted(self.adapters[0]) if self.adapters else []

    def full_shape(self, key: str) -> tuple[int, int]:
        b, a = self.adapters[0][key]
        return (b.shape[0], a.shape[1])

    def factors(self, key: str):
        """(B, A, s, ranks): B the adapters' stored B records [B_1 ... B_n], which merge reads in row
        pieces; A = [A_1; ...; A_n] a new f64 stack of each adapter's stored numbers; s each unit's
        scaling; B diag(s) A = sum_i W_i."""
        pairs, n = [adapter[key] for adapter in self.adapters], self.full_shape(key)[1]
        ranks = [b.shape[1] for b, _ in pairs]
        bounds, right = np.cumsum([0, *ranks]), np.empty((sum(ranks), n))
        for (_, a), i, j in zip(pairs, bounds, bounds[1:]):
            right[i:j] = a.values()
        return [b for b, _ in pairs], right, np.repeat(self.scalings, ranks), ranks


def lora_pairs(records) -> tuple[dict[str, tuple[TensorRecord, TensorRecord]], list[str]]:
    """Layer key -> (B record, A record), in sorted order, for each layer key
    that records (a key -> record map) hold under both LORA_B_SUFFIX and
    LORA_A_SUFFIX; and the sorted layer keys held under only one of them."""
    factors: dict[str, dict[str, TensorRecord]] = {}
    for key, record in records.items():
        for suffix in (LORA_B_SUFFIX, LORA_A_SUFFIX):
            if key.endswith(suffix):
                factors.setdefault(key[: -len(suffix)], {})[suffix] = record
    pairs = {k: (f[LORA_B_SUFFIX], f[LORA_A_SUFFIX]) for k, f in sorted(factors.items()) if len(f) == 2}
    return pairs, sorted(factors.keys() - pairs.keys())


def extract_adapters(files, scalings=None, names=None, strict: bool = True) -> AdapterSet:
    """Build an aligned AdapterSet from checkpoint files.

    Each file needs a positive finite scaling, checked before the file is opened,
    at least one pair from lora_pairs and no lone factor. Every pair's shapes, rank
    and values (finite) are checked in layer-key order, each pair read once, but
    nothing decoded is kept. The layer keys of all files are then walked once, in
    sorted order: a layer is aligned when every adapter has it, all with one full
    shape. In strict mode the first layer that is not raises; in lenient mode each
    is dropped with a recorded warning, in layer-key order. Ranks may differ per adapter.
    """
    files = [Path(f) for f in files]
    if not files:
        raise AlignmentError("no adapter files given")
    if scalings is None:
        scalings = [1.0] * len(files)
    if len(scalings) != len(files):
        raise AlignmentError("scalings length must match file count")
    if names is None:
        names = [f.stem for f in files]
    if len(names) != len(files):
        raise AlignmentError("names length must match file count")
    scalings = [float(s) for s in scalings]

    adapters: list[dict[str, tuple[TensorRecord, TensorRecord]]] = []
    for f, scale in zip(files, scalings):
        if not 0 < scale < math.inf:
            raise AlignmentError(f"{f.name}: scaling {scale!r} must be positive and finite")
        pairs, lonely = lora_pairs(load_checkpoint(f))
        if lonely:
            raise AlignmentError(f"{f.name}: unmatched factor pair for layer(s) {lonely}")
        if not pairs:
            raise AlignmentError(
                f"{f}: no {LORA_A_SUFFIX!r}/{LORA_B_SUFFIX!r} factor pairs; not a LoRA adapter"
            )
        for key, (b, a) in pairs.items():
            check_factors(f"{f.name}: {key}", b.shape, a.shape)
            if not (np.isfinite(b.values()).all() and np.isfinite(a.values()).all()):
                raise AlignmentError(f"{f.name}: non-finite values in layer {key!r}")
        adapters.append(pairs)

    warnings: list[str] = []
    aligned: list[str] = []
    for key in sorted(set().union(*adapters)):
        missing = [name for name, pairs in zip(names, adapters) if key not in pairs]
        shapes = {(pairs[key][0].shape[0], pairs[key][1].shape[1]) for pairs in adapters if key in pairs}
        if missing:
            msg = f"layer {key!r} missing from adapter(s) {missing}"
        elif len(shapes) > 1:
            msg = f"layer {key!r} has conflicting full shapes {sorted(shapes)}"
        else:
            aligned.append(key)
            continue
        if strict:
            raise AlignmentError(msg)
        warnings.append(f"dropped: {msg}")
    if not aligned:
        raise AlignmentError("no layer is aligned across the adapters; " + "; ".join(warnings))

    return AdapterSet(
        adapters=[{k: a[k] for k in aligned} for a in adapters],
        names=list(names),
        scalings=scalings,
        warnings=warnings,
    )


def load_manifest(path) -> tuple[list[Path], list[str], list[float]]:
    """Read an adapter manifest: a JSON list of {path, name?, scaling?}.

    path is a non-empty string; relative paths resolve against the
    manifest's directory. name, when given, is a string of text (no lone
    surrogate) no other entry gives (names left out default to file stems,
    which may repeat), and scaling a positive finite JSON number.
    """
    path = Path(path)
    try:
        entries = json.loads(path.read_bytes())
    except (ValueError, RecursionError) as e:  # JSONDecodeError, bytes that are not text, or too deep
        raise AlignmentError(f"manifest {path}: invalid JSON: {e}") from e
    if not isinstance(entries, list) or not entries:
        raise AlignmentError(f"manifest {path}: expected a non-empty JSON list")
    paths, names, scalings, given = [], [], [], {}  # given: a given name -> its first entry
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("path"), str) or not entry["path"]:
            raise AlignmentError(f"manifest {path}: entry {i} needs a string 'path' field naming a file")
        p = Path(entry["path"])
        if not p.is_absolute():
            p = path.parent / p
        scaling = entry.get("scaling", 1.0)
        # type(), not isinstance: JSON true/false load as bool, an int subclass
        if type(scaling) not in (int, float) or not 0 < scaling <= sys.float_info.max:
            raise AlignmentError(
                f"manifest {path}: entry {i} ({p}) has scaling {scaling!r}; "
                "it must be a positive, finite number"
            )
        name = entry.get("name", p.stem)
        if not isinstance(name, str) or _SURROGATE.search(name):
            raise AlignmentError(f"manifest {path}: entry {i} ({p}) has name {name!r}, which is not text")
        if "name" in entry and given.setdefault(name, i) != i:
            raise AlignmentError(f"manifest {path}: entries {given[name]} and {i} are both named {name!r}")
        paths.append(p)
        names.append(name)
        scalings.append(float(scaling))
    return paths, names, scalings
