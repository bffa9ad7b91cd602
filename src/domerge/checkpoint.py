"""safetensors container I/O and adapter extraction.

The container layout is: an 8-byte little-endian unsigned header length N,
then N bytes of JSON mapping tensor names to {dtype, shape, data_offsets},
then one flat byte buffer. data_offsets are [begin, end) relative to the
buffer. A "__metadata__" entry in the header (string map, written by some
producers) is tolerated and ignored.

Parsing is strict: every declared tensor must land inside the buffer, byte
ranges must not overlap, and each range must match shape x dtype width.
Failures raise distinct error types carrying the file byte position.
"""

from __future__ import annotations

import json
import math
import os
import re
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_DTYPES = {
    "f64": ("F64", 8),
    "f32": ("F32", 4),
    "f16": ("F16", 2),
    "bf16": ("BF16", 2),
}
_WIRE_TO_DTYPE = {wire: name for name, (wire, _) in _DTYPES.items()}


class CheckpointError(Exception):
    """Base for all container and adapter-structure failures."""


class ParseError(CheckpointError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (byte {position})")
        self.position = position


class MalformedHeaderError(ParseError):
    pass


class UnknownDtypeError(ParseError):
    pass


class OffsetError(ParseError):
    pass


class TruncatedPayloadError(ParseError):
    pass


class AlignmentError(CheckpointError):
    """Adapter structure problems: unmatched factor pairs, shape conflicts."""


@dataclass(frozen=True)
class TensorRecord:
    key: str
    dtype: str  # one of f64, f32, f16, bf16
    shape: tuple[int, ...]
    raw: bytes  # little-endian payload, row-major

    def __post_init__(self):
        if self.dtype not in _DTYPES:
            raise ValueError(f"unsupported dtype {self.dtype!r}")
        width = _DTYPES[self.dtype][1]
        expected = math.prod(self.shape) * width
        if len(self.raw) != expected:
            raise ValueError(
                f"{self.key}: payload is {len(self.raw)} bytes, "
                f"shape {self.shape} x {self.dtype} needs {expected}"
            )

    def to_array(self) -> np.ndarray:
        """Decode to float64 regardless of storage precision."""
        if self.dtype == "bf16":
            u16 = np.frombuffer(self.raw, dtype="<u2").astype(np.uint32)
            data = (u16 << 16).view("<f4").astype(np.float64)
        else:
            code = {"f64": "<f8", "f32": "<f4", "f16": "<f2"}[self.dtype]
            data = np.frombuffer(self.raw, dtype=code).astype(np.float64)
        return data.reshape(self.shape)

    @classmethod
    def from_array(cls, key: str, arr, dtype: str = "f32") -> "TensorRecord":
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        if dtype == "bf16":
            raw = _encode_bf16(arr)
        elif dtype == "f16":
            raw = arr.astype("<f2").tobytes()
        elif dtype == "f32":
            raw = arr.astype("<f4").tobytes()
        elif dtype == "f64":
            raw = arr.astype("<f8").tobytes()
        else:
            raise ValueError(f"unsupported dtype {dtype!r}")
        return cls(key=key, dtype=dtype, shape=arr.shape, raw=raw)


def _encode_bf16(arr: np.ndarray) -> bytes:
    # round-to-nearest-even truncation of the f32 bit pattern
    u = arr.astype("<f4").view("<u4")
    rounded = ((u.astype(np.uint64) + 0x7FFF + ((u >> 16) & 1)) >> 16).astype(np.uint16)
    nan = np.isnan(arr)
    if nan.any():  # keep NaN payloads from rounding up into infinity
        rounded = np.where(nan, ((u >> 16) | 0x0040).astype(np.uint16), rounded)
    return rounded.astype("<u2").tobytes()


def _unique_keys(pairs) -> dict:
    # json keeps the last of repeated keys; a header that names a tensor
    # twice is ambiguous, so it is rejected instead
    out = {}
    for key, value in pairs:
        if key in out:
            raise MalformedHeaderError(f"header repeats key {key!r}", 8)
        out[key] = value
    return out


def load_checkpoint(path) -> dict[str, TensorRecord]:
    """Parse a container file into records, header order preserved."""
    blob = Path(path).read_bytes()
    if len(blob) < 8:
        raise MalformedHeaderError("file too short for header length field", 0)
    header_len = int.from_bytes(blob[:8], "little")
    if 8 + header_len > len(blob):
        raise MalformedHeaderError(
            f"header length {header_len} exceeds file size {len(blob)}", 0
        )
    try:
        header = json.loads(blob[8 : 8 + header_len], object_pairs_hook=_unique_keys)
    except ValueError as e:  # JSONDecodeError, or bytes that are not text
        raise MalformedHeaderError(f"header is not valid JSON: {e}", 8) from e
    if not isinstance(header, dict):
        raise MalformedHeaderError("header must be a JSON object", 8)

    buf_start = 8 + header_len
    buf_len = len(blob) - buf_start
    records: dict[str, TensorRecord] = {}
    spans: list[tuple[int, int, str]] = []
    for key, entry in header.items():
        if key == "__metadata__":
            continue
        if not isinstance(entry, dict) or not {"dtype", "shape", "data_offsets"} <= set(entry):
            raise MalformedHeaderError(f"tensor {key!r}: missing dtype/shape/data_offsets", 8)
        wire = entry["dtype"]
        if not isinstance(wire, str) or wire not in _WIRE_TO_DTYPE:
            raise UnknownDtypeError(f"tensor {key!r}: unknown dtype {wire!r}", 8)
        dtype = _WIRE_TO_DTYPE[wire]
        shape = entry["shape"]
        if not isinstance(shape, list) or any(not isinstance(d, int) or d < 0 for d in shape):
            raise MalformedHeaderError(f"tensor {key!r}: bad shape {shape!r}", 8)
        offs = entry["data_offsets"]
        if not (isinstance(offs, list) and len(offs) == 2 and all(isinstance(o, int) for o in offs)):
            raise MalformedHeaderError(f"tensor {key!r}: bad data_offsets {offs!r}", 8)
        begin, end = offs
        width = _DTYPES[dtype][1]
        need = math.prod(shape) * width
        if begin < 0 or end < begin:
            raise OffsetError(f"tensor {key!r}: invalid range [{begin}, {end})", buf_start + max(begin, 0))
        if end - begin != need:
            raise OffsetError(
                f"tensor {key!r}: range holds {end - begin} bytes, "
                f"shape {shape} x {wire} needs {need}",
                buf_start + begin,
            )
        if end > buf_len:
            raise TruncatedPayloadError(
                f"tensor {key!r}: range ends at {end} but buffer has {buf_len} bytes",
                len(blob),
            )
        spans.append((begin, end, key))
        records[key] = TensorRecord(
            key=key, dtype=dtype, shape=tuple(shape), raw=blob[buf_start + begin : buf_start + end]
        )

    spans.sort()
    for (b1, e1, k1), (b2, e2, k2) in zip(spans, spans[1:]):
        if b2 < e1:
            raise OffsetError(f"tensors {k1!r} and {k2!r} overlap at buffer offset {b2}", buf_start + b2)
    return records


def save_checkpoint(records: dict[str, TensorRecord], path, overwrite: bool = True) -> None:
    """Serialize records deterministically (sorted keys) and atomically.

    Two calls with equal record maps produce byte-identical files. The JSON
    header is padded with spaces so the byte buffer starts 8-byte aligned.
    """
    path = Path(path)
    if path.exists() and not overwrite:
        raise FileExistsError(f"{path} exists (pass force/overwrite to replace)")
    header: dict[str, dict] = {}
    payload = bytearray()
    for key in sorted(records):
        rec = records[key]
        begin = len(payload)
        payload.extend(rec.raw)
        header[key] = {
            "dtype": _DTYPES[rec.dtype][0],
            "shape": list(rec.shape),
            "data_offsets": [begin, begin + len(rec.raw)],
        }
    body = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    pad = -(8 + len(body)) % 8
    body += b" " * pad
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(len(body).to_bytes(8, "little"))
            fh.write(body)
            fh.write(bytes(payload))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class LoraLayer:
    """One layer's matched low-rank factor pair for one adapter."""

    layer_key: str
    B: np.ndarray  # (m, r)
    A: np.ndarray  # (r, n)
    rank: int
    scaling: float = 1.0

    def __post_init__(self):
        if self.B.ndim != 2 or self.A.ndim != 2:
            raise AlignmentError(f"{self.layer_key}: factors must be 2-D")
        if self.B.shape[1] != self.A.shape[0]:
            raise AlignmentError(
                f"{self.layer_key}: inner dimensions differ, "
                f"B is {self.B.shape}, A is {self.A.shape}"
            )
        if self.rank != self.B.shape[1]:
            raise AlignmentError(f"{self.layer_key}: rank {self.rank} != inner dim {self.B.shape[1]}")
        if self.rank > min(self.full_shape):
            raise AlignmentError(
                f"{self.layer_key}: rank {self.rank} exceeds min of full shape {self.full_shape}"
            )
        if not 0 < self.scaling < math.inf:
            raise AlignmentError(f"{self.layer_key}: scaling must be positive and finite")

    @property
    def full_shape(self) -> tuple[int, int]:
        return (self.B.shape[0], self.A.shape[1])


@dataclass
class AdapterSet:
    """Adapters aligned by layer key, in input order."""

    adapters: list[dict[str, LoraLayer]]
    names: list[str]
    warnings: list[str] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.adapters)

    @property
    def layer_keys(self) -> list[str]:
        return sorted(self.adapters[0]) if self.adapters else []

    def group(self, key: str) -> list[LoraLayer]:
        return [adapter[key] for adapter in self.adapters]


def _pattern_regex(pattern: str) -> re.Pattern:
    # '*' spans become capture groups; their concatenation is the layer key
    parts = pattern.split("*")
    return re.compile("(.*)".join(re.escape(p) for p in parts) + r"\Z")


def _match_factors(records, pattern) -> dict[str, str]:
    rx = _pattern_regex(pattern)
    out = {}
    for key in records:
        m = rx.match(key)
        if m:
            out["".join(m.groups())] = key
    return out


DEFAULT_A_PATTERN = "*.lora_A.weight"
DEFAULT_B_PATTERN = "*.lora_B.weight"


def extract_adapters(
    files,
    a_pattern: str = DEFAULT_A_PATTERN,
    b_pattern: str = DEFAULT_B_PATTERN,
    scalings=None,
    names=None,
    strict: bool = True,
) -> AdapterSet:
    """Build an aligned AdapterSet from checkpoint files.

    Layer identity is the key with the factor pattern's literal parts
    stripped (the '*' spans). Each matched layer needs exactly one A and one
    B tensor. In strict mode every adapter must carry the same layer keys
    with the same full-rank shapes; in lenient mode unmatched or conflicting
    keys are dropped with a recorded warning. Ranks may differ per adapter.
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

    adapters: list[dict[str, LoraLayer]] = []
    for f, scale in zip(files, scalings):
        records = load_checkpoint(f)
        a_keys = _match_factors(records, a_pattern)
        b_keys = _match_factors(records, b_pattern)
        if set(a_keys) != set(b_keys):
            lonely = sorted(set(a_keys) ^ set(b_keys))
            raise AlignmentError(f"{f.name}: unmatched factor pair for layer(s) {lonely}")
        layers = {}
        for layer_key in a_keys:
            a = records[a_keys[layer_key]].to_array()
            b = records[b_keys[layer_key]].to_array()
            if not (np.isfinite(a).all() and np.isfinite(b).all()):
                raise AlignmentError(f"{f.name}: non-finite values in layer {layer_key!r}")
            layers[layer_key] = LoraLayer(
                layer_key=layer_key, B=b, A=a, rank=b.shape[1], scaling=float(scale)
            )
        adapters.append(layers)

    warnings: list[str] = []
    key_sets = [set(a) for a in adapters]
    common = set.intersection(*key_sets)
    all_keys = set.union(*key_sets)
    for key in sorted(all_keys - common):
        missing = [names[i] for i, ks in enumerate(key_sets) if key not in ks]
        msg = f"layer {key!r} missing from adapter(s) {missing}"
        if strict:
            raise AlignmentError(msg)
        warnings.append(f"dropped: {msg}")

    aligned = set()
    for key in sorted(common):
        shapes = {a[key].full_shape for a in adapters}
        if len(shapes) > 1:
            msg = f"layer {key!r} has conflicting full shapes {sorted(shapes)}"
            if strict:
                raise AlignmentError(msg)
            warnings.append(f"dropped: {msg}")
        else:
            aligned.add(key)

    return AdapterSet(
        adapters=[{k: a[k] for k in sorted(aligned)} for a in adapters],
        names=list(names),
        warnings=warnings,
    )


def load_base(path) -> dict[str, np.ndarray]:
    """Load a base checkpoint as float64 arrays keyed by tensor name."""
    return {k: rec.to_array() for k, rec in load_checkpoint(path).items()}


def load_manifest(path) -> tuple[list[Path], list[str], list[float]]:
    """Read an adapter manifest: a JSON list of {path, name?, scaling?}.

    Relative paths resolve against the manifest's directory.
    """
    path = Path(path)
    try:
        entries = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise AlignmentError(f"manifest {path}: invalid JSON: {e.msg}") from e
    if not isinstance(entries, list) or not entries:
        raise AlignmentError(f"manifest {path}: expected a non-empty JSON list")
    paths, names, scalings = [], [], []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "path" not in entry:
            raise AlignmentError(f"manifest {path}: entry {i} needs a 'path' field")
        p = Path(entry["path"])
        if not p.is_absolute():
            p = path.parent / p
        scaling = float(entry.get("scaling", 1.0))
        if not math.isfinite(scaling):
            raise AlignmentError(
                f"manifest {path}: entry {i} ({p}) has non-finite scaling {scaling}"
            )
        paths.append(p)
        names.append(str(entry.get("name", p.stem)))
        scalings.append(scaling)
    return paths, names, scalings
