"""Seeded synthetic corpora and the benchmark's own safetensors reader/writer.

The corpus layout, key names and random streams follow
scripts/make_synthetic_adapters.py, so a corpus written here is
byte-identical to the one that script writes with the same arguments. The
container code is independent of domerge: the benchmark must be able to
check domerge's output without trusting domerge's parser.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# safetensors wire name -> (numpy little-endian code, byte width)
WIRE_DTYPES = {"F64": ("<f8", 8), "F32": ("<f4", 4), "F16": ("<f2", 2), "BF16": ("<u2", 2)}
_SHORT_TO_WIRE = {"f64": "F64", "f32": "F32", "f16": "F16", "bf16": "BF16"}


@dataclass(frozen=True)
class CorpusSpec:
    adapters: int
    layers: int
    rows: int
    cols: int
    rank: int
    dtype: str  # f64, f32, f16 or bf16
    with_base: bool = False


@dataclass(frozen=True)
class Corpus:
    spec: CorpusSpec
    manifest: Path
    adapter_paths: tuple[Path, ...]
    base: Path | None
    layer_keys: tuple[str, ...]


def layer_keys(layers: int) -> list[str]:
    keys = []
    for i in range(layers):
        block = f"model.blocks.{i // 2}"
        keys.append(f"{block}.attn.q" if i % 2 == 0 else f"{block}.ffn.up")
    return keys


def encode(arr: np.ndarray, dtype: str) -> bytes:
    """Little-endian payload of a float64 array in the given storage dtype."""
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if dtype == "bf16":
        # round-to-nearest-even on the f32 bit pattern; the corpus has no NaNs
        u = arr.astype("<f4").view("<u4").astype(np.uint64)
        return ((u + 0x7FFF + ((u >> 16) & 1)) >> 16).astype("<u2").tobytes()
    return arr.astype(WIRE_DTYPES[_SHORT_TO_WIRE[dtype]][0]).tobytes()


def write_safetensors(path: Path, tensors: dict[str, tuple[str, tuple[int, ...], bytes]]) -> None:
    """Write {key: (short dtype, shape, payload)} with sorted keys and an 8-byte aligned buffer."""
    header = {}
    offset = 0
    for key in sorted(tensors):
        dtype, shape, raw = tensors[key]
        header[key] = {
            "dtype": _SHORT_TO_WIRE[dtype],
            "shape": list(shape),
            "data_offsets": [offset, offset + len(raw)],
        }
        offset += len(raw)
    body = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body += b" " * (-(8 + len(body)) % 8)
    with open(path, "wb") as fh:
        fh.write(len(body).to_bytes(8, "little"))
        fh.write(body)
        for key in sorted(tensors):
            fh.write(tensors[key][2])


class FormatError(Exception):
    """A file that does not parse as a well-formed safetensors container."""


def read_safetensors(path: Path) -> tuple[dict[str, dict], dict[str, np.ndarray]]:
    return parse_safetensors(Path(path).read_bytes(), path)


def parse_safetensors(blob: bytes, path) -> tuple[dict[str, dict], dict[str, np.ndarray]]:
    """Parse a container into (header entries, arrays), validating every range.

    Arrays keep their stored width (bf16 decodes to f32) so a large output
    is not doubled in memory; callers upcast where they compute. ``path``
    only names the file in error messages.
    """
    if len(blob) < 8:
        raise FormatError(f"{path}: {len(blob)} bytes, too short for a header")
    n = int.from_bytes(blob[:8], "little")
    if 8 + n > len(blob):
        raise FormatError(f"{path}: header length {n} exceeds file size {len(blob)}")
    try:
        header = json.loads(blob[8 : 8 + n])
    except ValueError as e:
        raise FormatError(f"{path}: header is not JSON: {e}") from None
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is not a JSON object")
    header.pop("__metadata__", None)
    buf = memoryview(blob)[8 + n :]
    arrays = {}
    covered = 0
    for key, entry in header.items():
        try:
            code, width = WIRE_DTYPES[entry["dtype"]]
            shape = tuple(int(d) for d in entry["shape"])
            begin, end = (int(o) for o in entry["data_offsets"])
        except (KeyError, TypeError, ValueError):
            raise FormatError(f"{path}: bad header entry for {key!r}: {entry!r}") from None
        count = math.prod(shape)
        if not (0 <= begin <= end <= len(buf)) or end - begin != count * width:
            raise FormatError(f"{path}: {key!r} range [{begin}, {end}) does not fit {shape} x {entry['dtype']}")
        covered += end - begin
        data = np.frombuffer(buf, dtype=code, count=count, offset=begin)
        if entry["dtype"] == "BF16":
            data = (data.astype(np.uint32) << 16).view("<f4")
        arrays[key] = data.reshape(shape)
    if covered != len(buf):
        raise FormatError(f"{path}: tensors cover {covered} of {len(buf)} buffer bytes")
    return header, arrays


def make_corpus(spec: CorpusSpec, seed: int, directory: Path) -> Corpus:
    """Write the adapters, optional base and manifest for one seed."""
    directory.mkdir(parents=True)
    keys = layer_keys(spec.layers)
    manifest = []
    paths = []
    for i in range(spec.adapters):
        rng = np.random.default_rng((seed, i))
        tensors = {}
        for key in keys:
            b = rng.standard_normal((spec.rows, spec.rank))
            a = rng.standard_normal((spec.rank, spec.cols))
            tensors[f"{key}.lora_B.weight"] = (spec.dtype, b.shape, encode(b, spec.dtype))
            tensors[f"{key}.lora_A.weight"] = (spec.dtype, a.shape, encode(a, spec.dtype))
        path = directory / f"adapter{i}.safetensors"
        write_safetensors(path, tensors)
        paths.append(path)
        manifest.append({"path": path.name, "name": f"adapter{i}", "scaling": 1.0})

    base = None
    if spec.with_base:
        rng = np.random.default_rng((seed, int.from_bytes(b"base", "big")))
        tensors = {}
        for key in keys:
            w = rng.standard_normal((spec.rows, spec.cols))
            tensors[key + ".weight"] = (spec.dtype, w.shape, encode(w, spec.dtype))
        base = directory / "base.safetensors"
        write_safetensors(base, tensors)

    manifest_path = directory / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return Corpus(spec, manifest_path, tuple(paths), base, tuple(keys))
