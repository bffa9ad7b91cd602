"""Shared fixtures: hand-rolled safetensors writers and synthetic adapters.

raw_safetensors builds files byte by byte, independent of the package's own
serializer, so the reader tests check the format itself rather than a
save/load tautology.
"""

import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from domerge import TensorRecord, save_checkpoint

# tests that start `python -m domerge.cli` children need the sources there too
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

DTYPE_NUMPY = {"F64": "<f8", "F32": "<f4", "F16": "<f2"}


def encode_bf16_reference(arr) -> bytes:
    # truncate via float32 then keep the top 16 bits, rounding to nearest even
    u = np.ascontiguousarray(arr, dtype="<f4").view("<u4")
    rounded = ((u >> 16) & 1).astype("<u4")
    out = ((u + 0x7FFF + rounded) >> 16).astype("<u2")
    nan = np.isnan(np.asarray(arr, dtype="<f4"))
    out[nan] = ((u[nan] >> 16) | 0x0040).astype("<u2")
    return out.tobytes()


def raw_safetensors(tensors, metadata=None, pad_to=None) -> bytes:
    """Build safetensors bytes directly: tensors is [(key, dtype_tag, array)]."""
    header = {}
    buf = b""
    for key, tag, arr in tensors:
        if tag == "BF16":
            raw = encode_bf16_reference(arr)
        else:
            raw = np.ascontiguousarray(arr, dtype=DTYPE_NUMPY[tag]).tobytes()
        header[key] = {
            "dtype": tag,
            "shape": list(np.asarray(arr).shape),
            "data_offsets": [len(buf), len(buf) + len(raw)],
        }
        buf += raw
    if metadata is not None:
        header["__metadata__"] = metadata
    blob = json.dumps(header).encode()
    if pad_to:
        blob += b" " * (-len(blob) % pad_to)
    return struct.pack("<Q", len(blob)) + blob + buf


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def make_adapter_records(layer_keys, rank, full_shape, rng, dtype="f32"):
    """TensorRecord map for one synthetic LoRA adapter checkpoint."""
    m, n = full_shape
    records = {}
    for key in layer_keys:
        b = rng.standard_normal((m, rank))
        a = rng.standard_normal((rank, n))
        bk = f"{key}.lora_B.weight"
        ak = f"{key}.lora_A.weight"
        records[bk] = TensorRecord.from_array(bk, b, dtype)
        records[ak] = TensorRecord.from_array(ak, a, dtype)
    return records


LAYER_KEYS = ("enc.0.attn.q", "enc.0.attn.v", "enc.1.ffn.up", "enc.1.ffn.down")


@pytest.fixture
def adapter_files(tmp_path, rng):
    """Three aligned 4-layer adapter checkpoints on disk."""
    paths = []
    for i in range(3):
        records = make_adapter_records(LAYER_KEYS, rank=4, full_shape=(16, 12), rng=rng)
        path = tmp_path / f"adapter{i}.safetensors"
        save_checkpoint(records, path)
        paths.append(path)
    return paths


@pytest.fixture
def base_file(tmp_path, rng):
    records = {}
    for key in LAYER_KEYS:
        k = key + ".weight"
        records[k] = TensorRecord.from_array(k, rng.standard_normal((16, 12)), "f32")
    path = tmp_path / "base.safetensors"
    save_checkpoint(records, path)
    return path


@pytest.fixture
def factor_reads(monkeypatch):
    """A list that logs every read of a layer's factors: ("factors", layer key)
    for each AdapterSet.factors call, which decodes its A stack, and
    ("piece", B record key, first row) for each piece merge's one reader of
    left factors (merge._pieces) yields."""
    from domerge import merge
    from domerge.checkpoint import AdapterSet

    log, factors, pieces = [], AdapterSet.factors, merge._pieces

    def logged_factors(self, key):
        log.append(("factors", key))
        return factors(self, key)

    def logged_pieces(left, rows):
        for i, piece in pieces(left, rows):
            log.append(("piece", left[0].key, i))
            yield i, piece

    monkeypatch.setattr(AdapterSet, "factors", logged_factors)
    monkeypatch.setattr(merge, "_pieces", logged_pieces)
    return log
