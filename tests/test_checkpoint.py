import json
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domerge.checkpoint import (
    AlignmentError,
    ParseError,
    TensorRecord,
    check_factors,
    extract_adapters,
    load_checkpoint,
    load_manifest,
    lora_pairs,
    save_checkpoint,
)
from domerge.merge import _pieces

from conftest import make_adapter_records, raw_safetensors


def test_load_hand_built_file(tmp_path):
    a = np.arange(6, dtype=np.float64).reshape(2, 3)
    b = np.array([[1.5, -2.0]], dtype=np.float32)
    path = tmp_path / "t.safetensors"
    path.write_bytes(raw_safetensors([("alpha", "F64", a), ("beta", "F32", b)]))
    records = load_checkpoint(path)
    assert set(records) == {"alpha", "beta"}
    assert records["alpha"].dtype == "f64" and records["alpha"].shape == (2, 3)
    assert np.array_equal(records["alpha"].to_array(), a)
    assert records["beta"].dtype == "f32"
    assert np.array_equal(records["beta"].to_array(), b.astype(np.float64))


def test_load_half_precision_payloads(tmp_path):
    h = np.array([0.5, -1.25, 3.0], dtype=np.float16)
    bf = np.array([1.0, -2.0, 0.15625])
    path = tmp_path / "h.safetensors"
    path.write_bytes(raw_safetensors([("h", "F16", h), ("bf", "BF16", bf)]))
    records = load_checkpoint(path)
    assert np.array_equal(records["h"].to_array(), h.astype(np.float64))
    # all three values are exactly representable in bfloat16
    assert np.array_equal(records["bf"].to_array(), bf)


def test_values_are_the_stored_numbers(tmp_path):
    h = np.array([[0.5, -1.25, 3.0]], dtype=np.float16)
    f = np.array([[1.5, -2.0, 1e-30]], dtype=np.float32)
    d = np.array([[1.0 / 3.0, -2.0, 1e300]])
    bf = np.array([[1.0, -2.0, 0.15625]])
    path = tmp_path / "v.safetensors"
    path.write_bytes(raw_safetensors([("h", "F16", h), ("f", "F32", f), ("d", "F64", d), ("bf", "BF16", bf)]))
    records = load_checkpoint(path)
    for key, want in (("h", h), ("f", f), ("d", d)):
        got = records[key].values()
        # read from the file in the stored precision: exactly the stored bytes
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes() == records[key].raw
        out = np.empty(want.shape, records[key].storage)
        assert records[key].values(out) is out and np.array_equal(out, want)
    widened = records["bf"].values()
    assert widened.dtype == np.float32 and np.array_equal(widened, bf)
    words, wide = np.empty(bf.shape, np.uint16), np.empty(bf.shape, np.uint32)
    widened = records["bf"].values(words, wide)
    assert np.shares_memory(widened, wide) and np.array_equal(widened, bf)
    assert words.tobytes() == records["bf"].raw
    for rec in records.values():
        decoded = rec.to_array()
        assert decoded.dtype == np.float64 and decoded.flags.writeable
        assert np.array_equal(decoded, rec.values())


def test_from_array_encodes_f32_input_without_a_copy(rng):
    f = rng.standard_normal((3, 4)).astype(np.float32)
    rec = TensorRecord.from_array("f", f, "f32")
    assert np.shares_memory(np.frombuffer(rec.raw, dtype=np.uint8), f)
    assert np.array_equal(rec.values(), f)
    # other targets round the f32 values as they would the same values in f64
    for dtype in ("f16", "bf16", "f64"):
        assert TensorRecord.from_array("f", f, dtype).raw == TensorRecord.from_array("f", f.astype(np.float64), dtype).raw


def test_from_array_widens_other_input_to_f64(rng):
    ints = np.arange(-3, 3).reshape(2, 3)
    assert np.array_equal(TensorRecord.from_array("i", ints, "f64").values(), ints)
    half = rng.standard_normal((2, 3)).astype(np.float16)
    wide = half.astype(np.float64)
    for dtype in ("f16", "bf16", "f32"):
        assert TensorRecord.from_array("h", half, dtype).raw == TensorRecord.from_array("h", wide, dtype).raw


def test_records_reject_unknown_dtypes_and_wrong_payload_lengths(tmp_path):
    with pytest.raises(ValueError, match="unsupported dtype 'i8'"):
        TensorRecord("x", "i8", (2,), b"\0" * 16)
    with pytest.raises(ValueError, match=r"x: payload is 12 bytes, shape \(2, 2\) x f32 needs 16"):
        TensorRecord("x", "f32", (2, 2), b"\0" * 12)
    with pytest.raises(ValueError, match="unsupported dtype 'i8'"):
        TensorRecord.from_array("x", np.ones(2), "i8")
    path = tmp_path / "s.safetensors"
    with pytest.raises(ValueError, match="x: unsupported dtype 'i8'"):
        save_checkpoint([], path, layout={"x": ("i8", (2,))})
    assert list(tmp_path.iterdir()) == []


def test_metadata_block_tolerated(tmp_path):
    path = tmp_path / "m.safetensors"
    blob = raw_safetensors([("x", "F32", np.ones(2, dtype=np.float32))], metadata={"k": "v"})
    path.write_bytes(blob)
    records = load_checkpoint(path)
    assert set(records) == {"x"}


def test_bf16_round_to_nearest_even():
    # 1 + 2^-8 sits exactly between 1.0 and the next bfloat16; ties go to the
    # even mantissa, which is 1.0. Nudging up by 2^-9 crosses the tie.
    tie = 1.0 + 2.0**-8
    above = 1.0 + 2.0**-8 + 2.0**-9
    rec = TensorRecord.from_array("x", np.array([tie, above]), "bf16")
    bits = np.frombuffer(rec.raw, dtype="<u2")
    assert bits[0] == 0x3F80  # 1.0
    assert bits[1] == 0x3F81  # next representable value up
    assert np.array_equal(rec.to_array(), [1.0, 1.0 + 2.0**-7])


def test_bf16_nan_stays_nan():
    rec = TensorRecord.from_array("x", np.array([np.nan, 1.0]), "bf16")
    out = rec.to_array()
    assert np.isnan(out[0]) and out[1] == 1.0


def test_f16_roundtrip_exact_values():
    vals = np.array([0.0, 1.0, -0.5, 65504.0, 2.0**-14])
    rec = TensorRecord.from_array("x", vals, "f16")
    assert np.array_equal(rec.to_array(), vals)


def test_save_load_bit_identity(tmp_path, rng):
    records = {
        "w1": TensorRecord.from_array("w1", rng.standard_normal((4, 5)), "f32"),
        "w2": TensorRecord.from_array("w2", rng.standard_normal((2, 3)), "f64"),
        "w3": TensorRecord.from_array("w3", rng.standard_normal(7), "bf16"),
    }
    path = tmp_path / "rt.safetensors"
    save_checkpoint(records, path)
    back = load_checkpoint(path)
    assert set(back) == set(records)
    for key, rec in records.items():
        assert back[key].dtype == rec.dtype
        assert back[key].shape == rec.shape
        assert back[key].raw == rec.raw


@pytest.mark.parametrize("dtype", ["f32", "f64", "bf16"])
def test_scalar_tensor_round_trips(tmp_path, dtype):
    # a "shape": [] tensor keeps its 0-d shape through decode, encode, save and load
    src = tmp_path / "in.safetensors"
    src.write_bytes(raw_safetensors([("s", "F32", np.array(2.5, dtype=np.float32))]))
    loaded = load_checkpoint(src)["s"]
    assert loaded.shape == () and loaded.to_array().shape == ()
    records = {
        "s": TensorRecord.from_array("s", loaded.to_array(), dtype),
        "k": TensorRecord.from_array("k", np.float64(-2.0), dtype),
    }
    assert records["s"].shape == records["k"].shape == ()
    out = tmp_path / "out.safetensors"
    save_checkpoint(records, out)
    header = json.loads(out.read_bytes()[8 : 8 + struct.unpack("<Q", out.read_bytes()[:8])[0]])
    assert header["s"]["shape"] == header["k"]["shape"] == []
    back = load_checkpoint(out)
    assert back["s"].shape == back["k"].shape == ()
    assert back["s"].to_array() == 2.5 and back["k"].to_array() == -2.0
    assert back["s"].raw == records["s"].raw


def test_save_is_deterministic_and_order_independent(tmp_path, rng):
    a = TensorRecord.from_array("a", rng.standard_normal(3), "f32")
    b = TensorRecord.from_array("b", rng.standard_normal(3), "f32")
    p1, p2 = tmp_path / "1.safetensors", tmp_path / "2.safetensors"
    save_checkpoint({"a": a, "b": b}, p1)
    save_checkpoint({"b": b, "a": a}, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_saved_buffer_is_8_byte_aligned(tmp_path):
    rec = TensorRecord.from_array("odd_name_x", np.ones(3), "f32")
    path = tmp_path / "a.safetensors"
    save_checkpoint({"odd_name_x": rec}, path)
    header_len = struct.unpack("<Q", path.read_bytes()[:8])[0]
    assert (8 + header_len) % 8 == 0


def test_save_refuses_a_tensor_keyed_metadata(tmp_path):
    # a reader takes a "__metadata__" entry for the header's metadata, so the tensor would be lost
    rec = TensorRecord.from_array("__metadata__", np.ones((2, 2)), "f32")
    with pytest.raises(ValueError, match="'__metadata__': safetensors reserves that key"):
        save_checkpoint({"__metadata__": rec, "x": rec}, tmp_path / "a.safetensors")
    assert list(tmp_path.iterdir()) == []


def test_failed_save_leaves_no_temp_files(tmp_path):
    target = tmp_path / "isdir"
    target.mkdir()
    rec = TensorRecord.from_array("x", np.ones(1), "f32")
    with pytest.raises(OSError):
        save_checkpoint({"x": rec}, target)  # rename onto a directory fails
    assert sorted(p.name for p in tmp_path.iterdir()) == ["isdir"]


def _streamed(records):
    """The (key, record) pairs of a record map in reverse key order."""
    return [(key, records[key]) for key in sorted(records, reverse=True)]


def _layout(records):
    return {key: (rec.dtype, rec.shape) for key, rec in records.items()}


def test_streamed_save_matches_dict_save(tmp_path, rng):
    records = {
        key: TensorRecord.from_array(key, rng.standard_normal(shape), dtype)
        for key, shape, dtype in [("w1", (4, 5), "f32"), ("b", (3,), "bf16"), ("z", (2, 3), "f64")]
    }
    whole, streamed = tmp_path / "whole.safetensors", tmp_path / "streamed.safetensors"
    save_checkpoint(records, whole)
    save_checkpoint(iter(_streamed(records)), streamed, layout=_layout(records))
    assert whole.read_bytes() == streamed.read_bytes()


def test_streamed_save_takes_row_blocks(tmp_path, rng):
    records = {
        key: TensorRecord.from_array(key, rng.standard_normal(shape), dtype)
        for key, shape, dtype in [("w", (5, 2, 3), "f32"), ("b", (3,), "bf16"), ("s", (), "f64")]
    }
    blocks = [
        ("b", records["b"].rows(0, 2)), ("b", records["b"].rows(2, 3)),
        ("w", records["w"].rows(0, 0)), ("w", records["w"].rows(0, 4)), ("w", records["w"].rows(4, 5)),
        ("s", records["s"]),
    ]
    whole, streamed = tmp_path / "whole.safetensors", tmp_path / "streamed.safetensors"
    save_checkpoint(records, whole)
    save_checkpoint(iter(blocks), streamed, layout=_layout(records))
    assert whole.read_bytes() == streamed.read_bytes()


def test_streamed_save_takes_interleaved_row_blocks(tmp_path):
    # each tensor has its own cursor, so one tensor's blocks need not arrive back to back
    records = {
        "a": TensorRecord.from_array("a", np.arange(6.0).reshape(2, 3), "f32"),
        "b": TensorRecord.from_array("b", np.arange(4.0), "f32"),
    }
    a, b = records["a"], records["b"]
    whole, streamed = tmp_path / "whole.safetensors", tmp_path / "streamed.safetensors"
    save_checkpoint(records, whole)
    save_checkpoint([("a", a.rows(0, 1)), ("b", b.rows(0, 3)), ("a", a.rows(1, 2)), ("b", b.rows(3, 4))],
                    streamed, layout=_layout(records))
    assert whole.read_bytes() == streamed.read_bytes()


_SHAPES = st.lists(st.integers(0, 4), max_size=3).map(tuple)


@settings(max_examples=60, deadline=None)
@given(
    tensors=st.lists(st.tuples(_SHAPES, st.sampled_from(["f64", "f32", "f16", "bf16"])), min_size=1, max_size=4),
    data=st.data(),
)
def test_interleaved_row_blocks_write_the_map_save(tmp_path_factory, tensors, data):
    rng = np.random.default_rng(0)
    records = {
        f"t{i}": TensorRecord.from_array(f"t{i}", rng.standard_normal(shape), dtype)
        for i, (shape, dtype) in enumerate(tensors)
    }
    blocks = {}  # key -> its row blocks in row order; a 0-d tensor is one block
    for key, rec in records.items():
        if not rec.shape:
            blocks[key] = [rec]
            continue
        cuts = sorted(data.draw(st.lists(st.integers(0, rec.shape[0]), max_size=3)))
        blocks[key] = [rec.rows(i, j) for i, j in zip([0, *cuts], [*cuts, rec.shape[0]])]
    order = data.draw(st.permutations([key for key in blocks for _ in blocks[key]]))
    queues = {key: iter(blocks[key]) for key in blocks}
    stream = [(key, next(queues[key])) for key in order]  # interleaved, each tensor's blocks in row order
    work = tmp_path_factory.mktemp("stream")
    whole, streamed = work / "whole.safetensors", work / "streamed.safetensors"
    save_checkpoint(records, whole)
    save_checkpoint(iter(stream), streamed, layout=_layout(records))
    assert whole.read_bytes() == streamed.read_bytes()

    # a block that holds bytes, left out or written twice, is too few or too many rows
    full = [i for i, (_, rec) in enumerate(stream) if rec.raw]
    if full:
        i = data.draw(st.sampled_from(full))
        streamed.unlink()
        for bad in (stream[:i] + stream[i + 1 :], stream[: i + 1] + stream[i:]):
            with pytest.raises(ValueError):
                save_checkpoint(iter(bad), streamed, layout=_layout(records))
            assert sorted(p.name for p in work.iterdir()) == ["whole.safetensors"]


def test_rows_views_the_same_bytes(tmp_path, rng, monkeypatch):
    path = tmp_path / "r.safetensors"
    save_checkpoint({"w": TensorRecord.from_array("w", rng.standard_normal((6, 4)), "bf16")}, path)
    record = load_checkpoint(path)["w"]
    reads, real_preadv = [], os.preadv
    monkeypatch.setattr(os, "preadv", lambda *args: reads.append(args) or real_preadv(*args))
    part = record.rows(2, 5)
    assert (part.key, part.dtype, part.shape) == ("w", "bf16", (3, 4))
    # the record's byte range in the same open file, narrowed to rows 2-4; nothing is read
    assert part.payload is record.payload and part.position == record.position + 2 * 4 * 2
    assert reads == []
    assert part.raw == record.raw[2 * 4 * 2 : 5 * 4 * 2]
    assert np.array_equal(part.values(), record.values()[2:5])
    assert record.rows(6, 6).shape == (0, 4)
    for start, stop in [(-1, 2), (3, 2), (0, 7)]:
        with pytest.raises(ValueError, match="no rows"):
            record.rows(start, stop)
    with pytest.raises(ValueError, match="no rows"):
        TensorRecord.from_array("s", np.float64(1.0)).rows(0, 1)


def _bad_streams(records):
    extra = TensorRecord.from_array("extra", np.ones(2), "f32")
    wrong_shape = TensorRecord.from_array("a", np.ones((3, 2)), "f32")
    wrong_dtype = TensorRecord.from_array("a", np.ones((2, 3)), "f64")
    a, b = records["a"], records["b"]
    narrow_row = TensorRecord.from_array("a", np.ones((1, 2)), "f32")
    flat_row = TensorRecord.from_array("a", np.ones(3), "f32")
    f64_row = TensorRecord.from_array("a", np.ones((1, 3)), "f64")
    pairs = _streamed(records)
    return {
        "missing": pairs[1:],
        "extra": pairs + [("extra", extra)],
        "duplicate": pairs + pairs[:1],
        "wrong_shape": [("a", wrong_shape), ("b", b)],
        "wrong_dtype": [("a", wrong_dtype), ("b", b)],
        "too_many_rows": [("a", a.rows(0, 1)), ("a", a), ("b", b)],
        "too_few_rows": [("a", a.rows(0, 1)), ("b", b)],
        "too_few_rows_last": [("b", b), ("a", a.rows(0, 1))],
        "block_trailing_shape": [("a", a.rows(0, 1)), ("a", narrow_row), ("b", b)],
        "block_rank": [("a", a.rows(0, 1)), ("a", flat_row), ("b", b)],
        "block_dtype": [("a", a.rows(0, 1)), ("a", f64_row), ("b", b)],
    }


_BAD_STREAMS = [
    "missing", "extra", "duplicate", "wrong_shape", "wrong_dtype", "too_many_rows", "too_few_rows",
    "too_few_rows_last", "block_trailing_shape", "block_rank", "block_dtype",
]


@pytest.mark.parametrize("case", _BAD_STREAMS)
def test_streamed_save_rejects_bad_streams(tmp_path, case):
    records = {
        "a": TensorRecord.from_array("a", np.ones((2, 3)), "f32"),
        "b": TensorRecord.from_array("b", np.ones(4), "f32"),
    }
    path = tmp_path / "s.safetensors"
    with pytest.raises(ValueError):
        save_checkpoint(_bad_streams(records)[case], path, layout=_layout(records))
    assert list(tmp_path.iterdir()) == []  # neither the output nor a .s.safetensors.* temp file
    path.write_bytes(b"occupied")
    with pytest.raises(ValueError):
        save_checkpoint(_bad_streams(records)[case], path, layout=_layout(records))
    assert [p.name for p in tmp_path.iterdir()] == ["s.safetensors"]
    assert path.read_bytes() == b"occupied"


def _mapped_paths() -> set[str] | None:
    """Paths of the files this process maps, or None where /proc/self/maps is missing."""
    try:
        lines = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    return {line.split(maxsplit=5)[-1] for line in lines}


def test_loaded_records_read_their_open_file(tmp_path, rng):
    records = {"w": TensorRecord.from_array("w", rng.standard_normal((3, 4)), "f32")}
    path = tmp_path / "m.safetensors"
    save_checkpoint(records, path)
    back = load_checkpoint(path)["w"]
    # raw is the exact stored bytes, read into a new read-only buffer
    assert isinstance(back.raw, memoryview) and back.raw.readonly
    assert back.raw == records["w"].raw
    expected = records["w"].to_array()
    mapped = _mapped_paths()
    assert mapped is None or str(path) not in mapped  # read, never mapped: no file pages kept resident
    path.unlink()  # the open file outlives the path
    assert np.array_equal(back.to_array(), expected)
    fd = back.payload.fd
    os.fstat(fd)
    del back  # the last record that refers to the file closes it
    with pytest.raises(OSError):
        os.fstat(fd)


def test_reads_continue_after_short_reads(tmp_path, rng, monkeypatch):
    # one positional read may return fewer bytes than asked (at most about
    # 2 GB on Linux); the record reads on until its range is full
    w = rng.standard_normal((6, 5))
    path = tmp_path / "s.safetensors"
    save_checkpoint({"w": TensorRecord.from_array("w", w, "f32")}, path)
    record = load_checkpoint(path)["w"]
    real_preadv, calls = os.preadv, []

    def short_preadv(fd, buffers, position):
        calls.append(position)
        return real_preadv(fd, [buffers[0][:7]], position)

    monkeypatch.setattr(os, "preadv", short_preadv)
    assert np.array_equal(record.values(), w.astype(np.float32))
    assert len(calls) == -(-6 * 5 * 4 // 7)


def test_reading_past_a_truncated_end_names_file_and_key(tmp_path, rng):
    # two 128 KB tensors; the file is cut in the middle of b, so b's last rows
    # lie in whole pages past the new end (reading those through a map of the
    # file would crash the process with SIGBUS)
    a, b = rng.standard_normal((32, 1024)), rng.standard_normal((32, 1024))
    path = tmp_path / "t.safetensors"
    save_checkpoint({k: TensorRecord.from_array(k, v, "f32") for k, v in (("a", a), ("b", b))}, path)
    records = load_checkpoint(path)
    cut = path.stat().st_size - 16 * 4096  # b's last 16 rows are gone
    os.truncate(path, cut)
    assert np.array_equal(records["a"].to_array(), a.astype(np.float32))
    assert np.array_equal(records["b"].rows(0, 16).to_array(), b[:16].astype(np.float32))
    tail = records["b"].rows(16, 32)
    for read in (records["b"].to_array, lambda: bytes(records["b"].raw), lambda: tail.values().sum()):
        with pytest.raises(ParseError, match="ends past the end of the file") as exc:
            read()
        assert str(path) in str(exc.value) and "'b'" in str(exc.value)
        assert exc.value.position == cut


@pytest.mark.parametrize("size", [0, 1, 7])
def test_short_file_rejected_at_byte_0(tmp_path, size):
    path = tmp_path / "short.safetensors"
    path.write_bytes(b"\x01" * size)
    with pytest.raises(ParseError, match="is too short for a|-byte header is over the") as exc:
        load_checkpoint(path)
    assert exc.value.position == 0


def test_truncated_file_rejected_with_position(tmp_path):
    blob = raw_safetensors([("x", "F32", np.ones(4, dtype=np.float32))])
    path = tmp_path / "t.safetensors"
    path.write_bytes(blob[:-3])
    with pytest.raises(ParseError, match="range ends at") as exc:
        load_checkpoint(path)
    assert exc.value.position == len(blob) - 3


def test_header_json_garbage_rejected(tmp_path):
    # JSON true is a Python bool, an int subclass; it is no dimension or offset
    bool_shape = {"x": {"dtype": "F32", "shape": [True, 4], "data_offsets": [0, 16]}}
    bool_offset = {"x": {"dtype": "F32", "shape": [1], "data_offsets": [False, 4]}}
    path = tmp_path / "g.safetensors"
    for payload in (b"not json at all!", json.dumps(bool_shape).encode(), json.dumps(bool_offset).encode()):
        path.write_bytes(struct.pack("<Q", len(payload)) + payload + b"\0" * 16)
        with pytest.raises(ParseError, match="bad (header|shape|data_offsets)"):
            load_checkpoint(path)
    for payload in (b"[]", b"[1, 2]", b'"x"', b"7"):  # JSON, but not an object
        path.write_bytes(struct.pack("<Q", len(payload)) + payload + b"\0" * 16)
        with pytest.raises(ParseError, match="header must be a JSON object"):
            load_checkpoint(path)


def test_header_longer_than_file_rejected(tmp_path):
    path = tmp_path / "h.safetensors"
    path.write_bytes(struct.pack("<Q", 10**6) + b"{}")
    with pytest.raises(ParseError, match="too short for a 1000000-byte header"):
        load_checkpoint(path)


def test_unknown_dtype_rejected(tmp_path):
    header = json.dumps({"x": {"dtype": "I64", "shape": [1], "data_offsets": [0, 8]}}).encode()
    path = tmp_path / "d.safetensors"
    path.write_bytes(struct.pack("<Q", len(header)) + header + b"\x00" * 8)
    with pytest.raises(ParseError, match="unknown dtype 'I64'"):
        load_checkpoint(path)


def test_offset_shape_mismatch_rejected(tmp_path):
    # shape says 3 floats (12 bytes) but offsets cover 8
    header = json.dumps({"x": {"dtype": "F32", "shape": [3], "data_offsets": [0, 8]}}).encode()
    path = tmp_path / "o.safetensors"
    path.write_bytes(struct.pack("<Q", len(header)) + header + b"\x00" * 8)
    with pytest.raises(ParseError, match=re.escape("range holds 8 bytes, shape [3] x F32 needs 12")):
        load_checkpoint(path)


def test_negative_or_reversed_offsets_rejected(tmp_path):
    path = tmp_path / "r.safetensors"
    for begin, end in ((-4, 8), (8, 4), (-12, -24)):
        header = json.dumps({"x": {"dtype": "F32", "shape": [3], "data_offsets": [begin, end]}}).encode()
        path.write_bytes(struct.pack("<Q", len(header)) + header + b"\x00" * 16)
        with pytest.raises(ParseError, match=rf"invalid range \[{begin}, {end}\)"):
            load_checkpoint(path)


def test_overlapping_offsets_rejected(tmp_path):
    header = json.dumps(
        {
            "x": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
            "y": {"dtype": "F32", "shape": [2], "data_offsets": [4, 12]},
        }
    ).encode()
    path = tmp_path / "ov.safetensors"
    path.write_bytes(struct.pack("<Q", len(header)) + header + b"\x00" * 12)
    with pytest.raises(ParseError, match="overlap at buffer offset 4"):
        load_checkpoint(path)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31), dtype=st.sampled_from(["f64", "f32", "f16", "bf16"]))
def test_roundtrip_property(tmp_path_factory, seed, dtype):
    rng = np.random.default_rng(seed)
    path = tmp_path_factory.mktemp("rt") / "p.safetensors"
    shape = tuple(rng.integers(1, 6, size=int(rng.integers(1, 4))))
    rec = TensorRecord.from_array("t", rng.standard_normal(shape), dtype)
    save_checkpoint({"t": rec}, path)
    back = load_checkpoint(path)["t"]
    assert (back.dtype, back.shape, back.raw) == (rec.dtype, rec.shape, rec.raw)


def test_check_factors_validation():
    # a LoRA pair: 2-D factors that chain, of rank 1 to min of the full shape
    b, a = (6, 2), (2, 5)
    check_factors("l", b, a)
    check_factors("l", (6, 5), (5, 5))  # rank min(full) is allowed
    with pytest.raises(AlignmentError, match=r"l: inner dimensions differ, B is \(6, 2\), A is \(3, 5\)"):
        check_factors("l", b, (3, 5))
    with pytest.raises(AlignmentError, match="l: rank 0"):
        check_factors("l", (6, 0), (0, 5))
    with pytest.raises(AlignmentError, match=r"l: rank 6 exceeds min of full shape \(6, 2\)"):
        check_factors("l", (6, 6), (6, 2))
    for flat_b, flat_a in (((6,), a), (b, (1, 2, 5))):
        with pytest.raises(AlignmentError, match="l: factors must be 2-D"):
            check_factors("l", flat_b, flat_a)


def test_extract_adapters_aligned(adapter_files):
    adapters = extract_adapters(adapter_files)
    assert adapters.n == 3
    assert len(adapters.layer_keys) == 4
    b, a, s, ranks = adapters.factors(adapters.layer_keys[0])
    assert ranks == [4, 4, 4]
    assert [rec.shape for rec in b] == [(16, 4)] * 3 and a.shape == (12, 12) and s.shape == (12,)


@pytest.mark.parametrize(
    "dtypes", [("f64",) * 3, ("f32",) * 3, ("f16",) * 3, ("bf16",) * 3, ("bf16", "f16", "f32")]
)
def test_stacks_are_each_adapters_decoded_factors_bit_for_bit(tmp_path, rng, dtypes):
    files = []
    for i, (rank, dtype) in enumerate(zip((2, 5, 3), dtypes)):
        files.append(tmp_path / f"a{i}.safetensors")
        save_checkpoint(make_adapter_records(["x", "y"], rank, (9, 7), rng, dtype=dtype), files[-1])
    # B stays the stored records; the merge's reader decodes them, in pieces of 4 rows here
    adapters = extract_adapters(files, scalings=[0.5, 1.0, 3.0])
    for key in adapters.layer_keys:
        b, a, s, ranks = adapters.factors(key)
        pairs = [adapter[key] for adapter in adapters.adapters]
        want_b, want_a = np.hstack([p[0].to_array() for p in pairs]), np.vstack([p[1].to_array() for p in pairs])
        assert all(got is want for got, (want, _) in zip(b, pairs))
        pieces = [piece.copy() for _, piece in _pieces(b, 4)]
        assert [len(piece) for piece in pieces] == [4, 4, 1]
        assert a.dtype == pieces[0].dtype == np.float64 and a.shape == (10, 7)
        assert np.concatenate(pieces).tobytes() == want_b.tobytes() and a.tobytes() == want_a.tobytes()
        assert ranks == [2, 5, 3] and s.tolist() == [0.5] * 2 + [1.0] * 5 + [3.0] * 3


def test_save_checkpoint_in_no_directory_names_the_path(tmp_path):
    target = tmp_path / "nodir" / "x.safetensors"
    with pytest.raises(NotADirectoryError) as info:
        save_checkpoint({"w": TensorRecord.from_array("w", np.ones(2), "f32")}, target)
    assert str(info.value) == f"{target}: {target.parent} is not a directory"
    assert list(tmp_path.iterdir()) == []


def test_extract_adapters_applies_scaling(adapter_files):
    plain = extract_adapters(adapter_files[:1])
    scaled = extract_adapters(adapter_files[:1], scalings=[2.5])
    key = plain.layer_keys[0]
    assert (scaled.factors(key)[2] == 2.5).all()
    assert (plain.factors(key)[2] == 1.0).all()


def test_extract_adapters_checks_a_scaling_before_opening_its_file(adapter_files, tmp_path):
    # a scaling belongs to its adapter, not to a factor pair: a bad one is refused before its file is read
    missing = tmp_path / "missing.safetensors"
    for scaling in (0.0, -1.0, float("nan"), float("inf")):
        message = f"missing.safetensors: scaling {scaling!r} must be positive and finite"
        with pytest.raises(AlignmentError, match=re.escape(message)):
            extract_adapters([adapter_files[0], missing], scalings=[1.0, scaling])


@pytest.mark.parametrize(
    "field, values", [("names", ["only"]), ("scalings", [1.0])], ids=["names", "scalings"]
)
def test_extract_adapters_rejects_per_file_list_of_wrong_length(adapter_files, field, values):
    with pytest.raises(AlignmentError, match=f"{field} length must match file count"):
        extract_adapters(adapter_files[:2], **{field: values})


def test_extract_adapters_needs_a_file():
    with pytest.raises(AlignmentError, match="no adapter files given"):
        extract_adapters([])


def test_extract_adapters_unpaired_factor_rejected(tmp_path, rng):
    records = make_adapter_records(["solo"], rank=2, full_shape=(6, 5), rng=rng)
    del records["solo.lora_A.weight"]
    path = tmp_path / "broken.safetensors"
    save_checkpoint(records, path)
    with pytest.raises(AlignmentError):
        extract_adapters([path])


def test_lora_pairs_splits_pairs_from_lone_factors(rng):
    records = make_adapter_records(["pair", "lone_b", "lone_a"], rank=2, full_shape=(6, 5), rng=rng)
    del records["lone_b.lora_A.weight"], records["lone_a.lora_B.weight"]
    records["pair.bias"] = TensorRecord.from_array("pair.bias", np.zeros(6))
    pairs, lonely = lora_pairs(records)
    assert list(pairs) == ["pair"]
    assert pairs["pair"] == (records["pair.lora_B.weight"], records["pair.lora_A.weight"])
    assert lonely == ["lone_a", "lone_b"]
    assert lora_pairs({}) == ({}, [])


def test_extract_adapters_strict_raises_for_the_first_bad_layer_in_key_order(tmp_path, rng):
    # layer "a" conflicts and layer "b" is missing from p2: "a" comes first
    p1, p2 = tmp_path / "p1.safetensors", tmp_path / "p2.safetensors"
    save_checkpoint(make_adapter_records(["a", "b"], 2, (6, 5), rng), p1)
    save_checkpoint(make_adapter_records(["a"], 2, (7, 5), rng), p2)
    with pytest.raises(AlignmentError, match="layer 'a' has conflicting full shapes"):
        extract_adapters([p1, p2])


def test_extract_adapters_strict_missing_layer(tmp_path, rng):
    p1 = tmp_path / "a.safetensors"
    p2 = tmp_path / "b.safetensors"
    save_checkpoint(make_adapter_records(["x", "y"], 2, (6, 5), rng), p1)
    save_checkpoint(make_adapter_records(["x"], 2, (6, 5), rng), p2)
    with pytest.raises(AlignmentError):
        extract_adapters([p1, p2], strict=True)
    lenient = extract_adapters([p1, p2], strict=False)
    assert lenient.layer_keys == ["x"]
    assert lenient.warnings


def test_extract_adapters_strict_shape_conflict(tmp_path, rng):
    p1 = tmp_path / "a.safetensors"
    p2 = tmp_path / "b.safetensors"
    save_checkpoint(make_adapter_records(["x"], 2, (6, 5), rng), p1)
    save_checkpoint(make_adapter_records(["x"], 2, (7, 5), rng), p2)
    with pytest.raises(AlignmentError):
        extract_adapters([p1, p2], strict=True)
    # lenient mode drops the one layer, and an adapter set with no layer is an error
    with pytest.raises(AlignmentError, match=r"'x' has conflicting full shapes \[\(6, 5\), \(7, 5\)\]"):
        extract_adapters([p1, p2], strict=False)


def test_extract_adapters_mixed_ranks_allowed(tmp_path, rng):
    p1 = tmp_path / "a.safetensors"
    p2 = tmp_path / "b.safetensors"
    save_checkpoint(make_adapter_records(["x"], 2, (6, 5), rng), p1)
    save_checkpoint(make_adapter_records(["x"], 3, (6, 5), rng), p2)
    adapters = extract_adapters([p1, p2])
    assert adapters.factors("x")[3] == [2, 3]


def test_extract_adapters_rejects_non_finite(tmp_path):
    b = np.ones((4, 2))
    a = np.ones((2, 3))
    a[0, 0] = np.inf
    records = {
        "x.lora_B.weight": TensorRecord.from_array("x.lora_B.weight", b, "f64"),
        "x.lora_A.weight": TensorRecord.from_array("x.lora_A.weight", a, "f64"),
    }
    path = tmp_path / "inf.safetensors"
    save_checkpoint(records, path)
    with pytest.raises(AlignmentError):
        extract_adapters([path])


def test_load_manifest_relative_paths(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(
        json.dumps(
            [
                {"path": "adapters/one.safetensors", "name": "one", "scaling": 2.0},
                {"path": str(tmp_path / "two.safetensors")},
            ]
        )
    )
    paths, names, scalings = load_manifest(manifest)
    assert paths[0] == tmp_path / "adapters/one.safetensors"
    assert paths[1] == tmp_path / "two.safetensors"
    assert names == ["one", "two"]
    assert scalings == [2.0, 1.0]


def test_load_manifest_rejects_bad_entries(tmp_path):
    bad = tmp_path / "m.json"
    bad.write_text("[{}]")
    with pytest.raises(AlignmentError):
        load_manifest(bad)
    bad.write_text("{not json")
    with pytest.raises(AlignmentError):
        load_manifest(bad)
    for text in ("[]", '{"path": "a.safetensors"}', '"a.safetensors"', "null"):
        bad.write_text(text)
        with pytest.raises(AlignmentError, match=re.escape(f"manifest {bad}: expected a non-empty JSON list")):
            load_manifest(bad)
    where = re.escape(f"manifest {bad}: entry 1")
    bad_scalings = ("NaN", "-Infinity", '"x"', '"1.5"', "[1]", "null", "true", "false", "0", "-2.5", "9" * 400)
    for scaling in bad_scalings:
        entries = f'{{"path": "ok.safetensors"}}, {{"path": "a.safetensors", "scaling": {scaling}}}'
        bad.write_text(f"[{entries}]")
        with pytest.raises(AlignmentError, match=rf"{where} .*a\.safetensors.* scaling"):
            load_manifest(bad)
    for path in ("5", "null", '["a.safetensors"]'):
        bad.write_text(f'[{{"path": "ok.safetensors"}}, {{"path": {path}}}]')
        with pytest.raises(AlignmentError, match=rf"{where} needs a string 'path'"):
            load_manifest(bad)


def test_load_manifest_rejects_a_repeated_given_name(tmp_path):
    manifest = tmp_path / "m.json"
    entries = [{"path": "x.safetensors", "name": "a"}, {"path": "y.safetensors", "name": "b"},
               {"path": "z.safetensors", "name": "a"}]
    manifest.write_text(json.dumps(entries))
    repeated = f"manifest {manifest}: entries 0 and 2 are both named 'a'"
    with pytest.raises(AlignmentError, match=re.escape(repeated)):
        load_manifest(manifest)


def test_load_manifest_keeps_repeated_file_stems(tmp_path):
    # names left out default to the file stem, and two PEFT saves share one
    manifest = tmp_path / "m.json"
    entries = [{"path": "one/adapter_model.safetensors"}, {"path": "two/adapter_model.safetensors"},
               {"path": "three.safetensors", "name": "adapter_model"}]
    manifest.write_text(json.dumps(entries))
    assert load_manifest(manifest)[1] == ["adapter_model"] * 3


def test_load_checkpoint_refuses_a_directory(tmp_path):
    # opening a directory succeeds on Linux; only its first read would fail, naming no path
    with pytest.raises(OSError, match=re.escape(f"{tmp_path}: not a regular file")):
        load_checkpoint(tmp_path)


def test_header_over_the_size_limit_is_rejected_before_it_is_read(tmp_path, monkeypatch):
    # a sparse file whose 8-byte prefix declares a 150 MB header, and is that long
    path = tmp_path / "big.safetensors"
    path.write_bytes((150_000_000).to_bytes(8, "little"))
    os.truncate(path, 8 + 150_000_000)
    reads, real_pread = [], os.pread
    monkeypatch.setattr(os, "pread", lambda fd, n, at: reads.append((n, at)) or real_pread(fd, n, at))
    with pytest.raises(ParseError, match="150000000-byte header is over the 100000000-byte limit") as info:
        load_checkpoint(path)
    assert info.value.position == 0 and str(path) in str(info.value)
    assert reads and all(at + n <= 8 for n, at in reads)  # nothing past the prefix
    path.write_bytes((100_000_000).to_bytes(8, "little"))  # at the limit, the next check speaks
    with pytest.raises(ParseError, match="too short for a 100000000-byte header"):
        load_checkpoint(path)


@pytest.mark.parametrize("where", ["tensor", "metadata"])
def test_header_key_that_is_not_text_rejected(tmp_path, where):
    # the JSON escape \ud800 decodes to a lone surrogate, which no output can encode
    entry = '{"dtype":"F32","shape":[1],"data_offsets":[0,4]}'
    header = f'{{"w\\ud800x":{entry}}}' if where == "tensor" else f'{{"__metadata__":{{"\\ud800":"v"}},"w":{entry}}}'
    path = tmp_path / "odd.safetensors"
    path.write_bytes(struct.pack("<Q", len(header)) + header.encode() + b"\0" * 4)
    with pytest.raises(ParseError, match=r"key '.*\\ud800.*' is not text") as info:
        load_checkpoint(path)
    assert info.value.position == 8 and str(path) in str(info.value)
    str(info.value).encode()  # the message itself is text


def test_duplicate_header_key_rejected(tmp_path):
    entry = '{"dtype":"F32","shape":[1],"data_offsets":[0,4]}'
    header = f'{{"w":{entry},"w":{entry}}}'.encode()
    path = tmp_path / "dup.safetensors"
    path.write_bytes(struct.pack("<Q", len(header)) + header + b"\0" * 4)
    with pytest.raises(ParseError, match="repeats key 'w'"):
        load_checkpoint(path)


_FUZZ_BLOB = raw_safetensors(
    [("a.weight", "F32", np.ones((2, 3))), ("b", "BF16", np.ones(4))], metadata={"k": "v"}
)
_FUZZ_HEADER_END = 8 + struct.unpack("<Q", _FUZZ_BLOB[:8])[0]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, _FUZZ_HEADER_END - 1), st.integers(0, 255)), min_size=1, max_size=4
    )
)
def test_mutated_header_raises_only_parse_error(tmp_path_factory, edits):
    blob = bytearray(_FUZZ_BLOB)
    for pos, value in edits:
        blob[pos] = value
    path = tmp_path_factory.mktemp("fuzz") / "m.safetensors"
    path.write_bytes(bytes(blob))
    try:
        load_checkpoint(path)
    except ParseError:
        pass
