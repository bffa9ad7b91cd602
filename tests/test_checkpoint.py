import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domerge.checkpoint import (
    AlignmentError,
    LoraLayer,
    MalformedHeaderError,
    OffsetError,
    ParseError,
    TensorRecord,
    TruncatedPayloadError,
    UnknownDtypeError,
    extract_adapters,
    load_checkpoint,
    load_manifest,
    save_checkpoint,
)

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
        # a read-only view of the file map, in the stored precision
        assert got.dtype == want.dtype and got.shape == want.shape and not got.flags.writeable
        assert np.shares_memory(got, np.frombuffer(records[key].raw, dtype=np.uint8))
        assert np.array_equal(got, want)
    widened = records["bf"].values()
    assert widened.dtype == np.float32 and np.array_equal(widened, bf)
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


def _bad_streams(records):
    extra = TensorRecord.from_array("extra", np.ones(2), "f32")
    wrong_shape = TensorRecord.from_array("a", np.ones((3, 2)), "f32")
    wrong_dtype = TensorRecord.from_array("a", np.ones((2, 3)), "f64")
    pairs = _streamed(records)
    return {
        "missing": pairs[1:],
        "extra": pairs + [("extra", extra)],
        "duplicate": pairs + pairs[:1],
        "wrong_shape": [("a", wrong_shape), ("b", records["b"])],
        "wrong_dtype": [("a", wrong_dtype), ("b", records["b"])],
    }


@pytest.mark.parametrize("case", ["missing", "extra", "duplicate", "wrong_shape", "wrong_dtype"])
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


def test_loaded_records_view_a_file_map(tmp_path, rng):
    records = {"w": TensorRecord.from_array("w", rng.standard_normal((3, 4)), "f32")}
    path = tmp_path / "m.safetensors"
    save_checkpoint(records, path)
    back = load_checkpoint(path)["w"]
    assert isinstance(back.raw, memoryview) and back.raw.readonly
    expected = records["w"].to_array()
    path.unlink()  # the map outlives the path
    back.release()  # and faults its pages back in after a release
    assert np.array_equal(back.to_array(), expected)


@pytest.mark.parametrize("size", [0, 1, 7])
def test_short_file_rejected_at_byte_0(tmp_path, size):
    path = tmp_path / "short.safetensors"
    path.write_bytes(b"\x01" * size)
    with pytest.raises(MalformedHeaderError) as exc:
        load_checkpoint(path)
    assert exc.value.position == 0


def test_truncated_file_rejected_with_position(tmp_path):
    blob = raw_safetensors([("x", "F32", np.ones(4, dtype=np.float32))])
    path = tmp_path / "t.safetensors"
    path.write_bytes(blob[:-3])
    with pytest.raises(TruncatedPayloadError) as exc:
        load_checkpoint(path)
    assert exc.value.position == len(blob) - 3


def test_header_json_garbage_rejected(tmp_path):
    # JSON true is a Python bool, an int subclass; it is no dimension or offset
    bool_shape = {"x": {"dtype": "F32", "shape": [True, 4], "data_offsets": [0, 16]}}
    bool_offset = {"x": {"dtype": "F32", "shape": [1], "data_offsets": [False, 4]}}
    path = tmp_path / "g.safetensors"
    for payload in (b"not json at all!", json.dumps(bool_shape).encode(), json.dumps(bool_offset).encode()):
        path.write_bytes(struct.pack("<Q", len(payload)) + payload + b"\0" * 16)
        with pytest.raises(MalformedHeaderError):
            load_checkpoint(path)


def test_header_longer_than_file_rejected(tmp_path):
    path = tmp_path / "h.safetensors"
    path.write_bytes(struct.pack("<Q", 10**6) + b"{}")
    with pytest.raises(MalformedHeaderError):
        load_checkpoint(path)


def test_unknown_dtype_rejected(tmp_path):
    header = json.dumps({"x": {"dtype": "I64", "shape": [1], "data_offsets": [0, 8]}}).encode()
    path = tmp_path / "d.safetensors"
    path.write_bytes(struct.pack("<Q", len(header)) + header + b"\x00" * 8)
    with pytest.raises(UnknownDtypeError):
        load_checkpoint(path)


def test_offset_shape_mismatch_rejected(tmp_path):
    # shape says 3 floats (12 bytes) but offsets cover 8
    header = json.dumps({"x": {"dtype": "F32", "shape": [3], "data_offsets": [0, 8]}}).encode()
    path = tmp_path / "o.safetensors"
    path.write_bytes(struct.pack("<Q", len(header)) + header + b"\x00" * 8)
    with pytest.raises(OffsetError):
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
    with pytest.raises(OffsetError):
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


def test_lora_layer_validation():
    b, a = np.ones((6, 2)), np.ones((2, 5))
    layer = LoraLayer("l", B=b, A=a, rank=2)
    assert layer.full_shape == (6, 5)
    with pytest.raises(AlignmentError):
        LoraLayer("l", B=b, A=np.ones((3, 5)), rank=2)  # inner dims differ
    with pytest.raises(AlignmentError):
        LoraLayer("l", B=b, A=a, rank=3)  # rank must equal the inner dim
    with pytest.raises(AlignmentError):
        LoraLayer("l", B=np.ones((6, 6)), A=np.ones((6, 2)), rank=6)  # rank > min(full)
    for scaling in (0.0, float("nan"), float("inf")):
        with pytest.raises(AlignmentError):
            LoraLayer("l", B=b, A=a, rank=2, scaling=scaling)


def test_extract_adapters_aligned(adapter_files):
    adapters = extract_adapters(adapter_files)
    assert adapters.n == 3
    assert len(adapters.layer_keys) == 4
    group = adapters.group(adapters.layer_keys[0])
    assert len(group) == 3
    assert all(layer.rank == 4 for layer in group)
    assert all(layer.full_shape == (16, 12) for layer in group)


def test_extract_adapters_applies_scaling(adapter_files):
    plain = extract_adapters(adapter_files[:1])
    scaled = extract_adapters(adapter_files[:1], scalings=[2.5])
    key = plain.layer_keys[0]
    assert scaled.group(key)[0].scaling == 2.5
    assert plain.group(key)[0].scaling == 1.0


def test_extract_adapters_unpaired_factor_rejected(tmp_path, rng):
    records = make_adapter_records(["solo"], rank=2, full_shape=(6, 5), rng=rng)
    del records["solo.lora_A.weight"]
    path = tmp_path / "broken.safetensors"
    save_checkpoint(records, path)
    with pytest.raises(AlignmentError):
        extract_adapters([path])


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
    ranks = sorted(layer.rank for layer in adapters.group("x"))
    assert ranks == [2, 3]


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


def test_parse_errors_are_parse_error_subclasses():
    for cls in (MalformedHeaderError, UnknownDtypeError, OffsetError, TruncatedPayloadError):
        assert issubclass(cls, ParseError)


def test_duplicate_header_key_rejected(tmp_path):
    entry = '{"dtype":"F32","shape":[1],"data_offsets":[0,4]}'
    header = f'{{"w":{entry},"w":{entry}}}'.encode()
    path = tmp_path / "dup.safetensors"
    path.write_bytes(struct.pack("<Q", len(header)) + header + b"\0" * 4)
    with pytest.raises(MalformedHeaderError, match="repeats key 'w'"):
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
