import dataclasses
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from domerge import merge as merge_module
from domerge.cli import main
from domerge.checkpoint import (
    AdapterSet,
    AlignmentError,
    TensorRecord,
    extract_adapters,
    load_checkpoint,
    save_checkpoint,
)
from domerge.merge import (
    MergeConfig,
    _pieces,
    _render_f32,
    _times,
    _truncated_factors,
    output_shapes,
    resolve_base_key,
    write_merged,
)
from domerge.ortho import OrthoConfig, orthogonalize_group

from conftest import make_adapter_records
from oracles import (
    EPS32,
    assert_within_render_bound,
    decoded_group,
    dense_merge_delta,
    layer_outputs,
    merge_adapter_set,
    merged_factors,
    svd_truncate,
    task_matrix,
)


def make_layer(rng, m=10, n=8, rank=3, scaling=1.0):
    """One adapter's (B, A, scaling) f64 layer."""
    return rng.standard_normal((m, rank)), rng.standard_normal((rank, n)), scaling


def merged_delta(layers, config):
    """The dense merged delta left @ right of merged_factors."""
    left, right, _ = merged_factors(layers, config)
    return left @ right


def records(left):
    """left as the one f64 record merge's reader (_pieces) reads."""
    return [TensorRecord.from_array("left", left, "f64")]


def truncated(left, right, rank):
    """_truncated_factors' (B, A) of left @ right, joined; it writes right, so it is given a copy."""
    a, *b = (block.copy() for block in _truncated_factors(records(left), right.copy(), rank))
    return np.concatenate(b), a


def adapter_set(adapters, names):
    """An AdapterSet of {layer key: (B, A, scaling)} dicts, held as exact in-memory f64 factor records."""
    def records(key, b, a):
        return tuple(TensorRecord.from_array(key, f, "f64") for f in (b, a))

    return AdapterSet(
        [{key: records(key, b, a) for key, (b, a, _) in adapter.items()} for adapter in adapters],
        names,
        [next(iter(adapter.values()))[2] for adapter in adapters],
    )


def test_config_defaults():
    cfg = MergeConfig()
    assert cfg.lam is None
    assert cfg.magnitude_mode == "column"
    assert cfg.decouple_enabled
    assert isinstance(cfg.ortho, OrthoConfig)
    assert cfg.resolve_lam(2) == 0.25
    assert cfg.resolve_lam(3) == pytest.approx(1 / 9)
    assert MergeConfig(lam=0.7).resolve_lam(5) == 0.7
    # the two stage switches and lam are the whole config; a method is a preset of them (cli.METHODS)
    assert [f.name for f in dataclasses.fields(MergeConfig)] == ["lam", "magnitude_mode", "ortho", "decouple_enabled"]


def test_config_validation():
    with pytest.raises(TypeError):
        MergeConfig(method="average")
    with pytest.raises(ValueError):
        MergeConfig(magnitude_mode="banana")
    for lam in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lam"):
            MergeConfig(lam=lam)


def test_task_arithmetic_single_adapter_identity(rng):
    b, a, s = make_layer(rng)
    assert np.array_equal(merged_delta([(b, a, s)], MergeConfig(ortho=None, decouple_enabled=False, lam=1.0)), b @ a)


def test_task_arithmetic_sums_scaled_products(rng):
    layers = [make_layer(rng, scaling=s) for s in (1.0, 2.0)]
    out = merged_delta(layers, MergeConfig(ortho=None, decouple_enabled=False, lam=0.5))
    expected = 0.5 * (task_matrix(layers[0]) + task_matrix(layers[1]))
    assert np.allclose(out, expected, rtol=1e-14)


def test_average_is_mean_of_products(rng):
    layers = [make_layer(rng) for _ in range(4)]
    out = merged_delta(layers, MergeConfig(ortho=None, decouple_enabled=False, lam=1 / 4))
    expected = sum(task_matrix(l) for l in layers) / 4
    assert np.allclose(out, expected, rtol=1e-14)


def test_identical_adapters_reconstruct_without_ortho(rng):
    layer = make_layer(rng)
    for n in (2, 3):
        cfg = MergeConfig(lam=1.0 / n**2, ortho=None)
        out = merged_delta([layer] * n, cfg)
        target = task_matrix(layer)
        assert np.linalg.norm(out - target) <= 1e-12 * np.linalg.norm(target)


def test_fully_ablated_matches_task_arithmetic_bitwise(rng):
    layers = [make_layer(rng) for _ in range(3)]
    # with both stages off the merge is the stacked product [B_1 ... B_n] (lam s * [A_1; ...; A_n])
    ablated = MergeConfig(ortho=None, decouple_enabled=False, lam=0.2)
    scales = np.repeat([0.2 * s for _, _, s in layers], [a.shape[0] for _, a, _ in layers])
    stacked = np.hstack([b for b, _, _ in layers]) @ (np.vstack([a for _, a, _ in layers]) * scales[:, None])
    assert np.array_equal(merged_delta(layers, ablated), stacked)


def test_ortho_stats_presence(rng):
    layers = [make_layer(rng) for _ in range(2)]
    assert set(merged_factors(layers, MergeConfig())[2]) == {"A", "B"}
    assert merged_factors(layers, MergeConfig(ortho=None))[2] is None


def test_ortho_budget_reflected_in_stats(rng):
    layers = [make_layer(rng) for _ in range(3)]
    cfg = MergeConfig(ortho=OrthoConfig(max_rel_perturbation=0.02))
    for stats in merged_factors(layers, cfg)[2].values():
        assert max(stats.per_member_rel_perturbation) <= 0.02


def test_mixed_rank_groups_merge(rng):
    layers = [make_layer(rng, rank=2), make_layer(rng, rank=5)]
    left, right, stats = merged_factors(layers, MergeConfig())
    assert (left @ right).shape == (10, 8)
    assert stats["B"].final_lo <= stats["B"].initial_lo
    assert stats["A"].final_lo <= stats["A"].initial_lo


@pytest.mark.parametrize("factor", ["B", "A"])
@pytest.mark.parametrize("method", ["do_merging", "task_arithmetic"])
def test_merge_layer_rejects_non_finite_factors(tmp_path, capsys, rng, method, factor):
    # checked as the adapters load, so every method exits 3 naming the file and layer, writing nothing
    paths = [tmp_path / f"adapter{i}.safetensors" for i in range(3)]
    for i, path in enumerate(paths):
        adapter = make_adapter_records(["enc.q"], 3, (10, 8), rng, dtype="f64")
        if i == 1:
            key = f"enc.q.lora_{factor}.weight"
            values = adapter[key].to_array()
            values[2, 1] = np.inf
            adapter[key] = TensorRecord.from_array(key, values, "f64")
        save_checkpoint(adapter, path)
    out = tmp_path / "out.safetensors"
    assert main(["merge", *map(str, paths), "--method", method, "--output", str(out)]) == 3
    assert re.search(r"adapter1\.safetensors: non-finite values in layer 'enc\.q'", capsys.readouterr().err)
    assert not out.exists()


def test_merge_layer_rejects_shape_conflicts(tmp_path, rng):
    # a layer whose full shape differs between adapters is refused as they load, as is an empty set
    paths = [tmp_path / "a.safetensors", tmp_path / "b.safetensors"]
    for path, m in zip(paths, (10, 11)):
        save_checkpoint(make_adapter_records(["l"], 3, (m, 8), rng), path)
    with pytest.raises(AlignmentError, match=r"layer 'l' has conflicting full shapes \[\(10, 8\), \(11, 8\)\]"):
        extract_adapters(paths)
    with pytest.raises(AlignmentError, match="no adapter files given"):
        extract_adapters([])


def test_decoupling_changes_result_for_imbalanced_scalings(rng):
    layers = [make_layer(rng, scaling=1.0), make_layer(rng, scaling=4.0)]
    coupled = merged_delta(layers, MergeConfig(ortho=None, decouple_enabled=False))
    decoupled = merged_delta(layers, MergeConfig(ortho=None, decouple_enabled=True))
    assert not np.allclose(coupled, decoupled)


def test_merge_adapter_set_sorted_by_layer_key(rng):
    adapters = adapter_set([{"b": make_layer(rng), "a": make_layer(rng)} for _ in range(2)], ["x", "y"])
    merged = merge_adapter_set(adapters)
    assert list(merged) == ["a", "b"]
    for key, (left, right, _) in merged.items():
        alone_left, alone_right, _ = merged_factors(decoded_group(adapters, key), MergeConfig(), key)
        assert np.array_equal(left @ right, alone_left @ alone_right)


def base_records(keys, shape, rng):
    """A load_checkpoint-style base record map with one f64 weight per layer."""
    return {
        key + ".weight": TensorRecord.from_array(key + ".weight", rng.standard_normal(shape), "f64")
        for key in keys
    }


def test_fused_output_requires_base(adapter_files):
    key, (left, right, _) = next(iter(merge_adapter_set(extract_adapters(adapter_files)).items()))
    with pytest.raises(ValueError):
        layer_outputs(key, left, right, "fused")


def test_fused_output_adds_base(adapter_files, rng):
    adapters = extract_adapters(adapter_files)
    base = base_records(adapters.layer_keys, (16, 12), rng)
    for key, (left, right, _) in merge_adapter_set(adapters).items():
        out = layer_outputs(key, left, right, "fused", base=base)
        assert list(out) == [key + ".weight"]
        fused = out[key + ".weight"]
        assert fused.dtype == np.float32
        assert_within_render_bound(fused, left, right, base[key + ".weight"].to_array())


def test_fused_output_shape_conflict_rejected(adapter_files, rng):
    adapters = extract_adapters(adapter_files)
    base = base_records(adapters.layer_keys, (3, 3), rng)
    for key, (left, right, _) in merge_adapter_set(adapters).items():
        with pytest.raises(AlignmentError):
            layer_outputs(key, left, right, "fused", base=base)


@pytest.mark.parametrize("mode, rank", [("delta", None), ("fused", None), ("lowrank", 3)])
def test_layer_outputs_shapes_only_matches_rendered(adapter_files, rng, mode, rank):
    adapters = extract_adapters(adapter_files)
    base = base_records(adapters.layer_keys, (16, 12), rng)
    for key, (left, right, _) in merge_adapter_set(adapters).items():
        shapes = output_shapes(key, (len(left), right.shape[1]), mode, rank, base)
        rendered = layer_outputs(key, left, right, mode, rank, base)
        assert list(shapes) == list(rendered)
        assert all(shapes[key] == arr.shape for key, arr in rendered.items())


def test_layer_outputs_shapes_only_raises_like_rendering(adapter_files, rng):
    adapters = extract_adapters(adapter_files)
    key, (left, right, _) = next(iter(merge_adapter_set(adapters).items()))
    conflict, shape = base_records(adapters.layer_keys, (3, 3), rng), (len(left), right.shape[1])
    with pytest.raises(AlignmentError):
        output_shapes(key, shape, "fused", base=conflict)
    for rank in (13, None):
        with pytest.raises(ValueError, match="out of range"):
            output_shapes(key, shape, "lowrank", rank)
    with pytest.raises(ValueError, match="unknown output mode 'dense'"):
        output_shapes(key, shape, "dense")


def test_merge_adapter_set_returns_rank_sum_factors(rng):
    layers = [make_layer(rng, rank=2), make_layer(rng, rank=3)]
    adapters = adapter_set([{"l": layer} for layer in layers], ["a", "b"])
    for cfg in (MergeConfig(), MergeConfig(ortho=None, decouple_enabled=False)):
        left, right, _ = merge_adapter_set(adapters, config=cfg)["l"]
        assert left.shape == (10, 5) and right.shape == (5, 8)
        delta = layer_outputs("l", left, right, "delta")
        assert list(delta) == ["l"]
        assert delta["l"].dtype == np.float32
        assert_within_render_bound(delta["l"], left, right)


@pytest.mark.parametrize("dtype", [None, "f64", "f32", "f16", "bf16"])
@pytest.mark.parametrize("rows", [None, 5, 1], ids=["one_block", "ragged_blocks", "row_blocks"])
@pytest.mark.parametrize("m", [23, 0])
def test_render_f32_is_the_f32_of_the_f64_product(monkeypatch, rng, dtype, rows, m):
    """The render is within the f32 GEMM rounding bound of the f64 product
    (not necessarily its f32 rounding)."""
    n, r = 12, 9
    if rows is not None:  # 23 rows: four blocks of 5 and one of 3, or 23 blocks of 1
        # a block's rows are 4 n bytes of output and 8 r of f64 piece
        monkeypatch.setattr(merge_module, "_RENDER_BLOCK_BYTES", 4 * max(n, 2 * r) * rows)
    left, right = rng.standard_normal((m, r)), rng.standard_normal((r, n))
    base, mode, base_values = None, "delta", None
    if dtype is not None:
        base, mode = {"w": TensorRecord.from_array("w", rng.standard_normal((m, n)), dtype)}, "fused"
        base_values = base["w"].to_array()
    blocks = list(_render_f32(records(left), right, base and base["w"]))
    # a tensor of no rows is one empty block
    assert len(blocks) == (1 if rows is None or m == 0 else -(-m // rows))
    assert all(np.shares_memory(b, blocks[0]) for b in blocks if b.size)  # one reused buffer
    joined = np.concatenate([b.copy() for b in _render_f32(records(left), right, base and base["w"])])
    assert joined.dtype == np.float32 and joined.shape == (m, n)
    assert_within_render_bound(joined, left, right, base_values)
    # layer_outputs joins copies of the same blocks, so no block's reuse shows
    got = layer_outputs("w", left, right, mode, base=base)["w"]
    assert np.array_equal(got, joined)


@pytest.mark.parametrize("dtype", [None, "bf16"])
@pytest.mark.parametrize("r", [16, 64])
@pytest.mark.parametrize("m, n", [(3000, 700), (777, 1500)])
def test_render_f32_bound_holds_at_full_block_size(rng, m, n, r, dtype):
    # shapes whose row blocks BLAS splits differently from one whole product
    left, right = rng.standard_normal((m, r)), rng.standard_normal((r, n))
    base = None if dtype is None else TensorRecord.from_array("w", rng.standard_normal((m, n)), dtype)
    blocks = [b.copy() for b in _render_f32(records(left), right, base)]
    rows = merge_module._RENDER_BLOCK_BYTES // (4 * n)
    assert [len(b) for b in blocks] == [min(rows, m - i) for i in range(0, m, rows)]
    assert_within_render_bound(np.concatenate(blocks), left, right, base and base.to_array())


def test_render_f32_rescales_terms_out_of_f32_range(rng):
    # left * 2^-200 underflows f32 and right * 2^200 overflows it, but their
    # f64 product is ordinary; the power-of-two rescale renders it
    left = np.ldexp(rng.standard_normal((23, 9)), -200)
    right = np.ldexp(rng.standard_normal((9, 12)), 200)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(left.astype(np.float32) @ right.astype(np.float32)).all()
    blocks = [b.copy() for b in _render_f32(records(left), right)]
    assert_within_render_bound(np.concatenate(blocks), left, right)


def whole_left_render(left, right, rows):
    """The render's f32 blocks as made before it read left in pieces: all of
    the f64 left rescaled into one f32 array, then one GEMM per block of rows."""
    _, exp = np.frexp(np.abs(right).max(axis=1))
    right = np.ldexp(right, -exp[:, None], out=np.empty(right.shape, np.float32))
    with np.errstate(over="ignore", invalid="ignore"):
        left = np.ldexp(left, exp, out=np.empty(left.shape, np.float32))
        return np.concatenate([left[i : i + rows] @ right for i in range(0, len(left), rows)])


@pytest.mark.parametrize("dtype", ["bf16", "f16", "f32", "f64"])
@pytest.mark.parametrize("m", [5, 8, 19], ids=["under_a_block", "one_block", "blocks"])
def test_render_f32_from_row_pieces_is_the_whole_left_render_bitwise(monkeypatch, rng, dtype, m):
    """Two B records of ranks 3 and 5, rendered in blocks of 8 rows from pieces
    of 16, give the bits of the render from the whole f32 left: one piece
    shorter than a block, one of one block, and pieces of two blocks and of
    3 rows. Term 0 is rescaled into f32's subnormal range, term 1 past f32's
    max in the even rows, and term 2 by 2^-19 or so, which in f16 would
    round: each piece is widened to f64 first."""
    n, rows = 24, 8
    monkeypatch.setattr(merge_module, "_RENDER_BLOCK_BYTES", 4 * n * rows)  # n >= 2 R: blocks of 8 rows
    monkeypatch.setattr(merge_module, "_BASE_PIECE_BYTES", 8 * 8 * 2 * rows)  # pieces of 16 rows of R = 8
    pieces = []
    monkeypatch.setattr(merge_module, "_pieces", lambda left, step: pieces.append(step) or _pieces(left, step))
    raw = rng.standard_normal((m, 8))
    raw[1::2, 1] *= 2.0**-12
    b = [TensorRecord.from_array("b", raw[:, :3], dtype), TensorRecord.from_array("b", raw[:, 3:], dtype)]
    right = rng.standard_normal((8, n)) * np.ldexp(1.0, [-140, 129, -21, 0, 0, 0, 0, 0])[:, None]
    left = np.hstack([rec.to_array() for rec in b])
    want = whole_left_render(left, right, rows)
    blocks = [block.copy() for block in _render_f32(b, right.copy())]
    assert pieces == [16] and [len(block) for block in blocks] == [min(rows, m - i) for i in range(0, m, rows)]
    got = np.concatenate(blocks)
    assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
    assert np.isinf(got[::2]).any() and np.isfinite(got[1::2]).all()  # term 1 leaves f32 in the even rows
    e = np.frexp(np.abs(right).max(axis=1))[1]
    assert e[0] < -126 and e[2] < -14  # into f32's subnormals; into f16's
    if dtype == "f16":
        stored = b[0].values()[:, 2]
        in_f16 = np.ldexp(stored, e[2]).astype(np.float32)
        assert not np.array_equal(in_f16, np.ldexp(stored.astype(np.float64), e[2]))


def _rss_file_kb() -> int | None:
    """RssFile of this process (resident pages of mapped files), in kB."""
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        return None
    return next((int(line.split()[1]) for line in status.splitlines() if line.startswith("RssFile:")), None)


@pytest.mark.skipif(_rss_file_kb() is None, reason="needs RssFile in /proc/self/status")
def test_merge_keeps_only_the_current_layers_adapter_pages(tmp_path, rng):
    # 2 adapters of 32 layers of 1024 x 1024 at rank 16 in f32: 8 MB of
    # files, 16x one layer's f64 factors. With the adapter set alive after
    # loading and after a merge, the resident pages of mapped files must not
    # have grown by half of them: both read each layer and keep no pages.
    keys, shape, rank = [f"layer{i:02d}" for i in range(32)], (1024, 1024), 16
    files = []
    for i in range(2):
        files.append(tmp_path / f"adapter{i}.safetensors")
        save_checkpoint(make_adapter_records(keys, rank, shape, rng), files[-1])
    total = sum(f.stat().st_size for f in files)
    assert total >= 8 * len(files) * 8 * rank * sum(shape)
    merge_adapter_set(extract_adapters(files))  # fault in the library code a merge runs
    before = _rss_file_kb()
    adapters = extract_adapters(files)  # checks every value, so reads every page
    loaded = (_rss_file_kb() - before) * 1024
    merged = merge_adapter_set(adapters)
    merged_too = (_rss_file_kb() - before) * 1024
    assert len(merged) == len(keys) and adapters.n == 2
    assert loaded < total // 2 and merged_too < total // 2


@pytest.mark.skipif(_rss_file_kb() is None, reason="needs RssFile in /proc/self/status")
def test_fused_render_keeps_no_base_file_pages(tmp_path, rng, monkeypatch):
    # a 16 MB bf16 base layer of 4096 x 2048, rendered in 32 MB /
    # _RENDER_BLOCK_BYTES blocks (64 of 64 rows, each 256 KB of stored base
    # rows): the resident pages of mapped files, sampled after each read of
    # base rows and at each block, must stay within 1 MB of where they
    # started, so no block holds file pages
    m, n = 4096, 2048
    path = tmp_path / "base.safetensors"
    words = rng.integers(0, 0x3F80, size=m * n, dtype=np.uint16).tobytes()  # finite bf16 in [0, 1)
    save_checkpoint({"w": TensorRecord("w", "bf16", (m, n), words)}, path)
    assert path.stat().st_size >= 16 << 20
    base = load_checkpoint(path)["w"]
    left, right = rng.standard_normal((m, 4)), rng.standard_normal((4, n))
    for _ in _render_f32(records(left[:8]), right, base.rows(0, 8)):  # fault in the library code a render runs
        pass
    before, growth, read = _rss_file_kb(), [], TensorRecord.values

    def sampled_read(record, *args, **kwargs):
        values = read(record, *args, **kwargs)
        growth.append((_rss_file_kb() - before) * 1024)
        return values

    monkeypatch.setattr(TensorRecord, "values", sampled_read)
    blocks = 0
    for _ in _render_f32(records(left), right, base):
        growth.append((_rss_file_kb() - before) * 1024)
        blocks += 1
    assert blocks == 4 * m * n // merge_module._RENDER_BLOCK_BYTES and max(growth) < 1 << 20, growth


def lowrank_factors(key, left, right, rank):
    """The f64 rank-`rank` factors of left @ right, checked to be what layer_outputs writes in f32."""
    out = layer_outputs(key, left, right, "lowrank", rank)
    assert list(out) == [key + ".lora_A.weight", key + ".lora_B.weight"]
    b, a = truncated(left, right, rank)
    for written, factor in ((out[key + ".lora_B.weight"], b), (out[key + ".lora_A.weight"], a)):
        assert written.dtype == np.float32
        assert np.array_equal(written, factor.astype(np.float32))
    return b, a


def test_resolve_base_key_variants():
    base = {"x.weight": 1, "y": 2}
    assert resolve_base_key(base, "x") == "x.weight"
    assert resolve_base_key(base, "y") == "y"
    with pytest.raises(AlignmentError):
        resolve_base_key(base, "z")


def test_resolve_base_key_strips_peft_prefix():
    base = {"x.weight": 1, "y": 2, "base_model.model.z": 3, "z": 4}
    assert resolve_base_key(base, "base_model.model.x") == "x.weight"
    assert resolve_base_key(base, "base_model.model.y") == "y"
    assert resolve_base_key(base, "base_model.model.z") == "base_model.model.z"  # verbatim wins
    for key in ("model.x", "base_model.x", "base_model.model.w"):
        with pytest.raises(AlignmentError, match=key):
            resolve_base_key(base, key)


def test_lowrank_output_refactorizes(adapter_files):
    adapters = extract_adapters(adapter_files)
    merged = merge_adapter_set(adapters, config=MergeConfig(ortho=None))
    for key, (left, right, _) in merged.items():
        b, a = lowrank_factors(key, left, right, 12)
        assert b.shape == (16, 12) and a.shape == (12, 12)
        # full column rank requested, so the refactorization is exact
        assert np.linalg.norm(b @ a - left @ right) <= 1e-9 * np.linalg.norm(left @ right)


def test_merge_determinism_across_calls(adapter_files):
    adapters = extract_adapters(adapter_files)
    m1 = merge_adapter_set(adapters, config=MergeConfig())
    m2 = merge_adapter_set(adapters, config=MergeConfig())
    for key in m1:
        assert np.array_equal(m1[key][0] @ m1[key][1], m2[key][0] @ m2[key][1])


def degenerate_group(rng, m, n, ranks):
    """Mixed-rank layers; in the second, B A has a zero column and units below decouple's floor."""
    layers = [make_layer(rng, m=m, n=n, rank=r, scaling=0.5 + i) for i, r in enumerate(ranks)]
    b, a, _ = layers[1]
    a[:, 3] = 0.0
    a[:, 5] *= 1e-14
    b[2, :] *= 1e-14
    return layers


@pytest.mark.parametrize("shape", [(20, 14), (8, 6)], ids=["tall", "wide"])
@pytest.mark.parametrize("mode", ["column", "row", "matrix"])
@pytest.mark.parametrize("ortho", [True, False], ids=["ortho", "no_ortho"])
def test_factored_merge_matches_dense_oracle(shape, mode, ortho):
    rng = np.random.default_rng(3)
    layers = degenerate_group(rng, *shape, ranks=(2, 4, 3))
    ortho_cfg = OrthoConfig() if ortho else None
    configs = [
        MergeConfig(magnitude_mode=mode, ortho=ortho_cfg),
        MergeConfig(magnitude_mode=mode, ortho=ortho_cfg, decouple_enabled=False),
        MergeConfig(ortho=None, decouple_enabled=False, lam=0.3),
        MergeConfig(ortho=None, decouple_enabled=False, lam=1 / 3),
    ]
    for cfg in configs:
        got = merged_delta(layers, cfg)
        want = dense_merge_delta(layers, cfg)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("shape", [(20, 14), (8, 6), (20, 6)], ids=["tall", "wide", "tall_B_wide_A"])
@pytest.mark.parametrize("scaled", [False, True], ids=["unit", "scaled"])
def test_merge_descent_is_orthogonalize_groups(shape, scaled):
    """The merge's descent on its R x R Grams gives the stats of
    orthogonalize_group on the explicit [s_i B_i] and [A_i^T] groups: the
    same bits at unit scalings, within 1e-12 relative at s_i = 0.5 + i,
    where the merge scales the Gram rather than B."""
    rng = np.random.default_rng(11)
    layers = [
        make_layer(rng, *shape, rank=r, scaling=0.5 + i if scaled else 1.0) for i, r in enumerate((2, 4, 3))
    ]
    got = merged_factors(layers, MergeConfig())[2]
    want = {
        "B": orthogonalize_group([s * b for b, _, s in layers])[1],
        "A": orthogonalize_group([a.T for _, a, _ in layers])[1],
    }
    for group in ("B", "A"):
        g, w = got[group], want[group]
        assert g.steps_taken > 0
        if not scaled:
            assert g == w
            continue
        assert (g.steps_taken, g.trials, g.stop_reason) == (w.steps_taken, w.trials, w.stop_reason)
        for field in ("initial_lo", "final_lo", "per_member_rel_perturbation", "lo_trajectory"):
            np.testing.assert_allclose(getattr(g, field), getattr(w, field), rtol=1e-12, atol=0)


@pytest.mark.parametrize("mode", ["column", "row"])
@pytest.mark.parametrize("shape", [(11008, 4096), (4096, 11008)], ids=["gate_proj", "down_proj"])
def test_merge_layer_peak_memory_at_model_shapes(shape, mode):
    """4 f64 rank-16 adapters of a Llama-2-7B MLP shape (R = 64), merged by
    merged_factors (write_merged's merge, left joined into one m x R array;
    row mode forms another): the merge holds its two stacks and at most one
    more copy of one of them at a time, so its tracemalloc peak stays below
    1.9 times the decoded factors' bytes. Per-adapter scaled copies of B and
    hstack / hsplit round trips of the m x R side took it above 2 times."""
    rng = np.random.default_rng(0)
    layers = [make_layer(rng, *shape, rank=16) for _ in range(4)]
    config = MergeConfig(magnitude_mode=mode)
    tracemalloc.start()
    try:
        left, _, _ = merged_factors(layers, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert left.shape == (shape[0], 64)
    factors = sum(b.nbytes + a.nbytes for b, a, _ in layers)
    assert peak < 1.9 * factors, (peak / factors, peak)


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 511, 512, 700])
def test_times_forms_the_product_in_the_given_buffer(rng, n):
    # a's column blocks (256 wide, the last taking the rest) are replaced by
    # m times them, each entry within the f64 GEMM rounding bound of m @ a;
    # a wide m of k rows replaces a's first k rows and leaves the rest
    m, a = rng.standard_normal((6, 6)), rng.standard_normal((6, n))
    for factor in (m, m.T, m[:4]):  # C- and F-ordered, as the merge passes both, and lowrank's wide one
        given, k = a.copy(), len(factor)
        got = _times(factor, given)
        assert got is given and np.array_equal(got[k:], a[k:])
        assert np.all(np.abs(got[:k] - factor @ a) <= 6 * np.finfo(np.float64).eps * (np.abs(factor) @ np.abs(a)))


@pytest.fixture(scope="module")
def model_layer_files(tmp_path_factory):
    """(m, n, count) -> count (default 4) bf16 rank-16 adapters of one m x n
    layer, made once per shape and count: 11008 x 4096 is a Llama-2-7B
    gate_proj, 4096 x 11008 its down_proj."""
    made = {}

    def files(m, n, count=4):
        if (m, n, count) not in made:
            d, rng = tmp_path_factory.mktemp(f"layer{m}x{n}x{count}"), np.random.default_rng(0)
            made[m, n, count] = [d / f"adapter{i}.safetensors" for i in range(count)]
            for path in made[m, n, count]:
                save_checkpoint(make_adapter_records(["l"], 16, (m, n), rng, dtype="bf16"), path)
        return made[m, n, count]

    return files


GATE, DOWN = (11008, 4096), (4096, 11008)


@pytest.mark.parametrize(
    "mode, rank, shape, bound",
    [("delta", None, GATE, 0.6), ("fused", None, GATE, 0.6), ("delta", None, DOWN, 1.25),
     ("fused", None, DOWN, 1.25), ("lowrank", 16, GATE, 0.6), ("lowrank", 16, DOWN, 1.15),
     ("lowrank", 64, GATE, 0.75), ("lowrank", 64, DOWN, 1.45)],
    ids=["delta", "fused", "delta-down_proj", "fused-down_proj", "lowrank", "lowrank-down_proj",
         "lowrank64", "lowrank64-down_proj"],
)
def test_write_merged_peak_memory_at_a_model_shape(model_layer_files, tmp_path, mode, rank, shape, bound):
    """One write_merged of a gate_proj or down_proj layer holds its f64 A
    stack, in whose buffer the descent's products are formed, and reads B a
    piece at a time; then it holds the f32 copy of the merged right factor
    and one piece and render block (fused: plus base pieces, here of a zero
    bf16 base). Its tracemalloc peak, in units of the stacks' bytes
    8 (m + n) R, measures 0.42 (gate_proj) and 1.10 (down_proj, where the
    A stack alone is 0.73); each bound is the measurement plus 0.15 to 0.2.
    lowrank:r forms A in the balanced right's buffer and then B's rows a
    piece at a time: 0.43 and 0.98 at r = 16, 0.59 and 1.27 at r = R = 64.
    Decoding B whole into an m x R stack held next to A measured 1.24 and
    1.38 (delta and fused), and 1.28 and 2.03 (lowrank:16 and lowrank:64)."""
    adapters, (m, n) = extract_adapters(model_layer_files(*shape)), shape
    base = None
    if mode == "fused":
        save_checkpoint({"l.weight": TensorRecord("l.weight", "bf16", (m, n), bytes(2 * m * n))}, tmp_path / "b")
        base = load_checkpoint(tmp_path / "b")
    out = tmp_path / "out.safetensors"
    tracemalloc.start()
    try:
        write_merged(adapters, MergeConfig(), out, mode, rank, base=base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        out.unlink(missing_ok=True)
    stacks = 8 * sum(shape) * 64
    assert peak < bound * stacks, (peak / stacks, peak)


@pytest.mark.parametrize("mode, rank", [("delta", None), ("lowrank", 16)])
def test_write_merged_holds_no_m_by_R_stack(model_layer_files, tmp_path, mode, rank):
    """16 bf16 rank-16 adapters of a gate_proj (R = 256), where B's m x R is
    most of the stacks: a layer holds its A stack (0.27 of the stacks' bytes
    8 (m + n) R), the descent's R x R arrays and one piece of B, and its
    tracemalloc peak measures 0.45 in both modes. Decoding B into an m x R
    stack measured 1.26."""
    adapters, out = extract_adapters(model_layer_files(*GATE, count=16)), tmp_path / "out.safetensors"
    tracemalloc.start()
    try:
        write_merged(adapters, MergeConfig(), out, mode, rank)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        out.unlink(missing_ok=True)
    stacks = 8 * sum(GATE) * 256
    assert peak < 0.6 * stacks, (peak / stacks, peak)


@pytest.mark.parametrize("mode, rank", [("delta", None), ("lowrank", 16)])
def test_write_merged_a_descent_beside_few_gram_sized_arrays(model_layer_files, tmp_path, mode, rank):
    """16 bf16 rank-16 adapters of a 1024 x 1024 layer (R = 256), where an
    R x R array is 0.125 of the stacks' bytes 8 (m + n) R, so the descents
    set the peak. In every output mode the A group descends beside the B Gram,
    its own Gram and K, formed in E_B's buffer, and nothing is kept for the
    output stage: the tracemalloc peak measures 1.79 in both modes, and the
    bound is that plus half an R x R array. Keeping the Gram pass's G for
    lowrank output measured 1.91; holding G, E_B and I + E_B apart from K
    through the A descent measured 2.16."""
    adapters, out = extract_adapters(model_layer_files(1024, 1024, count=16)), tmp_path / "out.safetensors"
    tracemalloc.start()
    try:
        write_merged(adapters, MergeConfig(), out, mode, rank)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        out.unlink(missing_ok=True)
    stacks = 8 * 2048 * 256
    assert peak < 1.85 * stacks, (peak / stacks, peak)


def lowrank_layers(rng):
    return [make_layer(rng, m=20, n=14, rank=r) for r in (2, 4, 3)]


@pytest.mark.parametrize("rank", [9, 10, 14])
def test_lowrank_exact_at_or_beyond_combined_rank(rank):
    layers = lowrank_layers(np.random.default_rng(5))
    left, right, _ = merged_factors(layers, MergeConfig())
    b, a = lowrank_factors("l", left, right, rank)
    delta = left @ right
    assert b.shape == (20, rank) and a.shape == (rank, 14)
    assert np.all(b[:, 9:] == 0.0) and np.all(a[9:] == 0.0)
    assert np.linalg.norm(b @ a - delta) <= 1e-12 * np.linalg.norm(delta)


@pytest.mark.parametrize("rank", [1, 4, 8])
def test_lowrank_matches_dense_truncation_error(rank):
    layers = lowrank_layers(np.random.default_rng(6))
    left, right, _ = merged_factors(layers, MergeConfig())
    b, a = lowrank_factors("l", left, right, rank)
    delta = left @ right
    db, da = svd_truncate(delta, rank)
    err = np.linalg.norm(b @ a - delta)
    dense_err = np.linalg.norm(db @ da - delta)
    assert err == pytest.approx(dense_err, rel=1e-10)
    # same best approximation, not just the same error
    assert np.linalg.norm(b @ a - db @ da) <= 1e-9 * np.linalg.norm(delta)


def hard_stacks():
    """(left, right) stacks of ill-scaled, ill-conditioned and rank-deficient merges."""
    rng = np.random.default_rng(17)
    g = rng.standard_normal
    b, a = g((20, 3)), g((3, 14))
    cases = {"wide_R": (g((20, 48)), g((48, 14))), "identical": (np.hstack([b] * 4), np.vstack([a] * 4))}
    left, right = g((20, 12)), g((12, 14))
    p = 2.0 ** np.where(np.arange(12) % 2, 300, -300)
    cases["terms_2^300"] = left * p, right / p[:, None]
    left, right = g((20, 12)), g((12, 14))
    cases["adapter_1e-9"] = left * np.repeat([1, 1e-9, 1], 4), right * np.repeat([1, 1e9, 1], 4)[:, None]
    left, right = g((20, 12)), g((12, 14))
    cases["stacks_1e150"] = left * 1e150, right * 1e150
    cases["left_1e-200"] = left * 1e-200, right
    cases["zero_left"] = np.zeros_like(left), right
    q, v = np.linalg.qr(g((20, 12)))[0], np.linalg.qr(g((12, 12)))[0]
    cases["cond_1e12"] = (q * np.logspace(0, -12, 12)) @ v.T, right
    return cases


@pytest.mark.parametrize("case", list(hard_stacks()))
def test_truncated_factors_hard_inputs(case):
    """Against the dense f64 truncation T_r of left @ right, at r = 4 and
    r = min(R, m, n), the factors are finite and
    ||B A - T_r||_F <= 8 eps32 sum_k ||left[:, k]|| ||right[k]||.
    The sum is unchanged by rescaling a rank-1 term, so it does not let a
    term that is large in one stack and small in the other through."""
    left, right = hard_stacks()[case]
    scale = (np.hypot.reduce(left, axis=0) * np.hypot.reduce(right, axis=1)).sum()
    for r in (4, min(*left.shape, right.shape[1])):
        b, a = truncated(left, right, r)
        assert np.isfinite(b).all() and np.isfinite(a).all()
        err = b @ a - np.matmul(*svd_truncate(left @ right, r))
        assert np.linalg.norm(err / scale) <= 8 * EPS32 if scale else not err.any()


def test_truncated_factors_term_past_f64_is_an_infinite_b(rng):
    # the product 1e400 has no f64 factors; B overflows quietly, A stays finite
    left, right = rng.standard_normal((5, 2)), rng.standard_normal((2, 4))
    left[:, 0] *= 1e200
    right[0] *= 1e200
    b, a = truncated(left, right, 2)
    assert not np.isfinite(b).all() and np.isfinite(a).all()


def test_lowrank_rank_beyond_shape_rejected():
    layers = lowrank_layers(np.random.default_rng(7))
    left, right, _ = merged_factors(layers, MergeConfig())
    with pytest.raises(ValueError, match="out of range"):
        layer_outputs("l", left, right, "lowrank", 15)


@pytest.mark.parametrize("mode, rank", [("delta", None), ("fused", None), ("lowrank", 3)])
def test_write_merged_writes_what_the_cli_writes(adapter_files, base_file, tmp_path, capsys, mode, rank):
    adapters = extract_adapters(adapter_files)
    base = load_checkpoint(base_file) if mode == "fused" else None
    library, cli_out = tmp_path / "library.safetensors", tmp_path / "cli.safetensors"
    stats = write_merged(adapters, MergeConfig(), library, mode, rank, base)
    argv = ["merge", *map(str, adapter_files), "--base", str(base_file), "--output", str(cli_out)]
    assert main([*argv, "--output-mode", f"lowrank:{rank}" if rank else mode]) == 0
    assert library.read_bytes() == cli_out.read_bytes()
    summary = json.loads(capsys.readouterr().out)
    assert sorted(stats) == sorted(summary["layers"]) == adapters.layer_keys
    for key, entry in stats.items():
        assert sorted(entry["ortho"]) == ["A", "B"]
        assert entry == summary["layers"][key]


def test_write_merged_key_collision_fails_before_any_merge(tmp_path, rng, factor_reads):
    # layers "a" and "a.weight" both resolve to the base's "a.weight"
    adapter = tmp_path / "ad.safetensors"
    save_checkpoint(make_adapter_records(["a", "a.weight"], 2, (6, 5), rng), adapter)
    base = tmp_path / "base.safetensors"
    save_checkpoint({"a.weight": TensorRecord.from_array("a.weight", rng.standard_normal((6, 5)), "f32")}, base)
    adapters = extract_adapters([adapter])
    out = tmp_path / "fused.safetensors"
    out.write_bytes(b"occupied")
    with pytest.raises(AlignmentError, match=r"'a'.*'a\.weight'.*'a\.weight'"):
        write_merged(adapters, MergeConfig(), out, "fused", base=load_checkpoint(base))
    assert factor_reads == []
    assert out.read_bytes() == b"occupied"


def test_write_merged_non_finite_block_leaves_target(tmp_path, rng):
    # finite f64 factors whose merged delta overflows f32; layer "a" (all zeros) is written first
    records = make_adapter_records(["a", "l"], rank=2, full_shape=(4, 3), rng=rng, dtype="f64")
    records["a.lora_B.weight"] = TensorRecord.from_array("a.lora_B.weight", np.zeros((4, 2)), "f64")
    path = tmp_path / "big.safetensors"
    save_checkpoint(records, path)
    out = tmp_path / "o.safetensors"
    out.write_bytes(b"occupied")
    config = MergeConfig(ortho=None, decouple_enabled=False, lam=1e300)
    with pytest.raises(ValueError, match="'l' is not finite"):
        write_merged(extract_adapters([path]), config, out)
    assert out.read_bytes() == b"occupied"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.safetensors", "o.safetensors"]
