import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from domerge import cli
from domerge import merge as merge_module
from domerge.checkpoint import AdapterSet, TensorRecord, load_checkpoint, save_checkpoint
from domerge.cli import build_parser, main

from conftest import LAYER_KEYS, make_adapter_records
from oracles import assert_within_render_bound


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_merge_defaults_and_summary(adapter_files, tmp_path, capsys):
    out = tmp_path / "m.safetensors"
    code, stdout, _ = run(
        capsys, "merge", *(str(p) for p in adapter_files), "--output", str(out)
    )
    assert code == 0
    assert out.exists()
    summary = json.loads(stdout)
    assert summary["method"] == "do_merging"
    assert summary["lambda"] == pytest.approx(1 / 9)
    assert summary["magnitude_mode"] == "column"
    assert summary["ortho_enabled"] and summary["decouple_enabled"]
    assert len(summary["layers"]) == 4
    for entry in summary["layers"].values():
        assert entry["ortho"]["B"]["final_lo"] <= entry["ortho"]["B"]["initial_lo"]


def test_merge_summary_reports_stop_reasons(adapter_files, tmp_path, capsys):
    out = tmp_path / "m.safetensors"
    argv = ["merge", *(str(p) for p in adapter_files), "--output", str(out), "--force"]
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    groups = [g for entry in json.loads(stdout)["layers"].values() for g in entry["ortho"].values()]
    assert len(groups) == 2 * len(LAYER_KEYS)
    for g in groups:
        assert g["stop_reason"] in {"converged", "step_cap", "stalled"}
        assert g["trials"] >= g["steps_taken"]
    code, again, _ = run(capsys, *argv)
    assert code == 0
    assert again == stdout


@pytest.mark.parametrize(
    "method, stages, lam",
    [("do_merging", True, 1 / 9), ("task_arithmetic", False, 1 / 9), ("average", False, 1 / 3)],
)
def test_merge_summary_reports_applied_stages(adapter_files, tmp_path, capsys, method, stages, lam):
    out = tmp_path / "m.safetensors"
    code, stdout, _ = run(
        capsys, "merge", *(str(p) for p in adapter_files), "--method", method, "--output", str(out)
    )
    assert code == 0
    summary = json.loads(stdout)
    assert summary["ortho_enabled"] is stages and summary["decouple_enabled"] is stages
    assert summary["lambda"] == lam
    assert all(("ortho" in entry) is stages for entry in summary["layers"].values())


@pytest.mark.parametrize("method", ["task_arithmetic", "average"])
def test_merge_baseline_preset_ignores_stage_flags(adapter_files, tmp_path, capsys, method):
    # a baseline runs neither stage, so the stages' own flags change no output bit
    out = tmp_path / "m.safetensors"
    argv = ["merge", *(str(p) for p in adapter_files), "--method", method, "--output", str(out), "--force"]
    code, bare, _ = run(capsys, *argv)
    assert code == 0
    written = out.read_bytes()
    code, flagged, _ = run(capsys, *argv, "--ortho-steps", "5", "--ortho-budget", "0.2", "--magnitude-mode", "row")
    assert code == 0 and out.read_bytes() == written
    assert json.loads(flagged) == {**json.loads(bare), "magnitude_mode": "row"}  # the summary echoes the flag


def test_merge_average_rejects_lambda(adapter_files, tmp_path, capsys):
    out = tmp_path / "m.safetensors"
    code, _, err = run(
        capsys, "merge", *(str(p) for p in adapter_files), "--method", "average",
        "--lambda", "5", "--output", str(out),
    )
    assert code == 2
    assert "average" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, field",
    [
        pytest.param(["--lambda", "nan"], "lam", id="nan"),
        pytest.param(["--lambda", "inf"], "lam", id="inf"),
        pytest.param(["--ortho-budget", "1.5"], "max_rel_perturbation", id="ortho-budget"),
        pytest.param(["--ortho-steps", "0"], "max_steps", id="ortho-steps"),
        pytest.param(["--method", "task_arithmetic", "--ortho-steps", "0"], "max_steps", id="preset-ortho-steps"),
        pytest.param(["--no-ortho", "--ortho-steps", "0"], "max_steps", id="no-ortho-steps"),
        pytest.param(["--no-ortho", "--ortho-budget", "5"], "max_rel_perturbation", id="no-ortho-budget"),
    ],
)
def test_merge_rejects_non_finite_lambda_before_reading(tmp_path, capsys, flags, field):
    out = tmp_path / "m.safetensors"
    # the adapter does not exist: a usage error must come before any read
    code, _, err = run(
        capsys, "merge", str(tmp_path / "absent.safetensors"), *flags, "--output", str(out)
    )
    assert code == 2, err
    assert field in err
    assert not out.exists()


def test_merge_checkpoint_without_lora_pairs_exit_3(adapter_files, base_file, tmp_path, capsys):
    # a base checkpoint passed as an adapter by mistake
    out = tmp_path / "m.safetensors"
    for inputs in ([base_file], [adapter_files[0], base_file]):
        code, _, err = run(capsys, "merge", *(str(p) for p in inputs), "--output", str(out))
        assert code == 3, err
        assert str(base_file) in err and "lora_A" in err
        assert not out.exists()


def test_readme_documents_every_long_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    missing = [
        f"{name} {option}"
        for name in ("merge", "diagnose", "verify")
        for action in commands.choices[name]._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
        if option.startswith("--") and not re.search(re.escape(option) + r"(?![\w-])", readme)
    ]
    assert not missing, f"options missing from README.md: {missing}"


def test_merge_rerun_byte_identical(adapter_files, tmp_path, capsys):
    out1, out2 = tmp_path / "a.safetensors", tmp_path / "b.safetensors"
    args = [str(p) for p in adapter_files]
    assert run(capsys, "merge", *args, "--output", str(out1))[0] == 0
    assert run(capsys, "merge", *args, "--output", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_merge_single_adapter_task_arithmetic_identity(adapter_files, tmp_path, capsys):
    out = tmp_path / "ta.safetensors"
    code, _, _ = run(
        capsys, "merge", str(adapter_files[0]), "--method", "task_arithmetic",
        "--lambda", "1.0", "--output", str(out),
    )
    assert code == 0
    source = load_checkpoint(adapter_files[0])
    merged = load_checkpoint(out)
    for key, rec in merged.items():
        b = source[key + ".lora_B.weight"].to_array()
        a = source[key + ".lora_A.weight"].to_array()
        # output is the f32 product, within the GEMM rounding bound of the f64 one
        assert_within_render_bound(rec.values(), b, a)


def test_merge_fused_without_base_exit_2(adapter_files, tmp_path, capsys):
    code, _, err = run(
        capsys, "merge", str(adapter_files[0]), "--output-mode", "fused",
        "--output", str(tmp_path / "f.safetensors"),
    )
    assert code == 2
    assert "--base" in err


def test_merge_fused_keys_follow_base(adapter_files, base_file, tmp_path, capsys):
    out = tmp_path / "fused.safetensors"
    code, _, _ = run(
        capsys, "merge", *(str(p) for p in adapter_files), "--base", str(base_file),
        "--output-mode", "fused", "--output", str(out),
    )
    assert code == 0
    keys = set(load_checkpoint(out))
    assert keys == {k for k in load_checkpoint(base_file)}


def test_merge_fused_base_shape_conflict_exit_3(adapter_files, tmp_path, capsys, rng):
    shapes = {key + ".weight": (16, 12) for key in LAYER_KEYS}
    shapes["enc.0.attn.v.weight"] = (12, 16)
    base = tmp_path / "base.safetensors"
    save_checkpoint(
        {k: TensorRecord.from_array(k, rng.standard_normal(s), "f32") for k, s in shapes.items()}, base
    )
    out = tmp_path / "fused.safetensors"
    code, _, err = run(
        capsys, "merge", *(str(p) for p in adapter_files), "--base", str(base),
        "--output-mode", "fused", "--output", str(out),
    )
    assert code == 3
    assert "'enc.0.attn.v.weight'" in err and "(12, 16)" in err
    assert not out.exists()


def test_merge_fused_base_missing_layer_exit_3_before_any_merge(adapter_files, tmp_path, capsys, rng, factor_reads):
    weights = [key + ".weight" for key in LAYER_KEYS if key != "enc.1.ffn.down"]
    base = tmp_path / "base.safetensors"
    save_checkpoint(
        {k: TensorRecord.from_array(k, rng.standard_normal((16, 12)), "f32") for k in weights}, base
    )
    out = tmp_path / "fused.safetensors"
    code, _, err = run(
        capsys, "merge", *(str(p) for p in adapter_files), "--base", str(base),
        "--output-mode", "fused", "--output", str(out),
    )
    assert code == 3
    assert "'enc.1.ffn.down'" in err
    assert not out.exists()
    assert factor_reads == []


def test_merge_non_finite_last_layer_of_last_adapter_exit_3_before_any_merge(
    adapter_files, tmp_path, capsys, rng, factor_reads
):
    # factors are decoded only when their layer is merged, but checked at load
    last_layer = sorted(LAYER_KEYS)[-1]
    records = make_adapter_records(LAYER_KEYS, rank=4, full_shape=(16, 12), rng=rng)
    key = last_layer + ".lora_A.weight"
    a = records[key].to_array()
    a[-1, -1] = np.inf
    records[key] = TensorRecord.from_array(key, a, "f32")
    last = tmp_path / "last.safetensors"
    save_checkpoint(records, last)
    out = tmp_path / "m.safetensors"
    code, _, err = run(capsys, "merge", *map(str, adapter_files), str(last), "--output", str(out))
    assert code == 3
    assert last.name in err and repr(last_layer) in err and "non-finite" in err
    assert not out.exists()
    assert factor_reads == []


def _logged_save(log):
    """A save_checkpoint that appends (key, rows) of each record it is given to log."""
    real_save = merge_module.save_checkpoint

    def logged_save(records, path, layout=None):
        def logged():
            for key, record in records:
                log.append((key, record.shape[0]))
                yield key, record

        real_save(logged(), path, layout=layout)

    return logged_save


def test_merge_writes_each_layer_before_merging_the_next(tmp_path, capsys, rng, monkeypatch, factor_reads):
    # lowrank output: the merge's Gram pass and the truncation's own Gram pass
    # read B, A is written, and then B's rows are read again and written; each
    # read of B is one piece of 6 rows
    keys = ["l0", "l1", "l2"]
    adapters = []
    for i in range(2):
        adapters.append(tmp_path / f"adapter{i}.safetensors")
        save_checkpoint(make_adapter_records(keys, 2, (6, 5), rng), adapters[-1])
    alive, held = [], []
    real_factors, real_pieces = AdapterSet.factors, merge_module._pieces

    def logged_factors(self, key):
        held.append(sum(ref() is not None for ref in alive))
        b, a, s, ranks = real_factors(self, key)
        alive.append(weakref.ref(a))  # the A stack, which becomes the merged right factor
        return b, a, s, ranks

    def logged_pieces(left, rows=None):
        for i, piece in real_pieces(left, rows):
            alive.append(weakref.ref(piece.base))  # the reused piece buffer
            yield i, piece

    monkeypatch.setattr(AdapterSet, "factors", logged_factors)
    monkeypatch.setattr(merge_module, "_pieces", logged_pieces)
    real_save = merge_module.save_checkpoint

    def logged_save(records, path, layout=None):
        def logged():
            for key, record in records:
                factor_reads.append(("write", key))
                yield key, record

        real_save(logged(), path, layout=layout)

    monkeypatch.setattr(merge_module, "save_checkpoint", logged_save)
    out = tmp_path / "lr.safetensors"
    code, _, err = run(
        capsys, "merge", *map(str, adapters), "--output-mode", "lowrank:2", "--output", str(out)
    )
    assert code == 0, err
    expected = []
    for key in keys:
        b = key + ".lora_B.weight"
        a = key + ".lora_A.weight"
        expected += [("factors", key), ("piece", b, 0), ("piece", b, 0), ("write", a)]
        expected += [("piece", b, 0), ("write", b)]
    assert factor_reads == expected
    assert held == [0, 0, 0]  # no earlier layer's A stack or piece of B is alive when the next is read


def test_merge_fused_output_key_collision_exit_3(tmp_path, capsys, rng):
    # layers "a" and "a.weight" both resolve to the base's "a.weight"
    adapter = tmp_path / "ad.safetensors"
    save_checkpoint(make_adapter_records(["a", "a.weight"], 2, (6, 5), rng), adapter)
    base = tmp_path / "base.safetensors"
    weight = TensorRecord.from_array("a.weight", rng.standard_normal((6, 5)), "f32")
    save_checkpoint({"a.weight": weight}, base)
    out = tmp_path / "fused.safetensors"
    code, _, err = run(
        capsys, "merge", str(adapter), "--base", str(base), "--output-mode", "fused",
        "--output", str(out),
    )
    assert code == 3
    assert "'a'" in err and "'a.weight'" in err and "both write output tensor 'a.weight'" in err
    assert not out.exists()


def test_merge_fused_peft_keys_follow_base(base_file, tmp_path, capsys, rng):
    # PEFT names adapter keys base_model.model.<module>.lora_A.weight; the base has <module>.weight
    peft, plain = [], []
    for i in range(2):
        records = make_adapter_records(LAYER_KEYS, rank=4, full_shape=(16, 12), rng=rng)
        prefixed = {
            "base_model.model." + k: TensorRecord("base_model.model." + k, r.dtype, r.shape, r.raw)
            for k, r in records.items()
        }
        plain.append(tmp_path / f"plain{i}.safetensors")
        peft.append(tmp_path / f"peft{i}.safetensors")
        save_checkpoint(records, plain[-1])
        save_checkpoint(prefixed, peft[-1])
    outs = []
    for paths in (peft, plain):
        outs.append(tmp_path / f"fused-{paths[0].stem}.safetensors")
        code, _, err = run(
            capsys, "merge", *map(str, paths), "--base", str(base_file),
            "--output-mode", "fused", "--output", str(outs[-1]),
        )
        assert code == 0, err
    assert set(load_checkpoint(outs[0])) == set(load_checkpoint(base_file))
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_merge_delta_ignores_corrupt_base(adapter_files, tmp_path, capsys):
    corrupt = tmp_path / "corrupt.safetensors"
    corrupt.write_bytes(b"garbage bytes here")
    plain, with_base = tmp_path / "plain.safetensors", tmp_path / "with_base.safetensors"
    args = [str(p) for p in adapter_files]
    assert run(capsys, "merge", *args, "--output", str(plain))[0] == 0
    assert run(capsys, "merge", *args, "--base", str(corrupt), "--output", str(with_base))[0] == 0
    assert plain.read_bytes() == with_base.read_bytes()


@pytest.mark.parametrize("over", ["adapter", "manifest", "base"])
def test_merge_output_over_an_input_exits_4_before_reading(
    adapter_files, base_file, tmp_path, capsys, monkeypatch, over
):
    # --force replaces an earlier output, never an input: that input would be lost
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([{"path": str(p)} for p in adapter_files]))
    out = {"adapter": adapter_files[0], "manifest": manifest, "base": base_file}[over]
    inputs = ["--manifest", str(manifest)] if over == "manifest" else [str(p) for p in adapter_files]
    before = {p: p.read_bytes() for p in [*adapter_files, manifest, base_file]}
    monkeypatch.setattr(cli, "extract_adapters", lambda *a, **k: pytest.fail("an adapter was read"))
    argv = ["merge", *inputs, "--output-mode", "fused", "--base", str(base_file), "--output", str(out), "--force"]
    code, stdout, err = run(capsys, *argv)
    assert code == 4 and stdout == ""
    assert err == f"domerge: error: --output {out} is one of the inputs; it would be overwritten\n"
    assert {p: p.read_bytes() for p in before} == before


def test_merge_fused_base_truncated_after_loading_exits_3(tmp_path, capsys, rng, monkeypatch):
    # a 1 MB base of 4 layers of 256 x 256 is cut to half its size after it
    # is loaded, so the last layers' rows lie in whole pages past its end:
    # exit 3 naming the base, nothing written
    keys, shape = [f"layer{i}" for i in range(4)], (256, 256)
    adapter, base = tmp_path / "adapter.safetensors", tmp_path / "base.safetensors"
    save_checkpoint(make_adapter_records(keys, 4, shape, rng), adapter)
    weights = [k + ".weight" for k in keys]
    save_checkpoint({k: TensorRecord.from_array(k, rng.standard_normal(shape), "f32") for k in weights}, base)
    stored = base.read_bytes()

    def load_then_truncate(path):
        records = load_checkpoint(path)
        os.truncate(path, len(stored) // 2)
        return records

    monkeypatch.setattr(cli, "load_checkpoint", load_then_truncate)
    out = tmp_path / "fused.safetensors"
    argv = ["merge", str(adapter), "--base", str(base), "--output-mode", "fused", "--output", str(out)]
    code, _, err = run(capsys, *argv)
    assert code == 3 and str(base) in err and "ends past the end of the file" in err
    assert not out.exists()
    base.write_bytes(stored)
    out.write_bytes(b"occupied")
    code, _, err = run(capsys, *argv, "--force")
    assert code == 3 and str(base) in err
    assert out.read_bytes() == b"occupied"
    assert sorted(p.name for p in tmp_path.iterdir()) == [adapter.name, base.name, out.name]


def test_cli_import_loads_no_scipy():
    # scipy.linalg alone takes 220-360 ms to import on a 2-vCPU VM, which every merge would pay;
    # verify's suites and the csv report writer load their modules when they run
    src = str(Path(__file__).resolve().parents[1] / "src")
    loaded = "[m in sys.modules for m in ('scipy', 'domerge.experiments', 'csv')]"
    child = subprocess.run(
        [sys.executable, "-c", f"import domerge.cli, sys; print({loaded})"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert child.stdout == "[False, False, False]\n"


_PEAK_RSS_CHILD = """
import sys
import domerge.cli
if sys.argv[1:]:
    assert domerge.cli.main(sys.argv[1:]) == 0
print([line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")][0])
"""


def _peak_rss_kb(*argv) -> int:
    """VmHWM of a child that imports the CLI and runs argv, read by the child itself."""
    child = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_CHILD, *argv], capture_output=True, text=True, check=True
    )
    return int(child.stdout.split()[-1])


def _has_vmhwm() -> bool:
    try:
        return "VmHWM:" in Path("/proc/self/status").read_text()
    except OSError:
        return False


@pytest.mark.skipif(not _has_vmhwm(), reason="needs VmHWM in /proc/self/status")
def test_merge_fused_peak_memory_is_bounded(tmp_path, rng):
    # a 16 MB bf16 base of 8 layers of 1024 x 1024; peak RSS above the
    # import's may hold the base once plus a few layers' f64 arrays
    keys, shape = [f"layer{i}" for i in range(8)], (1024, 1024)
    adapters = []
    for i in range(2):
        adapters.append(tmp_path / f"adapter{i}.safetensors")
        save_checkpoint(make_adapter_records(keys, 4, shape, rng), adapters[-1])
    base = tmp_path / "base.safetensors"
    weights = [k + ".weight" for k in keys]
    save_checkpoint(
        {k: TensorRecord.from_array(k, rng.standard_normal(shape), "bf16") for k in weights}, base
    )
    merged_kb = _peak_rss_kb(
        "merge", *map(str, adapters), "--base", str(base), "--method", "task_arithmetic",
        "--output-mode", "fused", "--output", str(tmp_path / "fused.safetensors"),
    )
    growth = (merged_kb - _peak_rss_kb()) * 1024
    layer_f64 = 8 * shape[0] * shape[1]
    assert growth <= base.stat().st_size + 4 * layer_f64


@pytest.mark.skipif(not _has_vmhwm(), reason="needs VmHWM in /proc/self/status")
def test_merge_delta_peak_memory_is_bounded(tmp_path, rng):
    # 4 layers of 2048 x 2048 at rank 4; peak RSS above the import's may
    # hold two f32 layers, which leaves no room for an m x n f64 array
    keys, shape = [f"layer{i}" for i in range(4)], (2048, 2048)
    adapters = []
    for i in range(2):
        adapters.append(tmp_path / f"adapter{i}.safetensors")
        save_checkpoint(make_adapter_records(keys, 4, shape, rng), adapters[-1])
    merged_kb = _peak_rss_kb(
        "merge", *map(str, adapters), "--method", "task_arithmetic",
        "--output", str(tmp_path / "delta.safetensors"),
    )
    growth = (merged_kb - _peak_rss_kb()) * 1024
    layer_f32 = 4 * shape[0] * shape[1]
    assert growth <= 2 * layer_f32


def _render_block_corpus(tmp_path, rng):
    """2 adapters of 2 layers of 4096 x 2048 at rank 4, and a bf16 base of
    the same layers; one f32 output tensor is 32 MB, 64x the 512 KB render block."""
    keys, shape = ["layer0", "layer1"], (4096, 2048)
    adapters = []
    for i in range(2):
        adapters.append(tmp_path / f"adapter{i}.safetensors")
        save_checkpoint(make_adapter_records(keys, 4, shape, rng), adapters[-1])
    base = tmp_path / "base.safetensors"
    weights = [k + ".weight" for k in keys]
    save_checkpoint(
        {k: TensorRecord.from_array(k, rng.standard_normal(shape), "bf16") for k in weights}, base
    )
    return [str(a) for a in adapters], str(base), shape


@pytest.mark.skipif(not _has_vmhwm(), reason="needs VmHWM in /proc/self/status")
@pytest.mark.parametrize("mode", ["delta", "fused"])
def test_merge_peak_memory_is_one_render_block(tmp_path, rng, mode):
    # Peak RSS above the import's may grow by half of one output tensor,
    # which leaves no room for a whole output tensor. A fused merge also
    # reads and widens the bf16 base's rows, and may grow by 3/4 of it:
    # still no room for a base layer widened to a 32 MB f32 array, or for
    # the 16 MB base layer held on top of the blocks.
    adapters, base, shape = _render_block_corpus(tmp_path, rng)
    argv = ["merge", *adapters, "--method", "task_arithmetic", "--output-mode", mode]
    if mode == "fused":
        argv += ["--base", base]
    merged_kb = _peak_rss_kb(*argv, "--output", str(tmp_path / "out.safetensors"))
    growth = (merged_kb - _peak_rss_kb()) * 1024
    layer_f32 = 4 * shape[0] * shape[1]
    assert growth <= layer_f32 * (3 if mode == "fused" else 2) // 4


@pytest.mark.skipif(not _has_vmhwm(), reason="needs VmHWM in /proc/self/status")
def test_merge_fused_peak_memory_is_the_delta_merges(tmp_path, rng):
    # the same adapters merged to delta and fused output: the fused merge
    # reads the base rows of each block in small pieces into two small
    # reused buffers, so its peak RSS may exceed the delta merge's by 2 MB
    adapters, base, _ = _render_block_corpus(tmp_path, rng)
    argv = ["merge", *adapters, "--method", "task_arithmetic", "--output", str(tmp_path / "out.safetensors")]
    delta_kb = _peak_rss_kb(*argv, "--force")
    fused_kb = _peak_rss_kb(*argv, "--force", "--output-mode", "fused", "--base", base)
    assert (fused_kb - delta_kb) * 1024 <= 2 << 20


def test_merge_lowrank_emits_factor_pairs(adapter_files, tmp_path, capsys):
    out = tmp_path / "lr.safetensors"
    code, _, _ = run(
        capsys, "merge", *(str(p) for p in adapter_files),
        "--output-mode", "lowrank:4", "--output", str(out),
    )
    assert code == 0
    keys = sorted(load_checkpoint(out))
    assert all(k.endswith(".lora_A.weight") or k.endswith(".lora_B.weight") for k in keys)
    assert len(keys) == 8


def test_merge_lowrank_bad_rank_exit_2(adapter_files, tmp_path, capsys):
    for mode in ("lowrank", "lowrank:0", "lowrank:x", "sideways"):
        code, _, _ = run(
            capsys, "merge", str(adapter_files[0]), "--output-mode", mode,
            "--output", str(tmp_path / "z.safetensors"),
        )
        assert code == 2


def test_merge_lowrank_rank_must_be_ascii_digits(tmp_path, capsys):
    # int() accepts all of these; the missing adapter shows that none gets as far as reading one
    missing = str(tmp_path / "absent.safetensors")
    for mode in ("lowrank:0_4", "lowrank:+4", "lowrank: 4", "lowrank:4 ", "lowrank:\u0664"):
        code, _, err = run(
            capsys, "merge", missing, "--output-mode", mode, "--output", str(tmp_path / "z.safetensors"),
        )
        assert code == 2, mode
        assert "invalid lowrank rank" in err


def test_merge_existing_output_needs_force(adapter_files, tmp_path, capsys):
    out = tmp_path / "m.safetensors"
    out.write_bytes(b"occupied")
    code, _, err = run(capsys, "merge", str(adapter_files[0]), "--output", str(out))
    assert code == 4
    assert "--force" in err
    code, _, _ = run(capsys, "merge", str(adapter_files[0]), "--output", str(out), "--force")
    assert code == 0
    assert out.read_bytes() != b"occupied"


def test_outputs_get_the_mode_open_gives(adapter_files, tmp_path, capsys):
    # 0o666 less the umask, as for the stdout file next to them, not 0o600
    out, report = tmp_path / "m.safetensors", tmp_path / "r.json"
    inputs = [str(p) for p in adapter_files]
    previous = os.umask(0o022)
    try:
        assert run(capsys, "merge", *inputs, "--output", str(out))[0] == 0
        modes = [out.stat().st_mode & 0o777]
        out.chmod(0o600)
        assert run(capsys, "merge", *inputs, "--output", str(out), "--force")[0] == 0
        modes.append(out.stat().st_mode & 0o777)
        assert run(capsys, "diagnose", *inputs, "--report", str(report))[0] == 0
        modes.append(report.stat().st_mode & 0o777)
    finally:
        os.umask(previous)
    assert modes == [0o644] * 3


def test_merge_no_adapters_exit_2(tmp_path, capsys):
    code, _, _ = run(capsys, "merge", "--output", str(tmp_path / "m.safetensors"))
    assert code == 2


def test_merge_manifest_and_positionals_conflict(adapter_files, tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([{"path": str(adapter_files[0])}]))
    code, _, _ = run(
        capsys, "merge", str(adapter_files[1]), "--manifest", str(manifest),
        "--output", str(tmp_path / "o.safetensors"),
    )
    assert code == 2


def test_merge_manifest_scaling_applied(adapter_files, tmp_path, capsys):
    plain_out = tmp_path / "plain.safetensors"
    scaled_out = tmp_path / "scaled.safetensors"
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([{"path": str(adapter_files[0]), "scaling": 2.0}]))
    base_args = ["--method", "task_arithmetic", "--lambda", "1.0"]
    assert run(capsys, "merge", str(adapter_files[0]), *base_args, "--output", str(plain_out))[0] == 0
    assert run(capsys, "merge", "--manifest", str(manifest), *base_args, "--output", str(scaled_out))[0] == 0
    for key, rec in load_checkpoint(scaled_out).items():
        plain = load_checkpoint(plain_out)[key].to_array()
        assert np.allclose(rec.to_array(), 2.0 * plain, rtol=1e-6)


def _bool_shape_adapter(path):
    """An adapter whose B factor declares its shape as [true, 4]."""
    header = json.dumps({
        "l.lora_B.weight": {"dtype": "F32", "shape": [True, 4], "data_offsets": [0, 16]},
        "l.lora_A.weight": {"dtype": "F32", "shape": [4, 3], "data_offsets": [16, 64]},
    }).encode()
    path.write_bytes(len(header).to_bytes(8, "little") + header + b"\0" * 64)
    return path


def test_merge_parse_failure_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.safetensors"
    bad.write_bytes(b"garbage bytes here")
    for adapter in (bad, _bool_shape_adapter(tmp_path / "bool.safetensors")):
        code, _, err = run(capsys, "merge", str(adapter), "--output", str(tmp_path / "o.safetensors"))
        assert code == 3, err
    assert "bad shape [True, 4]" in err


def test_merge_missing_file_exit_4(tmp_path, capsys):
    code, _, _ = run(
        capsys, "merge", str(tmp_path / "absent.safetensors"),
        "--output", str(tmp_path / "o.safetensors"),
    )
    assert code == 4


def test_merge_json_errors_are_structured(tmp_path, capsys):
    bad = tmp_path / "bad.safetensors"
    bad.write_bytes(b"garbage bytes here")
    code, _, err = run(
        capsys, "merge", str(bad), "--output", str(tmp_path / "o.safetensors"), "--json"
    )
    assert code == 3
    payload = json.loads(err)
    assert payload["error"]["type"] == "parse"
    assert payload["error"]["message"]


def test_merge_any_thread_count_is_byte_identical(adapter_files, tmp_path, capsys):
    out1, out3 = tmp_path / "t1.safetensors", tmp_path / "t3.safetensors"
    args = [str(p) for p in adapter_files]
    code, stdout1, _ = run(capsys, "merge", *args, "--output", str(out1))
    assert code == 0
    code, stdout3, _ = run(capsys, "merge", *args, "--threads", "3", "--output", str(out3))
    assert code == 0
    assert out1.read_bytes() == out3.read_bytes()
    assert stdout1.replace(str(out1), str(out3)) == stdout3
    out0 = tmp_path / "t0.safetensors"
    code, stdout0, _ = run(capsys, "merge", *args, "--threads", "0", "--output", str(out0))
    assert code == 0  # accepted and ignored
    assert out1.read_bytes() == out0.read_bytes()
    assert stdout1.replace(str(out1), str(out0)) == stdout0


def test_merge_threads_default_to_one():
    args = build_parser().parse_args(["merge", "a.safetensors", "--output", "o.safetensors"])
    assert args.threads == 1


@pytest.mark.parametrize(
    "flags",
    [("--method", "task_arithmetic"), (), ("--no-ortho",)],
    ids=["task_arithmetic", "default", "no_ortho"],
)
def test_merge_non_finite_scaling_exit_3(adapter_files, tmp_path, capsys, flags):
    manifest = tmp_path / "m.json"
    manifest.write_text(
        '[{"path": "%s"}, {"path": "%s", "scaling": NaN}]' % (adapter_files[0], adapter_files[1])
    )
    out = tmp_path / "o.safetensors"
    code, _, err = run(capsys, "merge", "--manifest", str(manifest), *flags, "--output", str(out))
    assert code == 3
    assert "entry 1" in err and adapter_files[1].name in err
    assert not out.exists()


def test_merge_non_numeric_scaling_exit_3(adapter_files, tmp_path, capsys):
    manifest = tmp_path / "m.json"
    entries = [{"path": str(adapter_files[0])}, {"path": str(adapter_files[1]), "scaling": "x"}]
    manifest.write_text(json.dumps(entries))
    out = tmp_path / "o.safetensors"
    code, _, err = run(capsys, "merge", "--manifest", str(manifest), "--output", str(out))
    assert code == 3
    assert "entry 1" in err and adapter_files[1].name in err and "'x'" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "payload", [b'\xff\xfe[{"path":"a"}]', b'[{"path": "a\xff.safetensors"}]'], ids=["bom", "byte_ff"]
)
@pytest.mark.parametrize("command", ["merge", "diagnose"])
def test_manifest_not_utf8_exit_3(tmp_path, capsys, command, payload):
    manifest = tmp_path / "m.json"
    manifest.write_bytes(payload)
    out = tmp_path / "o"
    target = "--output" if command == "merge" else "--report"
    code, _, err = run(capsys, command, "--manifest", str(manifest), target, str(out))
    assert code == 3
    assert str(manifest) in err and "invalid JSON" in err
    assert not out.exists()


def test_merge_refuses_non_finite_output_in_a_later_row_block(tmp_path, capsys, rng, monkeypatch):
    # layer "l" has 12 rows, rendered in 3 blocks of 4; only its last row overflows f32
    m, n = 12, 5
    monkeypatch.setattr(merge_module, "_RENDER_BLOCK_BYTES", 4 * n * 4)
    records = make_adapter_records(["l"], rank=2, full_shape=(m, n), rng=rng, dtype="f64")
    b = records["l.lora_B.weight"].to_array()
    b[-1] *= 1e300
    records["l.lora_B.weight"] = TensorRecord.from_array("l.lora_B.weight", b, "f64")
    path = tmp_path / "big.safetensors"
    save_checkpoint(records, path)
    written = []
    monkeypatch.setattr(merge_module, "save_checkpoint", _logged_save(written))
    out = tmp_path / "o.safetensors"
    argv = ["merge", str(path), "--method", "task_arithmetic", "--lambda", "1", "--output", str(out)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "'l'" in err and "not finite" in err
    assert len(err.splitlines()) == 1 and err.startswith("domerge: error:")  # no numpy warning ahead of it
    assert written == [("l", 4), ("l", 4)]  # the first two blocks were written
    assert not out.exists()
    out.write_bytes(b"occupied")
    code, _, err = run(capsys, *argv, "--force")
    assert code == 2 and "'l'" in err
    assert out.read_bytes() == b"occupied"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.safetensors", "o.safetensors"]


def test_merge_refuses_to_write_non_finite_output(tmp_path, capsys, rng):
    # finite f64 factors whose merged delta overflows the f32 output; layer
    # "a" (all zeros) is written before "l" fails, so the failure is mid-stream
    records = make_adapter_records(["a", "l"], rank=2, full_shape=(4, 3), rng=rng, dtype="f64")
    records["a.lora_B.weight"] = TensorRecord.from_array("a.lora_B.weight", np.zeros((4, 2)), "f64")
    path = tmp_path / "big.safetensors"
    save_checkpoint(records, path)
    out = tmp_path / "o.safetensors"
    argv = ["merge", str(path), "--method", "task_arithmetic", "--lambda", "1e300", "--output", str(out)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "'l'" in err and "not finite" in err
    assert len(err.splitlines()) == 1 and err.startswith("domerge: error:")  # no numpy warning ahead of it
    assert not out.exists()
    out.write_bytes(b"occupied")
    code, _, err = run(capsys, *argv, "--force")
    assert code == 2 and "'l'" in err
    assert out.read_bytes() == b"occupied"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.safetensors", "o.safetensors"]


@pytest.mark.parametrize("dtype, value", [("bf16", np.nan), ("f32", np.inf)])
def test_merge_fused_non_finite_base_exit_3_naming_it(adapter_files, tmp_path, capsys, rng, monkeypatch, dtype, value):
    # the last layer's base holds the bad value in row 9: its third render block of 4 rows (R = 12),
    # after the earlier layers and blocks are written; only a block that fails its check rereads its base rows
    monkeypatch.setattr(merge_module, "_RENDER_BLOCK_BYTES", 4 * 24 * 4)
    weights = {key + ".weight": rng.standard_normal((16, 12)) for key in LAYER_KEYS}
    last = sorted(weights)[-1]
    weights[last][9, 5] = value
    base = tmp_path / "base.safetensors"
    save_checkpoint({k: TensorRecord.from_array(k, w, dtype) for k, w in weights.items()}, base)
    written = []
    monkeypatch.setattr(merge_module, "save_checkpoint", _logged_save(written))
    out = tmp_path / "fused.safetensors"
    out.write_bytes(b"occupied")
    argv = [*map(str, adapter_files), "--base", str(base), "--output-mode", "fused", "--output", str(out), "--force"]
    code, stdout, err = run(capsys, "merge", *argv)
    assert (code, stdout) == (3, "")
    assert err == f"domerge: error: {base}: non-finite values in tensor {last!r}; {out} not written\n"
    assert written[-2:] == [(last, 4), (last, 4)] and len(written) == 3 * 4 + 2
    assert out.read_bytes() == b"occupied"
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted([*(p.name for p in adapter_files), "base.safetensors", "fused.safetensors"])


def test_merge_fused_finite_base_whose_sum_overflows_exit_2(adapter_files, tmp_path, capsys, rng):
    # the delta's largest entry is half of f32's max and the base entry under it f32's max, of its sign
    f32_max = float(np.finfo(np.float32).max)
    factors = [load_checkpoint(p) for p in adapter_files]
    key = LAYER_KEYS[0]
    delta = sum(f[key + ".lora_B.weight"].to_array() @ f[key + ".lora_A.weight"].to_array() for f in factors)
    i, j = np.unravel_index(np.argmax(np.abs(delta)), delta.shape)
    weights = {k + ".weight": rng.standard_normal((16, 12)) for k in LAYER_KEYS}
    weights[key + ".weight"][i, j] = np.sign(delta[i, j]) * f32_max
    base = tmp_path / "base.safetensors"
    save_checkpoint({k: TensorRecord.from_array(k, w, "f32") for k, w in weights.items()}, base)
    out = tmp_path / "fused.safetensors"
    lam = str(0.5 * f32_max / abs(delta[i, j]))
    code, _, err = run(
        capsys, "merge", *map(str, adapter_files), "--method", "task_arithmetic", "--lambda", lam,
        "--base", str(base), "--output-mode", "fused", "--output", str(out),
    )
    assert code == 2 and f"merged tensor '{key}.weight' is not finite" in err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["delta", "fused"])
@pytest.mark.parametrize("flags", [["--no-ortho"], ["--method", "average"]], ids=["no_ortho", "average"])
@pytest.mark.parametrize("n", [2, 3])
def test_merging_copies_of_one_bf16_adapter_writes_its_product(tmp_path, capsys, rng, n, flags, mode):
    # n copies of B A, each read from bf16 and merged as the stacks [B ... B] [A/n; ...; A/n],
    # rendered within the f32 bound of that f64 product (plus a bf16 base in fused output)
    path, base, out = tmp_path / "adapter.safetensors", tmp_path / "base.safetensors", tmp_path / "out.safetensors"
    save_checkpoint(make_adapter_records(LAYER_KEYS, 4, (16, 12), rng, dtype="bf16"), path)
    weights = {k + ".weight": rng.standard_normal((16, 12)) for k in LAYER_KEYS}
    save_checkpoint({k: TensorRecord.from_array(k, w, "bf16") for k, w in weights.items()}, base)
    argv = ["merge", *[str(path)] * n, *flags, "--base", str(base), "--output-mode", mode, "--output", str(out)]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    adapter, merged, weights = load_checkpoint(path), load_checkpoint(out), load_checkpoint(base)
    assert len(merged) == len(LAYER_KEYS)
    for key in LAYER_KEYS:
        b, a = (adapter[key + suffix].to_array() for suffix in (".lora_B.weight", ".lora_A.weight"))
        name = key if mode == "delta" else key + ".weight"
        values = None if mode == "delta" else weights[name].to_array()
        assert_within_render_bound(merged[name].values(), np.hstack([b] * n), np.vstack([a / n] * n), values)


@pytest.mark.parametrize(
    "entry, needs",
    [({"path": ""}, "needs a string 'path'"), ({"name": 5}, "name 5"), ({"name": None}, "name None")],
    ids=["empty_path", "int_name", "null_name"],
)
@pytest.mark.parametrize("command", ["merge", "diagnose"])
def test_manifest_entry_without_file_or_string_name_exit_3(
    adapter_files, tmp_path, capsys, command, entry, needs
):
    manifest = tmp_path / "m.json"
    entries = [{"path": str(adapter_files[0])}, {"path": str(adapter_files[1]), **entry}]
    manifest.write_text(json.dumps(entries))
    out = tmp_path / "o"
    target = "--output" if command == "merge" else "--report"
    code, _, err = run(capsys, command, "--manifest", str(manifest), target, str(out))
    assert code == 3
    assert f"manifest {manifest}: entry 1" in err and needs in err
    assert not out.exists()


def test_merge_ablation_flags(adapter_files, tmp_path, capsys):
    flags_out = tmp_path / "ablated.safetensors"
    ta_out = tmp_path / "ta.safetensors"
    args = [str(p) for p in adapter_files]
    assert run(
        capsys, "merge", *args, "--no-ortho", "--no-decouple",
        "--lambda", "0.25", "--output", str(flags_out),
    )[0] == 0
    assert run(
        capsys, "merge", *args, "--method", "task_arithmetic",
        "--lambda", "0.25", "--output", str(ta_out),
    )[0] == 0
    assert flags_out.read_bytes() == ta_out.read_bytes()


def test_inspect_lists_pairs(adapter_files, capsys):
    code, stdout, _ = run(capsys, "inspect", str(adapter_files[0]))
    assert code == 0
    assert "lora pairs: 4" in stdout
    assert "rank 4" in stdout and "full 16x12" in stdout


def test_inspect_json_parses(adapter_files, capsys):
    code, stdout, _ = run(capsys, "inspect", str(adapter_files[0]), "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert len(payload["tensors"]) == 8
    assert {p["rank"] for p in payload["lora_pairs"]} == {4}


def _unmergeable_pair(path):
    """An adapter whose one pair chains (B 4x8, A 8x4) but has rank 8 > min(4, 4)."""
    records = {
        "x.lora_B.weight": TensorRecord.from_array("x.lora_B.weight", np.ones((4, 8))),
        "x.lora_A.weight": TensorRecord.from_array("x.lora_A.weight", np.ones((8, 4))),
    }
    save_checkpoint(records, path)
    return path


def test_inspect_lists_a_rank_only_for_pairs_merge_accepts(tmp_path, capsys):
    path = _unmergeable_pair(tmp_path / "wide.safetensors")
    code, _, merge_err = run(capsys, "merge", str(path), "--output", str(tmp_path / "m.safetensors"))
    assert code == 3
    rejection = "x: rank 8 exceeds min of full shape (4, 4)"
    assert rejection in merge_err
    code, stdout, _ = run(capsys, "inspect", str(path))
    assert code == 0
    assert stdout.endswith(f"lora pairs: 1\n  {rejection}\n")
    code, stdout, _ = run(capsys, "inspect", str(path), "--json")
    assert code == 0
    assert json.loads(stdout)["lora_pairs"] == [{"layer": "x", "rank": None, "full_shape": None}]


def test_inspect_parse_failure_exit_3(tmp_path, capsys):
    bad = tmp_path / "junk.safetensors"
    bad.write_bytes(b"\x00" * 20)
    for path in (bad, _bool_shape_adapter(tmp_path / "bool.safetensors")):
        code, _, _ = run(capsys, "inspect", str(path))
        assert code == 3


def test_diagnose_writes_report(adapter_files, tmp_path, capsys):
    report = tmp_path / "report.json"
    code, stdout, _ = run(
        capsys, "diagnose", *(str(p) for p in adapter_files), "--report", str(report)
    )
    assert code == 0
    assert "magnitude_variance" in stdout
    payload = json.loads(report.read_text())
    assert payload["magnitude_variance"] > 0


def test_diagnose_duplicate_adapter_zero_variance(adapter_files, tmp_path, capsys):
    report = tmp_path / "dup.json"
    code, _, _ = run(
        capsys, "diagnose", str(adapter_files[0]), str(adapter_files[0]),
        "--report", str(report),
    )
    assert code == 0
    assert json.loads(report.read_text())["magnitude_variance"] == pytest.approx(0.0, abs=1e-20)


def test_diagnose_csv_format(adapter_files, tmp_path, capsys):
    report = tmp_path / "r.csv"
    code, _, _ = run(
        capsys, "diagnose", *(str(p) for p in adapter_files),
        "--report", str(report), "--format", "csv",
    )
    assert code == 0
    assert report.read_text().startswith("section,layer,i,j,value")


def test_verify_single_suite(tmp_path, capsys):
    report = tmp_path / "v.json"
    code, stdout, _ = run(
        capsys, "verify", "--suite", "crossterm", "--samples", "50",
        "--seed", "1", "--report", str(report),
    )
    assert code == 0
    assert json.loads(stdout)["suite"] == "crossterm"
    assert json.loads(report.read_text())["crossterm"]["pass"] is True


def test_verify_all_suites(capsys):
    code, stdout, _ = run(capsys, "verify", "--suite", "all", "--samples", "40", "--seed", "0")
    assert code == 0
    lines = [json.loads(line) for line in stdout.strip().splitlines()]
    assert [r["suite"] for r in lines] == ["theorem31", "theorem32", "theorem33", "crossterm"]


def test_verify_unknown_suite_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2


def test_verify_bad_sample_count_exit_2(capsys):
    code, _, _ = run(capsys, "verify", "--suite", "crossterm", "--samples", "1")
    assert code == 2


def test_usage_errors_from_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["merge"])  # missing required --output
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["merge", "diagnose"])
def test_adapter_source_options_listed_in_help(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    assert "--manifest" in usage and "--json" in usage and "adapters" in usage


def test_merge_lenient_drops_misaligned(tmp_path, capsys, rng):
    p1 = tmp_path / "one.safetensors"
    p2 = tmp_path / "two.safetensors"
    save_checkpoint(make_adapter_records(["x", "y"], 2, (6, 5), rng), p1)
    save_checkpoint(make_adapter_records(["x"], 2, (6, 5), rng), p2)
    strict_code, _, _ = run(
        capsys, "merge", str(p1), str(p2), "--output", str(tmp_path / "s.safetensors")
    )
    assert strict_code == 3
    code, stdout, _ = run(
        capsys, "merge", str(p1), str(p2), "--lenient",
        "--output", str(tmp_path / "l.safetensors"),
    )
    assert code == 0
    summary = json.loads(stdout)
    assert list(summary["layers"]) == ["x"]
    assert summary["warnings"]


def test_merge_lenient_warnings_come_in_layer_key_order(tmp_path, capsys, rng):
    # "a" has conflicting shapes and "b" is missing from p2; "c" is aligned
    p1, p2 = tmp_path / "p1.safetensors", tmp_path / "p2.safetensors"
    save_checkpoint(make_adapter_records(["a", "b", "c"], 2, (6, 5), rng), p1)
    records = {**make_adapter_records(["a"], 2, (7, 5), rng), **make_adapter_records(["c"], 2, (6, 5), rng)}
    save_checkpoint(records, p2)
    out = tmp_path / "l.safetensors"
    code, stdout, _ = run(capsys, "merge", str(p1), str(p2), "--lenient", "--output", str(out))
    assert code == 0
    summary = json.loads(stdout)
    assert list(summary["layers"]) == ["c"]
    assert summary["warnings"] == [
        "dropped: layer 'a' has conflicting full shapes [(6, 5), (7, 5)]",
        "dropped: layer 'b' missing from adapter(s) ['p2']",
    ]


def test_merge_lenient_with_no_aligned_layer_exit_3(tmp_path, capsys, rng):
    p1 = tmp_path / "one.safetensors"
    p2 = tmp_path / "two.safetensors"
    save_checkpoint(make_adapter_records(["x"], 2, (6, 5), rng), p1)
    save_checkpoint(make_adapter_records(["x"], 2, (7, 5), rng), p2)
    out = tmp_path / "l.safetensors"
    code, stdout, err = run(capsys, "merge", str(p1), str(p2), "--lenient", "--output", str(out))
    assert code == 3
    assert "no layer is aligned" in err and "'x'" in err and "(6, 5), (7, 5)" in err
    assert stdout == ""
    assert not out.exists()


# the usage and I/O errors the CLI raises itself: argv (A an adapter, O a fresh output path), exit, type, message
_CLI_ERRORS = {
    "sources_and_manifest": (["merge", "A", "--manifest", "A", "--output", "O"], 2, "usage",
                             "give adapter paths or --manifest, not both"),
    "no_sources": (["diagnose", "--report", "O"], 2, "usage",
                   "no adapters given (positional paths or --manifest)"),
    "lowrank_without_rank": (["merge", "A", "--output-mode", "lowrank", "--output", "O"], 2, "usage",
                             "lowrank output mode needs a rank, e.g. --output-mode lowrank:8"),
    "lowrank_bad_rank": (["merge", "A", "--output-mode", "lowrank:0", "--output", "O"], 2, "usage",
                         "invalid lowrank rank '0'"),
    "unknown_output_mode": (["merge", "A", "--output-mode", "dense", "--output", "O"], 2, "usage",
                            "unknown output mode 'dense'"),
    "fused_without_base": (["merge", "A", "--output-mode", "fused", "--output", "O"], 2, "usage",
                           "--output-mode fused requires --base"),
    "output_exists": (["merge", "A", "--output", "A"], 4, "io", "A exists; pass --force to overwrite"),
    "too_few_samples": (["verify", "--suite", "crossterm", "--samples", "1"], 2, "usage",
                        "--samples must be >= 2"),
    "negative_seed": (["verify", "--suite", "crossterm", "--samples", "2", "--seed", "-1"], 2, "usage",
                      "--seed must be >= 0"),
}


@pytest.mark.parametrize("case", list(_CLI_ERRORS))
def test_cli_errors_pin_exit_code_message_and_json_envelope(adapter_files, tmp_path, capsys, case):
    argv, code, kind, message = _CLI_ERRORS[case]
    names = {"A": str(adapter_files[0]), "O": str(tmp_path / "o.safetensors")}
    argv = [names.get(arg, arg) for arg in argv]
    message = message.replace("A exists", f"{names['A']} exists")
    before = adapter_files[0].read_bytes()
    assert run(capsys, *argv) == (code, "", f"domerge: error: {message}\n")
    if argv[0] != "verify":  # verify has no --json
        envelope = json.dumps({"error": {"message": message, "type": kind}}, separators=(",", ":"))
        assert run(capsys, *argv, "--json") == (code, "", envelope + "\n")
    assert adapter_files[0].read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [p.name for p in adapter_files]


def test_verify_suites_run_their_own_default_counts(capsys):
    code, stdout, _ = run(capsys, "verify", "--suite", "crossterm")
    assert code == 0
    assert stdout == '{"concat_wins":200,"pass":true,"suite":"crossterm","trials":200}\n'


# a directory where a file is expected: argv with D the directory, A an adapter and O a fresh path
_DIRECTORY_CASES = {
    "merge_input": ["merge", "D", "--output", "O"],
    "diagnose_input": ["diagnose", "D", "--report", "O"],
    "inspect": ["inspect", "D"],
    "base": ["merge", "A", "--base", "D", "--output-mode", "fused", "--output", "O"],
    "merge_output": ["merge", "A", "--output", "D", "--force"],
    "diagnose_report": ["diagnose", "A", "--report", "D"],
    "verify_report": ["verify", "--suite", "theorem33", "--samples", "2", "--report", "D"],
}


@pytest.mark.parametrize("case", list(_DIRECTORY_CASES))
def test_directory_for_a_file_exits_4_naming_it(adapter_files, tmp_path, capsys, case):
    directory = tmp_path / "adir"
    directory.mkdir()
    names = {"D": str(directory), "A": str(adapter_files[0]), "O": str(tmp_path / "o.safetensors")}
    before = sorted(p.name for p in tmp_path.iterdir())
    code, _, err = run(capsys, *(names.get(arg, arg) for arg in _DIRECTORY_CASES[case]))
    assert code == 4, err
    assert err.startswith(f"domerge: error: {directory}: "), err
    assert sorted(p.name for p in tmp_path.iterdir()) == before  # no output and no temp file
    assert list(directory.iterdir()) == []


def test_fifo_input_exits_4_without_blocking(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    done = subprocess.run(
        [sys.executable, "-m", "domerge.cli", "inspect", str(fifo)], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 4
    assert done.stderr == f"domerge: error: {fifo}: not a regular file\n"


@pytest.mark.parametrize("over", ["adapter", "manifest", "symlink"])
def test_diagnose_report_over_an_input_exits_4_before_reading(adapter_files, tmp_path, capsys, monkeypatch, over):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([{"path": str(p)} for p in adapter_files]))
    (tmp_path / "link").symlink_to(adapter_files[1])
    report = {"adapter": adapter_files[1], "manifest": manifest, "symlink": tmp_path / "link"}[over]
    inputs = ["--manifest", str(manifest)] if over == "manifest" else [str(p) for p in adapter_files]
    before = {p: p.read_bytes() for p in [*adapter_files, manifest]}
    monkeypatch.setattr(cli, "extract_adapters", lambda *a, **k: pytest.fail("an adapter was read"))
    code, stdout, err = run(capsys, "diagnose", *inputs, "--report", str(report))
    assert code == 4 and stdout == ""
    assert err == f"domerge: error: --report {report} is one of the inputs; it would be overwritten\n"
    assert {p: p.read_bytes() for p in before} == before


@pytest.mark.parametrize("command", ["merge", "diagnose"])
def test_manifest_repeating_a_given_name_exit_3(tmp_path, capsys, rng, command):
    # with distinct layers, a lenient merge would report two adapters both called 'a'
    one, two = tmp_path / "one.safetensors", tmp_path / "two.safetensors"
    save_checkpoint(make_adapter_records(["x", "y"], 2, (6, 5), rng), one)
    save_checkpoint(make_adapter_records(["x"], 2, (6, 5), rng), two)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([{"path": two.name, "name": "a"}, {"path": one.name, "name": "a"}]))
    out = tmp_path / "o"
    extra = ["--output", str(out), "--lenient"] if command == "merge" else ["--report", str(out)]
    code, stdout, err = run(capsys, command, "--manifest", str(manifest), *extra)
    assert code == 3 and stdout == ""
    assert err == f"domerge: error: manifest {manifest}: entries 0 and 1 are both named 'a'\n"
    assert not out.exists()


def test_manifest_adapters_may_share_a_file_stem(adapter_files, tmp_path, capsys):
    manifest = tmp_path / "m.json"
    entries = []
    for i, path in enumerate(adapter_files[:2]):
        (tmp_path / f"peft{i}").mkdir()
        (tmp_path / f"peft{i}" / "adapter_model.safetensors").write_bytes(path.read_bytes())
        entries.append({"path": f"peft{i}/adapter_model.safetensors"})
    manifest.write_text(json.dumps(entries))
    code, stdout, err = run(capsys, "merge", "--manifest", str(manifest), "--output", str(tmp_path / "o"))
    assert code == 0, err
    assert json.loads(stdout)["adapters"] == ["adapter_model", "adapter_model"]


def _deep_json(depth: int = 200_000) -> bytes:
    return b"[" * depth + b"]" * depth


def _header_file(path, header: bytes):
    path.write_bytes(len(header).to_bytes(8, "little") + header)
    return path


@pytest.mark.parametrize(
    "command, where",
    [("inspect", "header"), ("inspect", "metadata")]
    + [(c, w) for c in ("merge", "diagnose") for w in ("header", "metadata", "manifest")],
)
def test_deeply_nested_json_exit_3_naming_the_file(adapter_files, tmp_path, capsys, command, where):
    # nesting past the recursion limit is one error line, not a traceback
    if where == "manifest":
        bad = tmp_path / "deep.json"
        bad.write_bytes(_deep_json())
        sources = ["--manifest", str(bad)]
    else:
        header = _deep_json() if where == "header" else b'{"__metadata__":{"a":' + _deep_json() + b"}}"
        bad = _header_file(tmp_path / "deep.safetensors", header)
        sources = [str(bad)] if command == "inspect" else [str(adapter_files[0]), str(bad)]
    out = tmp_path / "out"
    extra = {"inspect": [], "merge": ["--output", str(out)], "diagnose": ["--report", str(out)]}[command]
    code, stdout, err = run(capsys, command, *sources, *extra)
    assert code == 3 and stdout == ""
    assert err.count("\n") == 1 and err.startswith("domerge: error: ")
    assert str(bad) in err and "recursion" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, where", [("inspect", "header"), ("merge", "header"), ("diagnose", "header"),
                       ("merge", "manifest"), ("diagnose", "manifest")],
)
def test_names_that_are_not_text_exit_3_before_any_work(adapter_files, tmp_path, capsys, rng, command, where):
    # the JSON escape \ud800 decodes to a lone surrogate: in a layer key or an
    # adapter's name it fails at load, not after the output is written
    if where == "manifest":
        bad = tmp_path / "m.json"
        bad.write_text('[{"path": "adapter0.safetensors", "name": "a\\ud800"}, {"path": "adapter1.safetensors"}]')
        sources = ["--manifest", str(bad)]
    else:
        sources = []
        for i in range(1 if command == "inspect" else 2):
            sources.append(str(tmp_path / f"odd{i}.safetensors"))
            save_checkpoint(make_adapter_records(["l\ud800x"], 2, (6, 5), rng), sources[-1])
        bad = sources[0]
    out = tmp_path / "out"
    extra = {"inspect": [], "merge": ["--output", str(out)], "diagnose": ["--report", str(out)]}[command]
    before = sorted(p.name for p in tmp_path.iterdir())
    code, stdout, err = run(capsys, command, *sources, *extra)
    assert code == 3 and stdout == ""
    assert err.count("\n") == 1 and err.startswith("domerge: error: ")
    assert str(bad) in err and "\\ud800" in err and "not text" in err
    err.encode()  # the message itself is text
    assert sorted(p.name for p in tmp_path.iterdir()) == before  # no output, no temp file


@pytest.mark.parametrize("parent", ["missing", "file"])
@pytest.mark.parametrize("command", ["merge", "diagnose", "verify"])
def test_output_in_no_directory_exit_4_before_any_work(
    adapter_files, tmp_path, capsys, monkeypatch, command, parent
):
    # the message names the path given, with no temp file's random suffix,
    # and nothing is read, merged, run or left behind
    if parent == "file":
        (tmp_path / "nodir").write_bytes(b"")
    target = tmp_path / "nodir" / "x.out"
    work = []
    monkeypatch.setattr(cli, "extract_adapters", lambda *a, **k: work.append("extract"))
    monkeypatch.setattr(cli, "SUITES", {name: ("missing_runner", "samples") for name in cli.SUITES})
    before = sorted(p.name for p in tmp_path.iterdir())
    argv = {
        "merge": ["merge", str(adapter_files[0]), "--output", str(target)],
        "diagnose": ["diagnose", str(adapter_files[0]), "--report", str(target)],
        "verify": ["verify", "--report", str(target)],
    }[command]
    code, stdout, err = run(capsys, *argv)
    assert code == 4 and stdout == "" and work == []
    assert err == f"domerge: error: {target}: {target.parent} is not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def _decades(lo: int, hi: int):
    """m 10^e for m in [0.1, 10] and e in -3..3 or lo..hi: ordinary sizes as often as extreme ones."""
    return st.builds(lambda m, e: m * 10.0**e, st.floats(0.1, 10.0), st.integers(-3, 3) | st.integers(lo, hi))


@st.composite
def _merge_cases(draw):
    """Adapters of layer "l" (and "k" in some), their manifest scalings and merge flags."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    adapters = []
    for _ in range(draw(st.integers(1, 3))):
        rank = draw(st.integers(1, 3) | st.integers(0, 3))
        dtype, seed = draw(st.sampled_from(["f64", "f32", "f16", "bf16"])), draw(st.integers(0, 2**16))
        adapters.append((rank, draw(_decades(-300, 300)), dtype, seed, draw(st.booleans()), draw(_decades(-300, 299))))
    mode = draw(st.sampled_from(["delta", "fused", "lowrank:1", "lowrank:2", "lowrank:3"]))
    flags = ["--output-mode", mode, "--method", draw(st.sampled_from(cli.METHODS))]
    flags += ["--magnitude-mode", draw(st.sampled_from(["column", "row", "matrix"]))]
    flags += [flag for flag in ("--no-ortho", "--no-decouple", "--lenient") if draw(st.booleans())]
    return (m, n), adapters, flags


@seed(24)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_merge_cases())
def test_merge_fuzz_exits_cleanly(tmp_path, capsys, case):
    # any mix of ranks, dtypes, magnitudes, scalings and flags either merges
    # with nothing on stderr or fails with one error line and no output left
    (m, n), adapters, flags = case
    shapes = {"l": (m, n), "k": (n, m)}
    with tempfile.TemporaryDirectory(dir=tmp_path) as work:
        work, manifest = Path(work), []
        for i, (rank, size, dtype, seed, with_k, scaling) in enumerate(adapters):
            rng, records = np.random.default_rng(seed), {}
            for key in ("l", "k") if with_k else ("l",):
                (rows, cols) = shapes[key]
                for suffix, shape in (("lora_B", (rows, rank)), ("lora_A", (rank, cols))):
                    name = f"{key}.{suffix}.weight"
                    with np.errstate(over="ignore"):  # past a narrow dtype's range is inf, which merge refuses
                        records[name] = TensorRecord.from_array(name, rng.standard_normal(shape) * size, dtype)
            save_checkpoint(records, work / f"a{i}.safetensors")
            manifest.append({"path": f"a{i}.safetensors", "scaling": scaling})
        (work / "m.json").write_text(json.dumps(manifest))
        base = {f"{k}.weight": TensorRecord.from_array(f"{k}.weight", np.ones(shapes[k]), "bf16") for k in shapes}
        save_checkpoint(base, work / "base.safetensors")
        before = sorted(p.name for p in work.iterdir())
        out = work / "o.safetensors"
        argv = ["merge", "--manifest", str(work / "m.json"), "--base", str(work / "base.safetensors"), *flags]
        code, stdout, err = run(capsys, *argv, "--output", str(out))
        assert code in (0, 2, 3, 4)
        if code:
            assert stdout == "" and err.count("\n") == 1 and err.startswith("domerge: error: "), err
            assert sorted(p.name for p in work.iterdir()) == before
        else:
            assert err == ""
            assert sorted(p.name for p in work.iterdir()) == sorted([*before, out.name])


def _json_text(value) -> str:
    """JSON text of value, a tuple of (key, value) pairs standing for an object whose keys may repeat."""
    if isinstance(value, tuple):
        return "{" + ",".join(f"{json.dumps(k)}:{_json_text(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ",".join(map(_json_text, value)) + "]"
    return json.dumps(value)  # a lone surrogate goes out as its \ud800 escape, NaN and inf as NaN and Infinity


_KEYS = st.sampled_from(["l.lora_A.weight", "l.lora_B.weight", "__metadata__", "dtype", "shape", "path", "l\ud800"])
_INTS = st.integers(-3, 100) | st.sampled_from([2**31, 2**53 + 1, 2**63, 2**64, 10**30, -(2**63)])
_SCALARS = st.none() | st.booleans() | _INTS | st.floats() | _KEYS | st.text(max_size=3)
_VALUES = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3) | st.lists(st.tuples(_KEYS, inner), max_size=3).map(tuple),
    max_leaves=6,
)


def _one_in(draw, n: int) -> bool:
    """True about once in n draws; hypothesis favours a range's ends, so the rare value is its middle."""
    return draw(st.integers(0, n - 1)) == n // 2


def _object(draw, fields):
    """An object of fields' (key, value, wild values) triples: each value kept or
    drawn from its wild strategy, some fields dropped or repeated, a stray one added."""
    pairs = []
    for key, valid, wild in fields:
        if not _one_in(draw, 40):  # most fields are present, most of them valid
            pairs.append((key, draw(wild) if _one_in(draw, 10) else valid))
        if _one_in(draw, 40):
            pairs.append((key, draw(wild)))
    if _one_in(draw, 20):
        pairs.append((draw(_KEYS), draw(_VALUES)))
    return tuple(pairs)


@st.composite
def _adapter_files(draw):
    """(layer, safetensors file of its LoRA pair: f32 6 x 2 and 2 x 5 at [0, 48) and [48, 88)), header
    fields valid or generated, entries repeated or odd, an odd __metadata__ or no object at all, 0-120 data bytes."""
    layer = draw(st.sampled_from(["l", "__metadata__", "", "é"]))
    pairs = (("B", [6, 2], [0, 48]), ("A", [2, 5], [48, 88]))
    entries = [(f"{layer}.lora_{ab}.weight", shape, offsets) for ab, shape, offsets in pairs]
    header = []
    for key, shape, offsets in entries:
        fields = [
            ("dtype", "F32", st.sampled_from(["F16", "BF16", "F64", "I8", "f32"]) | _VALUES),
            ("shape", shape, st.lists(st.integers(0, 8) | _INTS, max_size=3) | _VALUES),
            ("data_offsets", offsets, st.lists(st.integers(0, 120) | _INTS, max_size=3) | _VALUES),
        ]
        header += [(key, _object(draw, fields))] * (2 if _one_in(draw, 20) else 1)
    if _one_in(draw, 4):
        header.append(("__metadata__", draw(_VALUES)))
    if _one_in(draw, 8):
        header.append((draw(_KEYS | st.text(max_size=3)), draw(_VALUES)))
    text = _json_text(draw(_VALUES) if _one_in(draw, 20) else tuple(header)).encode()
    data = (np.arange(30) % 7 - 3).astype("<f4").tobytes()[: draw(st.integers(0, 120)) if _one_in(draw, 6) else 88]
    return layer, len(text).to_bytes(8, "little") + text + data


@st.composite
def _manifests(draw):
    """Manifest JSON text: a list of entries for good0/good1.safetensors, each field valid or generated."""
    entries = []
    for i in range(draw(st.integers(1, 3))):
        fields = [
            ("path", f"good{i % 2}.safetensors", st.sampled_from(["missing.safetensors", ".", "", "m.json"]) | _VALUES),
            ("name", f"n{i}", st.sampled_from(["n0", "", "a\ud800"]) | _VALUES),
            ("scaling", 1.0, st.floats() | _INTS | st.sampled_from([1e-320, 1e300]) | _VALUES),
        ]
        entries.append(_object(draw, fields))
    return _json_text(draw(_VALUES) if _one_in(draw, 20) else entries)


def _check_clean_exit(capsys, work, argv, output=None) -> tuple[int, str]:
    # exit 0 with nothing on stderr, or 2-4 with one error line; nothing left
    # in work but, on success, the output
    before = sorted(p.name for p in work.iterdir())
    code, stdout, err = run(capsys, *argv)
    assert code in (0, 2, 3, 4), (code, err)
    if code:
        assert err.count("\n") == 1 and err.startswith("domerge: error: "), err
    else:
        assert err == ""
    after = sorted(p.name for p in work.iterdir())
    assert after == sorted([*before, output] if code == 0 and output else before)
    return code, stdout


@seed(25)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_adapter_files())
def test_header_grammar_fuzz_exits_cleanly(tmp_path, capsys, rng, case):
    # a generated adapter file, alone in inspect and next to a good one of its layer in merge and diagnose
    (layer, file) = case
    with tempfile.TemporaryDirectory(dir=tmp_path) as work:
        work = Path(work)
        save_checkpoint(make_adapter_records([layer], 2, (6, 5), rng), work / "good.safetensors")
        (work / "x.safetensors").write_bytes(file)
        _check_clean_exit(capsys, work, ["inspect", str(work / "x.safetensors")])
        inputs = [str(work / "good.safetensors"), str(work / "x.safetensors")]
        code, stdout = _check_clean_exit(capsys, work, ["merge", *inputs, "--output", str(work / "o")], "o")
        if code == 0:  # and the output reads back with each merged layer's tensor
            assert sorted(load_checkpoint(work / "o")) == sorted(json.loads(stdout)["layers"])
        _check_clean_exit(capsys, work, ["diagnose", *inputs, "--report", str(work / "r")], "r")


@seed(25)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(manifest=_manifests())
def test_manifest_grammar_fuzz_exits_cleanly(tmp_path, capsys, rng, manifest):
    with tempfile.TemporaryDirectory(dir=tmp_path) as work:
        work = Path(work)
        for i in range(2):
            save_checkpoint(make_adapter_records(["l"], 2, (6, 5), rng), work / f"good{i}.safetensors")
        (work / "m.json").write_text(manifest)
        source = ["--manifest", str(work / "m.json")]
        _check_clean_exit(capsys, work, ["merge", *source, "--output", str(work / "o")], "o")
        _check_clean_exit(capsys, work, ["diagnose", *source, "--report", str(work / "r")], "r")


@pytest.mark.parametrize("mode", ["delta", "lowrank:1"])
def test_layer_named_metadata_exits_2_and_writes_nothing(tmp_path, capsys, rng, mode):
    # delta output would save layer "__metadata__" under the key a reader skips as the header's metadata
    save_checkpoint(make_adapter_records(["__metadata__"], 2, (6, 5), rng), tmp_path / "a.safetensors")
    out = tmp_path / "o.safetensors"
    code, stdout, err = run(
        capsys, "merge", str(tmp_path / "a.safetensors"), "--output-mode", mode, "--output", str(out)
    )
    if mode == "delta":
        assert (code, stdout) == (2, "") and not out.exists()
        assert err == "domerge: error: no tensor can be saved as '__metadata__': safetensors reserves that key\n"
    else:  # lowrank keys carry the lora suffixes
        assert code == 0
        assert sorted(load_checkpoint(out)) == ["__metadata__.lora_A.weight", "__metadata__.lora_B.weight"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["a.safetensors", *([out.name] if code == 0 else [])])


def _bad_pair(b=(), a=()) -> bytes:
    """A one-pair adapter file written byte by byte, its factors' header entries updated with b and a."""
    header = {
        "l.lora_B.weight": {"dtype": "F32", "shape": [6, 2], "data_offsets": [0, 48], **dict(b)},
        "l.lora_A.weight": {"dtype": "F32", "shape": [2, 5], "data_offsets": [48, 88], **dict(a)},
    }
    blob = json.dumps(header).encode()
    return len(blob).to_bytes(8, "little") + blob + b"\0" * max(e["data_offsets"][1] for e in header.values())


_BAD_FILES = {
    "too_short": (50).to_bytes(8, "little") + b"{}",
    "not_an_object": (2).to_bytes(8, "little") + b"[]",
    "unknown_dtype": _bad_pair(b={"dtype": "I9"}),
    "bad_shape": _bad_pair(b={"shape": [6, -2]}),
    "bad_offsets": _bad_pair(b={"data_offsets": [48, 0]}),
    "overlapping_ranges": _bad_pair(b={"data_offsets": [40, 88]}),
    "rank_over_shape": _bad_pair(b={"shape": [4, 8], "data_offsets": [0, 128]},
                                 a={"shape": [8, 4], "data_offsets": [128, 256]}),
}


@pytest.mark.parametrize(
    "case, role",
    [(case, "adapter") for case in _BAD_FILES] + [(case, "base") for case in _BAD_FILES if "rank" not in case],
)
def test_merge_names_the_bad_input_file(adapter_files, tmp_path, capsys, case, role):
    # with several inputs, the one error line says which file is at fault
    bad = tmp_path / "bad.safetensors"
    bad.write_bytes(_BAD_FILES[case])
    out = tmp_path / "o.safetensors"
    inputs = [str(bad)] if role == "adapter" else ["--base", str(bad), "--output-mode", "fused"]
    code, stdout, err = run(capsys, "merge", str(adapter_files[0]), *inputs, "--output", str(out))
    assert code == 3 and stdout == ""
    assert err.count("\n") == 1 and err.startswith("domerge: error: ") and "bad.safetensors" in err, err
    assert not out.exists()


def _rank_zero_pair(path):
    """An adapter whose one pair is an m x 0 B and a 0 x n A."""
    records = {
        "x.lora_B.weight": TensorRecord.from_array("x.lora_B.weight", np.zeros((4, 0))),
        "x.lora_A.weight": TensorRecord.from_array("x.lora_A.weight", np.zeros((0, 3))),
    }
    save_checkpoint(records, path)
    return str(path)


@pytest.mark.parametrize("command", ["delta", "lowrank:2", "diagnose"])
def test_rank_zero_pairs_exit_3(tmp_path, capsys, command):
    # PEFT refuses rank 0; a merge would write zeros, or fail in the SVD
    inputs = [_rank_zero_pair(tmp_path / f"z{i}.safetensors") for i in range(2)]
    out = tmp_path / "out"
    extra = ["--report", str(out)] if command == "diagnose" else ["--output-mode", command, "--output", str(out)]
    code, stdout, err = run(capsys, "merge" if command != "diagnose" else "diagnose", *inputs, *extra)
    assert code == 3 and stdout == ""
    assert err == f"domerge: error: z0.safetensors: x: rank 0; a LoRA pair has rank at least 1\n"
    assert not out.exists()
    code, stdout, _ = run(capsys, "inspect", inputs[0])
    assert code == 0 and stdout.endswith("lora pairs: 1\n  x: rank 0; a LoRA pair has rank at least 1\n")
    code, stdout, _ = run(capsys, "inspect", inputs[0], "--json")
    assert code == 0 and json.loads(stdout)["lora_pairs"] == [{"layer": "x", "rank": None, "full_shape": None}]


def _scaled_adapters(tmp_path, rng, sizes, scalings):
    """A manifest of f64 one-layer ("l") adapters: B times sizes[i][0], A times sizes[i][1]."""
    manifest = []
    for i, ((b_size, a_size), scaling) in enumerate(zip(sizes, scalings)):
        records = make_adapter_records(["l"], rank=2, full_shape=(6, 5), rng=rng, dtype="f64")
        for key, size in (("l.lora_B.weight", b_size), ("l.lora_A.weight", a_size)):
            records[key] = TensorRecord.from_array(key, records[key].to_array() * size, "f64")
        save_checkpoint(records, tmp_path / f"a{i}.safetensors")
        manifest.append({"path": f"a{i}.safetensors", "scaling": scaling})
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    return str(tmp_path / "m.json")


_OVERFLOWS = {
    # the first adapter's scaling squared overflows its B Gram
    "gram": ([(1, 1), (1, 1)], [1e300, 1.0], [], "factor Grams overflow float64"),
    "gram_no_ortho": ([(1, 1), (1, 1)], [1e300, 1.0], ["--no-ortho"], "factor Grams overflow float64"),
    # finite Grams, but ||W||_F^2 = <G_B, G_A> overflows, so its magnitudes would be zeroed
    "task_matrix": ([(1e104, 1e104)], [1.0], ["--no-ortho"], "the task matrix of adapter 0 overflows float64"),
    # finite Grams, but Lo = sum of squared cross-Gram entries overflows before the descent
    "cross_gram": ([(1e80, 1e-80), (1e80, 1e-80)], [1.0, 1.0], [], "the cross-Gram mass overflows float64"),
    # finite Grams, Lo and magnitudes, but lam = 1e300 times the merged right factor overflows
    "merged_factors": ([(1e-20, 1e20), (1e-20, 1e20)], [1.0, 1.0], ["--lambda", "1e300"],
                       "the merged factors overflow float64"),
}


@pytest.mark.parametrize("case", list(_OVERFLOWS))
def test_merge_layer_that_overflows_f64_exits_2_leaving_the_output(tmp_path, capsys, rng, case):
    sizes, scalings, flags, message = _OVERFLOWS[case]
    manifest = _scaled_adapters(tmp_path, rng, sizes, scalings)
    out = tmp_path / "o.safetensors"
    out.write_bytes(b"occupied")
    code, stdout, err = run(capsys, "merge", "--manifest", manifest, *flags, "--output", str(out), "--force")
    assert (code, stdout, err) == (2, "", f"domerge: error: layer 'l': {message}\n")
    assert out.read_bytes() == b"occupied"
    inputs = [f"a{i}.safetensors" for i in range(len(sizes))]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["m.json", "o.safetensors", *inputs])  # no temp file


def test_diagnose_layer_whose_grams_overflow_exits_2_before_writing(tmp_path, capsys, rng):
    manifest = _scaled_adapters(tmp_path, rng, [(1, 1), (1, 1)], [1e300, 1.0])
    report = tmp_path / "r.json"
    code, stdout, err = run(capsys, "diagnose", "--manifest", manifest, "--report", str(report))
    assert (code, stdout, err) == (2, "", "domerge: error: layer 'l': factor Grams overflow float64\n")
    assert not report.exists()


def test_diagnose_layer_whose_measurements_overflow_exits_2_before_writing(tmp_path, capsys, rng):
    manifest = _scaled_adapters(tmp_path, rng, [(1e80, 1), (1e80, 1)], [1.0, 1.0])
    report = tmp_path / "r.json"
    code, stdout, err = run(capsys, "diagnose", "--manifest", manifest, "--report", str(report))
    assert (code, stdout, err) == (2, "", "domerge: error: layer 'l': its measurements overflow float64\n")
    assert not report.exists()


# an ASCII locale with neither UTF-8 mode nor locale coercion, and UTF-8 mode
_LOCALES = {"ascii": {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}, "utf8": {"PYTHONUTF8": "1"}}


def _domerge(locale, *argv):
    """Run `python -m domerge.cli` in a child under one of _LOCALES."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    command = [sys.executable, "-m", "domerge.cli", *argv]
    return subprocess.run(command, env={**env, **_LOCALES[locale]}, capture_output=True, timeout=120)


@pytest.mark.parametrize("command", ["inspect", "inspect_json", "merge", "diagnose_json", "diagnose_csv"])
def test_outputs_are_the_same_utf8_bytes_in_any_locale(tmp_path, rng, command):
    # layer key "é" and manifest name "Ä" print and write as UTF-8, whatever the locale
    for i in range(2):
        save_checkpoint(make_adapter_records(["é"], 2, (6, 5), rng), tmp_path / f"a{i}.safetensors")
    (tmp_path / "m.json").write_text(json.dumps([{"path": "a0.safetensors", "name": "Ä"}, {"path": "a1.safetensors"}]))
    outputs, stdouts = {}, {}
    for locale in _LOCALES:
        out = tmp_path / f"{locale}.out"
        argv = {
            "inspect": ["inspect", tmp_path / "a0.safetensors"],
            "inspect_json": ["inspect", tmp_path / "a0.safetensors", "--json"],
            "merge": ["merge", "--manifest", tmp_path / "m.json", "--output", out],
            "diagnose_json": ["diagnose", "--manifest", tmp_path / "m.json", "--report", out],
            "diagnose_csv": ["diagnose", "--manifest", tmp_path / "m.json", "--report", out, "--format", "csv"],
        }[command]
        done = _domerge(locale, *map(str, argv))
        assert (done.returncode, done.stderr) == (0, b""), done.stderr
        stdouts[locale] = done.stdout.replace(str(out).encode(), b"OUT")
        outputs[locale] = out.read_bytes() if out.exists() else None
    assert stdouts["ascii"] == stdouts["utf8"] and outputs["ascii"] == outputs["utf8"]
    assert "é".encode() in stdouts["utf8"] + (outputs["utf8"] or b"")
    if command in ("merge", "diagnose_json"):
        assert "Ä".encode() in stdouts["utf8"] + outputs["utf8"]


def test_diagnose_writes_an_undecodable_file_name_back_as_its_bytes(adapter_files, tmp_path):
    odd = tmp_path / os.fsdecode(b"x\xff.safetensors")
    odd.write_bytes(adapter_files[0].read_bytes())
    report = tmp_path / "r.json"
    done = subprocess.run(
        [sys.executable, "-m", "domerge.cli", "diagnose", str(adapter_files[1]), odd, "--report", str(report)],
        capture_output=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, b""), done.stderr
    assert b'"adapter_names":["adapter1","x\xff"]' in report.read_bytes()
