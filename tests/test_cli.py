import json

import numpy as np
import pytest

from domerge.checkpoint import TensorRecord, load_checkpoint, save_checkpoint
from domerge.cli import main

from conftest import make_adapter_records


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
        # output is stored f32, so compare after the same downcast
        assert np.array_equal(rec.to_array(), (b @ a).astype(np.float32).astype(np.float64))


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


def test_merge_existing_output_needs_force(adapter_files, tmp_path, capsys):
    out = tmp_path / "m.safetensors"
    out.write_bytes(b"occupied")
    code, _, err = run(capsys, "merge", str(adapter_files[0]), "--output", str(out))
    assert code == 4
    assert "--force" in err
    code, _, _ = run(capsys, "merge", str(adapter_files[0]), "--output", str(out), "--force")
    assert code == 0
    assert out.read_bytes() != b"occupied"


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


def test_merge_parse_failure_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.safetensors"
    bad.write_bytes(b"garbage bytes here")
    code, _, _ = run(capsys, "merge", str(bad), "--output", str(tmp_path / "o.safetensors"))
    assert code == 3


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


def test_merge_threads_env_fallback(adapter_files, tmp_path, capsys, monkeypatch):
    out1, out2 = tmp_path / "t1.safetensors", tmp_path / "t2.safetensors"
    args = [str(p) for p in adapter_files]
    monkeypatch.setenv("DO_MERGE_THREADS", "3")
    assert run(capsys, "merge", *args, "--output", str(out1))[0] == 0
    monkeypatch.setenv("DO_MERGE_THREADS", "1")
    assert run(capsys, "merge", *args, "--output", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    monkeypatch.setenv("DO_MERGE_THREADS", "zero")
    assert run(capsys, "merge", *args, "--output", str(tmp_path / "t3.safetensors"))[0] == 2


def test_merge_threads_default_to_one(monkeypatch):
    from domerge.cli import _resolve_threads

    monkeypatch.delenv("DO_MERGE_THREADS", raising=False)
    assert _resolve_threads(None) == 1
    assert _resolve_threads(3) == 3


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


@pytest.mark.filterwarnings("ignore:overflow encountered in cast")
def test_merge_refuses_to_write_non_finite_output(tmp_path, capsys, rng):
    # finite f64 factors whose merged delta overflows the f32 output
    records = make_adapter_records(["l"], rank=2, full_shape=(4, 3), rng=rng, dtype="f64")
    path = tmp_path / "big.safetensors"
    save_checkpoint(records, path)
    out = tmp_path / "o.safetensors"
    code, _, err = run(
        capsys, "merge", str(path), "--method", "task_arithmetic", "--lambda", "1e300",
        "--output", str(out),
    )
    assert code == 2
    assert "'l'" in err and "not finite" in err
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


def test_inspect_parse_failure_exit_3(tmp_path, capsys):
    bad = tmp_path / "junk.safetensors"
    bad.write_bytes(b"\x00" * 20)
    code, _, _ = run(capsys, "inspect", str(bad))
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
