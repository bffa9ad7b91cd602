"""Smoke runs of the scripts under scripts/ and of the README's library
example, most of which import the package's public API."""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from domerge import TensorRecord, load_checkpoint, save_checkpoint

from conftest import LAYER_KEYS, make_adapter_records

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def _run(tmp_path, *argv):
    # conftest puts src/ on PYTHONPATH for child processes
    return subprocess.run(
        [sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )


def test_synthetic_adapters_feed_a_fused_merge(tmp_path):
    made = _run(
        tmp_path, str(SCRIPTS / "make_synthetic_adapters.py"), "--out-dir", str(tmp_path),
        "--with-base", "--rows", "16", "--cols", "12",
    )
    assert made.returncode == 0, made.stderr
    merged = _run(
        tmp_path, "-m", "domerge.cli", "merge", "--manifest", str(tmp_path / "manifest.json"),
        "--base", str(tmp_path / "base.safetensors"), "--output-mode", "fused",
        "--output", str(tmp_path / "merged.safetensors"),
    )
    assert merged.returncode == 0, merged.stderr
    assert (tmp_path / "merged.safetensors").exists()


def test_synthetic_adapters_are_make_corpus_files_written_into_an_existing_dir(tmp_path, monkeypatch):
    # the script writes perfbench's corpus: ROADMAP's benchmark corpora rely on the two being byte-identical
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from corpus import CorpusSpec, make_corpus

    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_bytes(b"not the script's")
    argv = [str(SCRIPTS / "make_synthetic_adapters.py"), "--out-dir", str(out), "--dtype", "bf16", "--with-base"]
    runs = [_run(tmp_path, *argv) for _ in range(2)]
    want = make_corpus(CorpusSpec(3, 4, 32, 24, 4, "bf16", with_base=True), 0, tmp_path / "want")
    names = [p.name for p in (*want.adapter_paths, want.base, want.manifest)]
    for made in runs:
        assert made.returncode == 0, made.stderr
        assert made.stdout.splitlines() == [f"wrote {out / name}" for name in names]
    assert sorted(p.name for p in out.iterdir()) == sorted([*names, "notes.txt"])
    assert (out / "notes.txt").read_bytes() == b"not the script's"
    for name in names:
        assert (out / name).read_bytes() == (want.manifest.parent / name).read_bytes(), name


def test_ortho_budget_sweep_runs(tmp_path):
    sweep = _run(
        tmp_path, str(SCRIPTS / "ortho_budget_sweep.py"), "--trials", "1", "--size", "16",
        "--rank", "4", "--budgets", "0.05",
    )
    assert sweep.returncode == 0, sweep.stderr
    rows = sweep.stdout.splitlines()[2:]
    assert [row.split()[:2] for row in rows] == [["dense", "0.050"], ["planted", "0.050"]]
    # one trial per row, so the stop-reason column counts one descent
    for row in rows:
        reason, count = row.split()[-1].split(":")
        assert reason in {"converged", "step_cap", "stalled"} and count == "1"


def test_readme_library_example_runs(tmp_path, rng, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    library = readme[readme.index("\n## Library\n") :]
    example = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    assert example.rstrip().splitlines()[-1].startswith("stats = write_merged(")
    for name in ("a0", "a1"):
        save_checkpoint(make_adapter_records(LAYER_KEYS, 4, (16, 12), rng), tmp_path / f"{name}.safetensors")
    weights = {k + ".weight": rng.standard_normal((16, 12)) for k in LAYER_KEYS}
    save_checkpoint({k: TensorRecord.from_array(k, w) for k, w in weights.items()}, tmp_path / "base.safetensors")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(example, "README.md", "exec"), namespace)
    assert sorted(namespace["stats"]) == sorted(LAYER_KEYS)
    merged = load_checkpoint(tmp_path / "merged.safetensors")
    assert sorted(merged) == sorted(weights)
    assert all(merged[k].dtype == "f32" and np.isfinite(merged[k].to_array()).all() for k in merged)
    assert len(capsys.readouterr().out.splitlines()) == len(LAYER_KEYS)

