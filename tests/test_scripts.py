"""Smoke runs of the scripts under scripts/, which import the package's public API."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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
