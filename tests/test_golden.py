"""Output bits pinned: the sha256 of every output, summary and report of
scripts/golden_outputs.py's fixed inputs (a toy corpus and the seed-7
benchmark corpora, through perfbench's own merge command lines), against
tests/golden_outputs.json.

Floating-point bits depend on numpy, its BLAS and the CPU's kernels, so the
hashes are compared only in the environment the file records. Elsewhere the
benchmark corpora, whose outputs only the hashes check, are not built: that
test skips. In every environment the toy corpus's outputs are also checked
against tests/oracles.py at the bounds the code states, and its test prints
which checks it ran.
Regenerate the file after a deliberate change of bits with
`python scripts/golden_outputs.py`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from domerge.checkpoint import LORA_A_SUFFIX, LORA_B_SUFFIX, extract_adapters, load_checkpoint, load_manifest
from domerge.merge import MergeConfig

from oracles import (
    EPS32,
    assert_within_render_bound,
    cross_gram_sum,
    decoded_group,
    dense_merge_delta,
    dense_report,
    merged_factors,
    svd_truncate,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import golden_outputs  # noqa: E402  (it puts perfbench/ on sys.path)
from corpus import CorpusSpec, make_corpus  # noqa: E402
from run import SCRUBBED_ENV  # noqa: E402

CONFIGS = {  # golden_outputs.MERGES' flags as the MergeConfig the CLI builds
    "delta": MergeConfig(),
    "row": MergeConfig(magnitude_mode="row"),
    "matrix": MergeConfig(magnitude_mode="matrix"),
    "no_ortho": MergeConfig(ortho=None),
    "no_decouple": MergeConfig(decouple_enabled=False),
    "task_arithmetic": MergeConfig(ortho=None, decouple_enabled=False),
    "average": MergeConfig(ortho=None, decouple_enabled=False, lam=1 / len(golden_outputs.ADAPTERS)),
    "fused": MergeConfig(),
    "lowrank": MergeConfig(),
    "lowrank_padded": MergeConfig(),
}
LOWRANK = {"lowrank": 3, "lowrank_padded": 12}  # the lowrank merges' ranks; the merge's is 9


def check_merge(work: Path, name: str, adapters, base) -> None:
    """One merge's output and summary against the oracles: its merged delta
    within 1e-12 relative of dense_merge_delta; each delta or fused tensor
    within the f32 render bound of the f64 factors; lowrank B A within
    _truncated_factors' stated 8 eps32 sum_k ||left_k|| ||right_k|| of the
    dense truncation, plus the rounding of B and A to f32, and zero past the
    merge's rank; and each descent's starting Lo the dense cross-Gram sum, to
    1e-12 relative, and never raised."""
    config, written = CONFIGS[name], load_checkpoint(work / f"out_{name}.safetensors")
    summary = json.loads((work / f"out_{name}.json").read_bytes())
    assert sorted(summary["layers"]) == adapters.layer_keys == sorted(golden_outputs.LAYERS)
    for key in adapters.layer_keys:
        layers = decoded_group(adapters, key)
        (left, right, _), want = merged_factors(layers, config, key), dense_merge_delta(layers, config)
        delta = left @ right
        assert np.linalg.norm(delta - want) <= 1e-12 * np.linalg.norm(want)
        if name in LOWRANK:
            b, a = (written[key + suffix].to_array() for suffix in (LORA_B_SUFFIX, LORA_A_SUFFIX))
            r = left.shape[1]
            scale = (np.hypot.reduce(left, axis=0) * np.hypot.reduce(right, axis=1)).sum()
            err = np.linalg.norm(b @ a - np.matmul(*svd_truncate(delta, LOWRANK[name])))
            assert err <= 8 * EPS32 * scale + 2 * EPS32 * np.linalg.norm(b) * np.linalg.norm(a)
            assert not (b[:, r:].any() or a[r:].any())
        elif name == "fused":
            values = base[key + ".weight"].to_array()
            assert_within_render_bound(written[key + ".weight"].to_array(), left, right, values)
        else:
            assert_within_render_bound(written[key].to_array(), left, right)
        groups = summary["layers"][key].get("ortho", {})
        assert sorted(groups) == ([] if config.ortho is None else ["A", "B"])
        members = {"B": [s * b for b, _, s in layers], "A": [a.T for _, a, _ in layers]}
        for group, stats in groups.items():
            lo = cross_gram_sum(members[group])
            assert abs(stats["initial_lo"] - lo) <= 1e-12 * lo
            assert 0 <= stats["final_lo"] <= stats["initial_lo"] and stats["stop_reason"] == "converged"


def golden_hashes(benchmark: bool) -> tuple[dict, bool]:
    """(the golden file's hashes of the benchmark corpora's outputs, or else of the toy
    corpus's; whether the file was recorded in this environment)."""
    golden = json.loads(golden_outputs.GOLDEN.read_text())
    half = {n: h for n, h in golden["hashes"].items() if (n.split(".")[1] in golden_outputs.WORKLOADS) == benchmark}
    return half, golden["environment"] == golden_outputs.environment()


def assert_unchanged(hashes: dict, want: dict) -> None:
    assert sorted(hashes) == sorted(want)
    changed = sorted(name for name in hashes if hashes[name] != want[name])
    assert not changed, f"output bits changed: {changed}; see scripts/golden_outputs.py"


def test_benchmark_outputs_match_golden_hashes(tmp_path):
    want, here = golden_hashes(benchmark=True)
    if not here:
        pytest.skip(f"golden hashes recorded in another environment, not {golden_outputs.environment()}")
    hashes = golden_outputs.benchmark_hashes(tmp_path)
    assert not any((tmp_path / name).exists() for name in golden_outputs.WORKLOADS)  # each corpus is removed
    assert_unchanged(hashes, want)


def test_outputs_match_golden_hashes_or_oracles(tmp_path):
    (want, here), hashes = golden_hashes(benchmark=False), golden_outputs.toy_hashes(tmp_path)
    checks = ["oracles"]
    if here:
        assert_unchanged(hashes, want)
        checks.insert(0, "sha256")
    else:  # inspect lists no floats, so its bytes are the same everywhere
        assert sorted(hashes) == sorted(want)
        assert all(hashes[n] == want[n] for n in hashes if n.startswith("inspect."))
    paths, names, scalings = load_manifest(tmp_path / "manifest.json")
    adapters = extract_adapters(paths, scalings=scalings, names=names)
    base = load_checkpoint(tmp_path / "base.safetensors")
    for name in golden_outputs.MERGES:
        check_merge(tmp_path, name, adapters, base)
    report = json.loads((tmp_path / "report.json").read_bytes())
    variance, grams, stats = dense_report(adapters)
    assert abs(report["magnitude_variance"] - variance) <= 1e-12 * variance
    for key in adapters.layer_keys:
        np.testing.assert_allclose(report["per_layer_cross_gram"][key], grams[key], rtol=1e-12, atol=0)
        np.testing.assert_allclose(report["per_layer_magnitude_stats"][key], stats[key], rtol=1e-12, atol=0)
    print(f"golden outputs: checked {' and '.join(checks)} ({golden_outputs.environment()})")


def test_merge_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    # ROADMAP item 4's probe, R = 256: OpenBLAS threads a long dot product, so a sum that steers the
    # descent must not go through it. lowrank's output bytes still follow LAPACK's threads, so only its
    # summary is compared; the delta output and summary are compared whole
    corpus = make_corpus(CorpusSpec(16, 4, 1024, 1024, 16, "bf16"), 7, tmp_path / "corpus")
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    runs = {}
    for threads in ("1", "2"):
        got = runs[threads] = {}
        for mode in ("delta", "lowrank:32"):
            command = [sys.executable, "-m", "domerge.cli", "merge", "--manifest", str(corpus.manifest),
                       "--output-mode", mode, "--output", "out.safetensors", "--force"]
            env["OPENBLAS_NUM_THREADS"] = threads
            done = subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, timeout=120)
            assert done.returncode == 0, done.stderr
            got[f"{mode} stdout"] = done.stdout
            if mode == "delta":
                got["delta output"] = (tmp_path / "out.safetensors").read_bytes()
    changed = [name for name in runs["1"] if runs["1"][name] != runs["2"][name]]
    assert not changed, f"bits that move with the thread count: {changed}"
