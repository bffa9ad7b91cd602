"""Acceptance gate: eleven behavioral criteria, one pass/fail line each.

Each test prints its verdict to the real stdout so the lines survive
pytest's capture, then asserts at the stated tolerances. The criteria run
in order; numbering in the output is positional, [1/11] through [11/11].
"""

import contextlib
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from domerge.checkpoint import TensorRecord, load_checkpoint, save_checkpoint
from domerge.cli import main as cli_main
from domerge.experiments import (
    run_balance_suite,
    run_conflict_suite,
    run_crossterm_suite,
    run_decoupling_suite,
)
from domerge.linalg import MAGNITUDE_MODES, decouple, recompose
from domerge.merge import MergeConfig
from domerge.ortho import OrthoConfig, ortho_grad, ortho_loss, orthogonalize_group

from conftest import LAYER_KEYS, make_adapter_records
from oracles import merged_factors


@contextlib.contextmanager
def criterion(index: int, description: str, capfd):
    # verdict lines print outside pytest's capture so every run shows them
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"[{index}/11] FAIL: {description}", flush=True)
        raise
    with capfd.disabled():
        print(f"[{index}/11] PASS: {description}", flush=True)


def test_balanced_magnitude_norms_minimize_averaging_loss(capfd):
    with criterion(1, "balanced magnitude norms minimize the expected averaging loss", capfd):
        start = time.perf_counter()
        result = run_balance_suite(samples=200, seed=0, m=64, n=64)
        elapsed = time.perf_counter() - start
        assert elapsed < 15.0
        assert set(result["comparisons"]) == {"0.25", "0.5", "2", "4"}
        for entry in result["comparisons"].values():
            assert entry["gap_from_balanced"] > entry["required_gap"]
        assert result["pass"]


def test_decoupled_merging_beats_coupled_on_imbalanced_pairs(capfd):
    with criterion(2, "decoupled merging beats coupled merging whenever norms differ", capfd):
        result = run_decoupling_suite(samples=500, seed=0, m=64, n=64)
        for ratio in ("1.5", "2", "3"):
            entry = result["ratios"][ratio]
            assert entry["difference_mean"] > 3.0 * entry["difference_std_error"]
        null = result["ratios"]["1"]
        # the null is constructed to cancel exactly, the strongest form of
        # "no detectable difference"
        assert null["difference_mean"] == 0.0
        assert abs(null["difference_mean"]) <= 3.0 * null["difference_std_error"]
        assert result["pass"]


def test_orthogonal_descent_reduces_sign_conflicts(capfd):
    with criterion(3, "orthogonal descent reduces sign conflicts with monotone loss", capfd):
        result = run_conflict_suite(trials=100, seed=0, m=32, n=8)
        assert result["conflict_decreased"] >= 95
        assert result["monotone_trajectories"] == 100
        assert result["pass"]


def test_analytic_gradient_matches_central_differences(capfd):
    with criterion(4, "analytic orthogonality gradient matches central finite differences", capfd):
        h = 1e-5
        worst = 0.0
        for g in range(20):
            rng = np.random.default_rng((5, g))
            mats = [rng.standard_normal((8, 4)) for _ in range(3)]
            deltas = [0.01 * rng.standard_normal((8, 4)) for _ in range(3)]
            mu = 0.5
            grads = ortho_grad(mats, deltas, mu)
            for k in range(3):
                numeric = np.zeros((8, 4))
                for idx in np.ndindex(8, 4):
                    up = [d.copy() for d in deltas]
                    dn = [d.copy() for d in deltas]
                    up[k][idx] += h
                    dn[k][idx] -= h
                    numeric[idx] = (
                        ortho_loss(mats, up, mu) - ortho_loss(mats, dn, mu)
                    ) / (2 * h)
                denom = np.maximum(np.abs(numeric), np.abs(grads[k]))
                assert denom.min() > 0.0
                worst = max(worst, float((np.abs(grads[k] - numeric) / denom).max()))
        assert worst <= 1e-6


def _planted_group(rng, m=64, k=16, eps=0.05, members=4):
    # random rank-k matrices whose column spaces are near-orthogonal:
    # disjoint blocks of a random orthogonal basis plus eps contamination
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    mats = []
    for i in range(members):
        u = q[:, i * k : (i + 1) * k]
        g = rng.standard_normal((m, k))
        g /= np.linalg.norm(g)
        mixer = rng.standard_normal((k, m))
        mats.append((u + eps * np.linalg.norm(u) * g) @ mixer)
    return mats


def test_deep_cross_gram_reduction_within_perturbation_budget(capfd):
    with criterion(5, "cross-Gram mass drops >= 90% within a 5% perturbation budget", capfd):
        config = OrthoConfig(step_size=1.0, max_steps=200, max_rel_perturbation=0.05)
        for seed in range(5):
            rng = np.random.default_rng((200, seed))
            mats = _planted_group(rng)
            out, stats = orthogonalize_group(mats, config)

            def pair_norms(ms):
                return [
                    np.linalg.norm(ms[i].T @ ms[j])
                    for i in range(len(ms))
                    for j in range(i + 1, len(ms))
                ]

            before = pair_norms(mats)
            after = pair_norms(out)
            # >= 90% reduction holds for both the plain and squared readings
            assert sum(after) <= 0.10 * sum(before)
            assert sum(v**2 for v in after) <= 0.10 * sum(v**2 for v in before)
            assert stats.steps_taken <= 200
            for w, p in zip(mats, out):
                assert np.linalg.norm(p - w) / np.linalg.norm(w) <= 0.05


def test_decouple_recompose_roundtrip_across_modes(capfd):
    with criterion(6, "magnitude/direction split reassembles 1000 random matrices", capfd):
        rng = np.random.default_rng(42)
        for i in range(1000):
            mode = MAGNITUDE_MODES[i % 3]
            m = int(rng.integers(1, 16))
            n = int(rng.integers(1, 16))
            w = rng.standard_normal((m, n)) * float(rng.choice([1e-5, 1.0, 1e5]))
            if i % 7 == 0 and n > 1:
                w[:, 0] = 0.0  # exercise the zero-unit path
            back = recompose(decouple(w, mode))
            norm = np.linalg.norm(w)
            assert np.linalg.norm(back - w) <= 1e-12 * max(norm, 1e-300)


def test_concatenated_factor_merging_beats_separate_factor_merging(capfd):
    with criterion(7, "product-space merging beats separate factor merging", capfd):
        result = run_crossterm_suite(trials=200, seed=0, m=64, n=64, rank=8)
        assert result["concat_wins"] >= 190
        assert result["pass"]


def test_merging_identical_adapters_reproduces_the_adapter(capfd):
    with criterion(8, "merging n identical adapters reproduces the original deltas", capfd):
        rng = np.random.default_rng(7)
        records = make_adapter_records(LAYER_KEYS, rank=4, full_shape=(16, 12), rng=rng)

        for n in (2, 3, 5):
            for key in LAYER_KEYS:
                b = records[f"{key}.lora_B.weight"].to_array()
                a = records[f"{key}.lora_A.weight"].to_array()
                config = MergeConfig(lam=1.0 / n**2, ortho=None)
                left, right, _ = merged_factors([(b, a, 1.0)] * n, config, key)
                target = b @ a
                err = np.linalg.norm(left @ right - target) / np.linalg.norm(target)
                assert err <= 1e-10


def test_fully_ablated_pipeline_is_bitwise_task_arithmetic(tmp_path, capfd):
    with criterion(9, "disabling both stages reproduces plain delta addition bit for bit", capfd):
        rng = np.random.default_rng(11)
        paths = []
        for i in range(3):
            recs = make_adapter_records(LAYER_KEYS, rank=4, full_shape=(16, 12), rng=rng)
            p = tmp_path / f"abl{i}.safetensors"
            save_checkpoint(recs, p)
            paths.append(str(p))
        ablated = tmp_path / "ablated.safetensors"
        ta = tmp_path / "ta.safetensors"
        assert (
            cli_main(
                ["merge", *paths, "--no-ortho", "--no-decouple", "--lambda", "0.125",
                 "--output", str(ablated)]
            )
            == 0
        )
        assert (
            cli_main(
                ["merge", *paths, "--method", "task_arithmetic", "--lambda", "0.125",
                 "--output", str(ta)]
            )
            == 0
        )
        capfd.readouterr()
        assert ablated.read_bytes() == ta.read_bytes()


def test_checkpoint_save_load_roundtrip_is_bit_identical(tmp_path, capfd):
    with criterion(10, "checkpoint save/load is bit-identical across 50 random files", capfd):
        dtypes = ("f64", "f32", "f16", "bf16")
        for case in range(50):
            rng = np.random.default_rng((13, case))
            records = {}
            for t in range(int(rng.integers(1, 6))):
                key = f"tensor.{case}.{t}"
                shape = tuple(int(s) for s in rng.integers(1, 9, size=int(rng.integers(1, 4))))
                dtype = dtypes[int(rng.integers(0, 4))]
                records[key] = TensorRecord.from_array(key, rng.standard_normal(shape), dtype)
            path = tmp_path / f"case{case}.safetensors"
            save_checkpoint(records, path)
            loaded = load_checkpoint(path)
            assert set(loaded) == set(records)
            for key, rec in records.items():
                assert loaded[key].dtype == rec.dtype
                assert loaded[key].shape == rec.shape
                assert loaded[key].raw == rec.raw
            resaved = tmp_path / f"case{case}b.safetensors"
            save_checkpoint(loaded, resaved)
            assert resaved.read_bytes() == path.read_bytes()


def test_cli_merge_completes_validates_and_repeats(tmp_path, capfd):
    with criterion(11, "CLI merge finishes fast, validates under inspect, repeats bytewise", capfd):
        rng = np.random.default_rng(17)
        paths = []
        for i in range(3):
            recs = make_adapter_records(LAYER_KEYS, rank=4, full_shape=(16, 12), rng=rng)
            p = tmp_path / f"cli{i}.safetensors"
            save_checkpoint(recs, p)
            paths.append(str(p))
        out1 = tmp_path / "merged1.safetensors"
        out2 = tmp_path / "merged2.safetensors"
        base_cmd = [sys.executable, "-m", "domerge.cli", "merge", *paths, "--seed", "0"]
        start = time.perf_counter()
        run1 = subprocess.run(
            [*base_cmd, "--output", str(out1)], capture_output=True, text=True
        )
        elapsed = time.perf_counter() - start
        assert run1.returncode == 0, run1.stderr
        assert elapsed < 5.0
        inspect = subprocess.run(
            [sys.executable, "-m", "domerge.cli", "inspect", str(out1), "--json"],
            capture_output=True,
            text=True,
        )
        assert inspect.returncode == 0, inspect.stderr
        assert '"tensors"' in inspect.stdout
        run2 = subprocess.run(
            [*base_cmd, "--output", str(out2)], capture_output=True, text=True
        )
        assert run2.returncode == 0, run2.stderr
        assert out1.read_bytes() == out2.read_bytes()
        assert run1.stdout.replace(str(out1), "") == run2.stdout.replace(str(out2), "")
