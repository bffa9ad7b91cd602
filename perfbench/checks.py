"""Independent checks of one `domerge merge` result.

Every check reads the written checkpoint with the benchmark's own parser
(corpus.read_safetensors), never with domerge's. A check returns a list of
problems; an empty list means the run passed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from corpus import Corpus, FormatError, parse_safetensors, read_safetensors

# f32 machine epsilon; fused output is an f32 rounding of an f64 sum
F32_EPS = float(np.finfo(np.float32).eps)
BUDGET = 0.05  # the CLI's default --ortho-budget, which no workload overrides


@dataclass(frozen=True)
class Expectation:
    """What a correct run of one workload writes and reports."""

    output_mode: str  # delta, fused or lowrank:R
    ortho: bool  # descent statistics expected in the summary


@dataclass
class Checked:
    problems: list[str]
    output_sha256: str | None = None
    stdout_sha256: str | None = None
    lo_kept: float | None = None  # mean final_lo / initial_lo over factor groups


def expected_tensors(corpus: Corpus, output_mode: str) -> dict[str, tuple[tuple[int, ...], str]]:
    rows, cols = corpus.spec.rows, corpus.spec.cols
    out = {}
    for key in corpus.layer_keys:
        if output_mode == "delta":
            out[key] = ((rows, cols), "F32")
        elif output_mode == "fused":
            out[key + ".weight"] = ((rows, cols), "F32")
        else:
            r = int(output_mode.partition(":")[2])
            out[key + ".lora_B.weight"] = ((rows, r), "F32")
            out[key + ".lora_A.weight"] = ((r, cols), "F32")
    return out


def _fused_oracle_problems(corpus: Corpus, arrays: dict[str, np.ndarray]) -> list[str]:
    """Compare fused output with base + lam * sum_i s_i B_i A_i, lam = 1/n^2, s_i = 1."""
    _, base = read_safetensors(corpus.base)
    factors = [read_safetensors(p)[1] for p in corpus.adapter_paths]
    lam = 1.0 / len(factors) ** 2
    problems = []
    for key in corpus.layer_keys:
        delta = sum(
            f[key + ".lora_B.weight"].astype(np.float64) @ f[key + ".lora_A.weight"].astype(np.float64)
            for f in factors
        )
        oracle = base[key + ".weight"].astype(np.float64) + lam * delta
        scale = float(np.abs(oracle).max())
        err = float(np.abs(arrays[key + ".weight"] - oracle).max())
        if not err <= 4 * F32_EPS * scale:
            problems.append(f"fused {key}: max abs error {err:.3g} vs oracle (scale {scale:.3g})")
    return problems


def _summary_problems(summary, corpus: Corpus, expect: Expectation) -> tuple[list[str], float | None]:
    problems = []
    if not isinstance(summary, dict) or summary.get("command") != "merge":
        return ["stdout summary is not a merge summary"], None
    layers = summary.get("layers")
    if not isinstance(layers, dict) or sorted(layers) != sorted(corpus.layer_keys):
        return [f"summary layers {sorted(layers or {})} != corpus layers"], None
    if expect.output_mode == "fused":
        n = corpus.spec.adapters
        if summary.get("lambda") != 1.0 / (n * n):
            problems.append(f"summary lambda {summary.get('lambda')} != 1/{n}^2")
    ratios = []
    for key, entry in layers.items():
        if entry.get("shape") != [corpus.spec.rows, corpus.spec.cols]:
            problems.append(f"summary {key}: shape {entry.get('shape')}")
        groups = entry.get("ortho")
        if not expect.ortho:
            if groups is not None:
                problems.append(f"summary {key}: unexpected descent statistics")
            continue
        if not isinstance(groups, dict) or sorted(groups) != ["A", "B"]:
            problems.append(f"summary {key}: factor groups {groups!r}, expected A and B")
            continue
        for name, g in groups.items():
            initial, final, pert = g.get("initial_lo"), g.get("final_lo"), g.get("max_rel_perturbation")
            values = (initial, final, pert)
            if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
                problems.append(f"summary {key}/{name}: non-finite statistics {g!r}")
                continue
            if not final <= initial:
                problems.append(f"summary {key}/{name}: final_lo {final} > initial_lo {initial}")
            if not pert <= BUDGET:
                problems.append(f"summary {key}/{name}: perturbation {pert} > budget {BUDGET}")
            if initial > 0:
                ratios.append(final / initial)
    lo_kept = sum(ratios) / len(ratios) if ratios else None
    return problems, lo_kept


def check_run(corpus: Corpus, expect: Expectation, exit_code: int, output: Path, stdout: bytes) -> Checked:
    """Check one merge: exit code, checkpoint keys/shapes/dtypes/finiteness, summary, oracle."""
    if exit_code != 0:
        return Checked([f"merge exited with code {exit_code}"])
    checked = Checked([], stdout_sha256=hashlib.sha256(stdout).hexdigest())
    try:
        summary = json.loads(stdout)
    except ValueError:
        summary = None
    problems, checked.lo_kept = _summary_problems(summary, corpus, expect)
    checked.problems += problems
    if not expect.ortho:
        checked.lo_kept = 1.0  # no descent ran, so every unit of cross-Gram mass is kept

    try:
        blob = output.read_bytes()
        checked.output_sha256 = hashlib.sha256(blob).hexdigest()
        header, arrays = parse_safetensors(blob, output)
    except (OSError, FormatError) as e:
        checked.problems.append(f"output unreadable: {e}")
        return checked
    want = expected_tensors(corpus, expect.output_mode)
    got = {k: (tuple(e["shape"]), e["dtype"]) for k, e in header.items()}
    if got != want:
        checked.problems.append(f"output tensors {sorted(got.items())} != expected {sorted(want.items())}")
        return checked
    for key, arr in arrays.items():
        if not np.isfinite(arr).all():
            checked.problems.append(f"output {key}: non-finite values")
    if expect.output_mode == "fused" and not checked.problems:
        checked.problems += _fused_oracle_problems(corpus, arrays)
    return checked
