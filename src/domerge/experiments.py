"""Seeded Monte Carlo experiments behind the merging math.

Each experiment checks one quantitative claim the merge pipeline relies on:

- balance_sweep: averaging two synthetic task matrices is penalized by any
  imbalance between their magnitude norms; the expected weighted loss is
  minimized when the norms match.
- decoupling_comparison: merging magnitudes and directions separately beats
  merging the raw matrices whenever the magnitude norms differ, measured on
  shared samples (paired design).
- conflict_reduction_trial: orthogonalizing a deliberately anti-correlated
  pair lowers its sign-conflict rate.
- factor_crossterm_trial: merging low-rank factors separately injects
  factor cross terms that concatenated (product-space) merging avoids.

Every trial derives its generator as default_rng((seed, ...indices)), so
results are bit-identical regardless of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ortho import OrthoConfig, orthogonalize_group


@dataclass(frozen=True)
class SyntheticSpec:
    m: int = 64
    n: int = 64
    lambda_ratio: float = 1.0  # target ratio between the two magnitude norms
    samples: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("matrix dims must be positive")
        if self.lambda_ratio <= 0:
            raise ValueError("lambda_ratio must be positive")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")


@dataclass(frozen=True)
class TrialResult:
    mean: float
    std_error: float
    samples: int


def _trial_result(values) -> TrialResult:
    values = np.asarray(values, dtype=np.float64)
    se = float(values.std(ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
    return TrialResult(mean=float(values.mean()), std_error=se, samples=len(values))


def magnitude_weighted_loss(w, w1, w2, alpha1_norm: float, alpha2_norm: float) -> float:
    """Reconstruction loss of a merged matrix against both sources.

    L = ((a1+a2)/a1) ||w - w1||_F^2 + ((a1+a2)/a2) ||w - w2||_F^2

    The coefficient on each residual grows as that source's magnitude norm
    shrinks, so drowning out the smaller-magnitude source is penalized.
    Residuals are squared Frobenius norms.
    """
    if alpha1_norm <= 0 or alpha2_norm <= 0:
        raise ValueError("magnitude norms must be positive")
    w, w1, w2 = (np.asarray(a, dtype=np.float64) for a in (w, w1, w2))
    if not (w.shape == w1.shape == w2.shape):
        raise ValueError("shape mismatch")
    total = alpha1_norm + alpha2_norm
    r1 = float(np.linalg.norm(w - w1) ** 2)
    r2 = float(np.linalg.norm(w - w2) ** 2)
    return (total / alpha1_norm) * r1 + (total / alpha2_norm) * r2


def _magnitude_pair(rng, n: int, ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """Two non-negative magnitude vectors with ||a1|| = ratio * ||a2||.

    The total magnitude energy ||a1||^2 + ||a2||^2 is held at 2n for every
    ratio, so sweeping the ratio changes only the balance between the two
    sources, not the overall problem scale. Under that normalization the
    expected loss of plain averaging is (m/4) * 2n * (ratio + 2 + 1/ratio),
    minimized exactly at ratio 1.
    """
    total_energy = 2.0 * n
    n1 = np.sqrt(total_energy * ratio**2 / (1.0 + ratio**2))
    n2 = np.sqrt(total_energy / (1.0 + ratio**2))
    u1 = rng.uniform(0.5, 1.5, size=n)
    u2 = rng.uniform(0.5, 1.5, size=n)
    return u1 * (n1 / np.linalg.norm(u1)), u2 * (n2 / np.linalg.norm(u2))


def balance_sweep(spec: SyntheticSpec, ratio_grid) -> dict[float, TrialResult]:
    """Estimate the expected averaging loss at each magnitude-norm ratio."""
    ratio_grid = [float(r) for r in ratio_grid]
    if 1.0 not in ratio_grid:
        raise ValueError("ratio grid must contain 1.0")
    out: dict[float, TrialResult] = {}
    for gi, ratio in enumerate(ratio_grid):
        losses = np.empty(spec.samples)
        for t in range(spec.samples):
            rng = np.random.default_rng((spec.seed, gi, t))
            a1, a2 = _magnitude_pair(rng, spec.n, ratio)
            wbar1 = rng.standard_normal((spec.m, spec.n))
            wbar2 = rng.standard_normal((spec.m, spec.n))
            w1 = a1[None, :] * wbar1
            w2 = a2[None, :] * wbar2
            merged = 0.5 * (w1 + w2)
            losses[t] = magnitude_weighted_loss(
                merged, w1, w2, float(np.linalg.norm(a1)), float(np.linalg.norm(a2))
            )
        out[ratio] = _trial_result(losses)
    return out


class PairedComparison(NamedTuple):
    coupled: TrialResult
    decoupled: TrialResult
    # per-trial (coupled - decoupled) loss gap; positive mean favors decoupling
    difference: TrialResult


def decoupling_comparison(spec: SyntheticSpec) -> PairedComparison:
    """Coupled vs decoupled two-source merging on shared samples.

    The second magnitude vector is pointwise proportional to the first
    (a2 = lambda_ratio^2 * a1), so at lambda_ratio = 1 the two merge
    formulas agree exactly and the paired difference is identically zero,
    which is the null case the comparison is calibrated against.
    """
    coupled = np.empty(spec.samples)
    decoupled = np.empty(spec.samples)
    for t in range(spec.samples):
        rng = np.random.default_rng((spec.seed, t))
        a1 = rng.uniform(0.5, 1.5, size=spec.n)
        a2 = spec.lambda_ratio**2 * a1
        wbar1 = rng.standard_normal((spec.m, spec.n))
        wbar2 = rng.standard_normal((spec.m, spec.n))
        w1 = a1[None, :] * wbar1
        w2 = a2[None, :] * wbar2
        n1 = float(np.linalg.norm(a1))
        n2 = float(np.linalg.norm(a2))
        merged_coupled = 0.5 * (w1 + w2)
        # distributed form: with a2 == a1 this is bitwise equal to the
        # coupled merge (all rescalings are powers of two), making the
        # ratio-1 paired difference exactly zero rather than rounding noise
        a_sum = a1 + a2
        merged_decoupled = 0.25 * (a_sum[None, :] * wbar1 + a_sum[None, :] * wbar2)
        coupled[t] = magnitude_weighted_loss(merged_coupled, w1, w2, n1, n2)
        decoupled[t] = magnitude_weighted_loss(merged_decoupled, w1, w2, n1, n2)
    return PairedComparison(
        coupled=_trial_result(coupled),
        decoupled=_trial_result(decoupled),
        difference=_trial_result(coupled - decoupled),
    )


def sign_conflict_rate(w1, w2) -> float:
    """Fraction of positions where the entries carry strictly opposite signs.

    Positions where either entry is exactly zero are excluded from both the
    numerator and the denominator; an all-zero overlap yields 0.0.
    """
    w1 = np.asarray(w1, dtype=np.float64)
    w2 = np.asarray(w2, dtype=np.float64)
    if w1.shape != w2.shape:
        raise ValueError(f"shape mismatch: {w1.shape} vs {w2.shape}")
    mask = (w1 != 0) & (w2 != 0)
    count = int(mask.sum())
    if count == 0:
        return 0.0
    conflicts = int((np.sign(w1) != np.sign(w2))[mask].sum())
    return conflicts / count


class ConflictReduction(NamedTuple):
    initial_rate: float
    final_rate: float
    lo_trajectory: list[float]


# the conflicted pair needs a 10% budget to actually decorrelate (5% mostly shrinks)
CONFLICT_TRIAL_ORTHO = OrthoConfig(max_rel_perturbation=0.10)


def conflict_reduction_trial(spec: SyntheticSpec, trial: int = 0) -> ConflictReduction:
    """Orthogonalize one deliberately conflicted pair under CONFLICT_TRIAL_ORTHO;
    report conflict rates.

    The pair is built anti-correlated (W2 = -0.7 W1 + 0.7 G) so roughly
    three quarters of the positions start in sign conflict.
    """
    rng = np.random.default_rng((spec.seed, trial))
    w1 = rng.standard_normal((spec.m, spec.n))
    noise = rng.standard_normal((spec.m, spec.n))
    w2 = -0.7 * w1 + 0.7 * noise
    initial = sign_conflict_rate(w1, w2)
    (p1, p2), stats = orthogonalize_group([w1, w2], CONFLICT_TRIAL_ORTHO)
    final = sign_conflict_rate(p1, p2)
    return ConflictReduction(initial, final, stats.lo_trajectory)


class CrosstermResult(NamedTuple):
    concat_loss: float
    separate_loss: float
    cross_term_norm: float


def factor_crossterm_trial(m: int, n: int, rank: int, seed=0) -> CrosstermResult:
    """Compare product-space merging against separate factor merging, for two adapters.

    Concatenated merging averages the per-adapter products:
        W_cat = (B_1 A_1 + B_2 A_2) / 2
    Separate merging averages each factor first:
        W_sep = (B_1 + B_2)(A_1 + A_2) / 4
              = (B_1 A_1 + B_2 A_2) / 4 + (B_1 A_2 + B_2 A_1) / 4
    The trailing sum is the factor cross term; its Frobenius norm is
    reported unsquared. Both merges are scored by magnitude_weighted_loss
    against the two task matrices, with their Frobenius norms as the
    magnitude norms. For identical adapters both formulas reproduce the
    common product exactly.
    """
    if not (1 <= rank <= min(m, n)):
        raise ValueError(f"rank {rank} out of range for {m}x{n}")
    rng = np.random.default_rng(seed)
    b1, b2 = (rng.standard_normal((m, rank)) for _ in range(2))
    a1, a2 = (rng.standard_normal((rank, n)) for _ in range(2))
    w1, w2 = b1 @ a1, b2 @ a2
    concat = (w1 + w2) / 2
    separate = ((b1 + b2) @ (a1 + a2)) / 4
    cross = separate - (w1 + w2) / 4
    norms = (float(np.linalg.norm(w1)), float(np.linalg.norm(w2)))
    return CrosstermResult(
        concat_loss=magnitude_weighted_loss(concat, w1, w2, *norms),
        separate_loss=magnitude_weighted_loss(separate, w1, w2, *norms),
        cross_term_norm=float(np.linalg.norm(cross)),
    )


# ---------------------------------------------------------------------------
# Suite runners: the pass/fail policies driven by the CLI verify command.

BALANCE_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
DECOUPLING_RATIOS = (1.5, 2.0, 3.0)


def run_balance_suite(samples: int = 200, seed=0, m: int = 64, n: int = 64) -> dict:
    spec = SyntheticSpec(m=m, n=n, samples=samples, seed=seed)
    sweep = balance_sweep(spec, BALANCE_GRID)
    base = sweep[1.0]
    comparisons = {}
    ok = True
    for ratio, res in sweep.items():
        if ratio == 1.0:
            continue
        margin = res.mean - base.mean
        combined = 3.0 * float(np.hypot(base.std_error, res.std_error))
        passed = margin > combined
        ok = ok and passed
        comparisons[format(ratio, "g")] = {
            "mean": res.mean,
            "std_error": res.std_error,
            "gap_from_balanced": margin,
            "required_gap": combined,
            "pass": passed,
        }
    return {
        "suite": "theorem31",
        "pass": ok,
        "balanced_mean": base.mean,
        "balanced_std_error": base.std_error,
        "comparisons": comparisons,
        "samples": samples,
    }


def run_decoupling_suite(samples: int = 500, seed=0, m: int = 64, n: int = 64) -> dict:
    results = {}
    ok = True
    for ratio in DECOUPLING_RATIOS:
        cmp = decoupling_comparison(
            SyntheticSpec(m=m, n=n, lambda_ratio=ratio, samples=samples, seed=seed)
        )
        passed = cmp.difference.mean > 3.0 * cmp.difference.std_error
        ok = ok and passed
        results[format(ratio, "g")] = {
            "coupled_mean": cmp.coupled.mean,
            "decoupled_mean": cmp.decoupled.mean,
            "difference_mean": cmp.difference.mean,
            "difference_std_error": cmp.difference.std_error,
            "pass": passed,
        }
    null = decoupling_comparison(
        SyntheticSpec(m=m, n=n, lambda_ratio=1.0, samples=samples, seed=seed)
    )
    null_ok = abs(null.difference.mean) <= 3.0 * null.difference.std_error
    ok = ok and null_ok
    results["1"] = {
        "difference_mean": null.difference.mean,
        "difference_std_error": null.difference.std_error,
        "pass": null_ok,
    }
    return {"suite": "theorem32", "pass": ok, "ratios": results, "samples": samples}


def run_conflict_suite(trials: int = 100, seed=0, m: int = 32, n: int = 8) -> dict:
    spec = SyntheticSpec(m=m, n=n, samples=1, seed=seed)
    wins = 0
    monotone = 0
    for t in range(trials):
        res = conflict_reduction_trial(spec, trial=t)
        if res.final_rate < res.initial_rate:
            wins += 1
        traj = res.lo_trajectory
        if all(b <= a for a, b in zip(traj, traj[1:])):
            monotone += 1
    ok = wins >= int(np.ceil(0.95 * trials)) and monotone == trials
    return {
        "suite": "theorem33",
        "pass": ok,
        "conflict_decreased": wins,
        "monotone_trajectories": monotone,
        "trials": trials,
    }


def run_crossterm_suite(trials: int = 200, seed=0, m: int = 64, n: int = 64, rank: int = 8) -> dict:
    wins = 0
    for t in range(trials):
        res = factor_crossterm_trial(m, n, rank, seed=(seed, t))
        if res.concat_loss < res.separate_loss:
            wins += 1
    ok = wins >= int(np.ceil(0.95 * trials))
    return {"suite": "crossterm", "pass": ok, "concat_wins": wins, "trials": trials}
