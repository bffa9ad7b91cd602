"""Data-free group orthogonalization of same-height matrices.

Perturbs each member of a group by a small additive delta so that the pairwise
column-space Gram masses shrink, under a hard per-member budget on the
relative Frobenius size of the perturbation. Used on the low-rank factor
groups of a layer before merging; also runs directly on full-rank matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _as_matrix

# line-search halvings before a step is declared stuck
_MAX_BACKTRACKS = 30
# the descent stops once an accepted step lowers the loss by less than this share
_REL_LOSS_TOL = 1e-6


@dataclass(frozen=True)
class OrthoConfig:
    """Tunables for the perturbation descent.

    step_size: first trial step, scaled by 1 / (sum_j ||W_j||_F^2 + mu) as a
        crude curvature estimate; the step then doubles after each accepted
        step and halves on each rejected trial, so any value reaches the same
        budgeted optimum.
    max_rel_perturbation: hard cap on ||delta_i||_F / ||W_i||_F, enforced by
        projection every step, never just at convergence.

    The penalty weight mu is initial_Lo / sum_i ||W_i||_F^2, so both loss
    terms start at comparable scale. The descent is deterministic
    (zero-initialized, no sampling).
    """

    max_steps: int = 200
    step_size: float = 1e-2
    max_rel_perturbation: float = 0.05

    def __post_init__(self):
        # bool is an int subclass, but True is not a step count
        if isinstance(self.max_steps, bool) or not isinstance(self.max_steps, int) or self.max_steps < 1:
            raise ValueError("max_steps must be a positive int")
        if not 0 < self.step_size < math.inf:
            raise ValueError("step_size must be positive and finite")
        if not (0 < self.max_rel_perturbation < 1):
            raise ValueError("max_rel_perturbation must lie in (0, 1)")


@dataclass
class OrthoStats:
    initial_lo: float
    final_lo: float
    steps_taken: int
    trials: int  # loss evaluations, accepted or not
    # "converged" (no Lo, or a step gained < _REL_LOSS_TOL), "step_cap" or "stalled"
    stop_reason: str
    per_member_rel_perturbation: list[float]
    # cross-Gram part of the loss after every accepted step, starting at the
    # initial value; non-increasing by construction of the acceptance rule
    lo_trajectory: list[float]


def _check_group(mats, deltas=None):
    mats = [_as_matrix(w, f"mats[{i}]") for i, w in enumerate(mats)]
    if not mats:
        raise ValueError("empty group")
    rows = mats[0].shape[0]
    for i, w in enumerate(mats):
        if w.shape[0] != rows:
            raise ValueError(f"mats[{i}] has {w.shape[0]} rows, expected {rows}")
    if deltas is not None:
        deltas = [np.asarray(d, dtype=np.float64) for d in deltas]
        if len(deltas) != len(mats):
            raise ValueError("deltas length must match group size")
        for i, (w, d) in enumerate(zip(mats, deltas)):
            if d.shape != w.shape:
                raise ValueError(f"deltas[{i}] shape {d.shape} != mats[{i}] shape {w.shape}")
    return mats, deltas


def _owner_mask(mats) -> np.ndarray:
    """True where a stacked-Gram entry pairs columns of two different members."""
    owner = np.repeat(np.arange(len(mats)), [w.shape[1] for w in mats])
    return owner[:, None] != owner[None, :]


def _off_gram(gram, off):
    """(G_off, Lo): the stacked group's Gram X^T X with same-member blocks zeroed, and
    Lo = sum_{i<j} ||X_i^T X_j||_F^2 = ||G_off||_F^2 / 2, as G_off holds each cross block twice."""
    g = np.where(off, gram, 0.0)
    return g, 0.5 * float(np.vdot(g, g))


def _grad(x, g, d, mu):
    """2 X G_off + 2 mu D: the loss gradient for the stacked perturbed group X = W + D."""
    return 2.0 * x @ g + 2.0 * mu * d


def ortho_loss(mats, deltas, mu: float) -> float:
    """sum_{i<j} ||(W_i+d_i)^T (W_j+d_j)||_F^2 + mu * sum_i ||d_i||_F^2."""
    mats, deltas = _check_group(mats, deltas)
    d = np.hstack(deltas)
    x = np.hstack(mats) + d
    _, lo = _off_gram(x.T @ x, _owner_mask(mats))
    return lo + mu * float(np.vdot(d, d))


def ortho_grad(mats, deltas, mu: float) -> list[np.ndarray]:
    """Analytic gradient of ortho_loss with respect to each delta.

    d/d(delta_i) = 2 sum_{j != i} X_j X_j^T X_i + 2 mu delta_i,
    with X_k = W_k + delta_k. For the stacked group that is the block of
    columns of 2 X G_off + 2 mu D belonging to member i, so the work stays
    at Gram size, and the gradient is exactly zero on a mutually orthogonal
    group with zero deltas.
    """
    mats, deltas = _check_group(mats, deltas)
    d = np.hstack(deltas)
    x = np.hstack(mats) + d
    g, _ = _off_gram(x.T @ x, _owner_mask(mats))
    return np.hsplit(_grad(x, g, d, mu), np.cumsum([w.shape[1] for w in mats[:-1]]))


def orthogonalize_group(mats, config: OrthoConfig | None = None):
    """Run projected gradient descent on the group; returns (perturbed, stats).

    Steps are accepted only when the total loss strictly decreases and the
    cross-Gram part does not increase, so the reported lo trajectory is
    non-increasing and final_lo <= initial_lo holds unconditionally. Each
    accepted iterate is projected member-wise onto the perturbation ball
    ||delta_i||_F <= max_rel_perturbation * ||W_i||_F. The trial step
    doubles after each accepted step and halves on each rejected trial.

    D stays in the span of the stacked group W = [W_1 ... W_n], so when W has
    more rows than its R columns the descent runs on R x R coordinates E, D = W E,
    weighed by the Gram G = W^T W (nothing is factorized), and maps back once.
    The perturbed members are column blocks of one array.
    """
    if config is None:
        config = OrthoConfig()
    mats, _ = _check_group(mats)
    widths = [w.shape[1] for w in mats]
    starts = np.cumsum([0] + widths[:-1])
    off = _owner_mask(mats)
    w = np.hstack(mats)
    gram = w.T @ w
    g, initial_lo = _off_gram(gram, off)
    if initial_lo == 0.0:  # nothing to remove, as in every one-member group
        stats = OrthoStats(0.0, 0.0, 0, 0, "converged", [0.0] * len(mats), [0.0])
        return np.hsplit(w.copy(), starts[1:]), stats
    member_norms = np.sqrt(np.add.reduceat(np.diag(gram), starts))
    total_sq = float(member_norms @ member_norms)
    mu = initial_lo / total_sq
    # target a hair inside the budget so the measured ratio ||d||/||W||
    # stays <= max_rel_perturbation after its own rounding
    caps = config.max_rel_perturbation * (1.0 - 1e-12) * member_norms
    t = config.step_size / (total_sq + mu)
    metric = gram if w.shape[0] > w.shape[1] else None
    x = base = w if metric is None else np.eye(w.shape[1])
    z, z_norms = np.zeros_like(base), np.zeros(len(mats))
    cur = cur_lo = initial_lo  # deltas are zero so the penalty term starts at 0
    trajectory, trials, stop_reason = [initial_lo], 0, "step_cap"
    for _ in range(config.max_steps):
        grad = _grad(x, g, z, mu)
        for _ in range(_MAX_BACKTRACKS):
            trials += 1
            trial = z - t * grad
            m_trial = trial if metric is None else metric @ trial
            # member norms of the perturbation, m_trial weighing it by the metric
            norms = np.sqrt(np.add.reduceat(np.einsum("ij,ij->j", trial, m_trial), starts))
            shrink = np.divide(caps, norms, out=np.ones_like(norms), where=norms > caps)
            cols = np.repeat(shrink, widths)
            trial, m_trial = trial * cols, m_trial * cols
            new_x = base + trial
            new_g, new_lo = _off_gram(new_x.T @ (new_x if metric is None else gram + m_trial), off)
            new = new_lo + mu * float(np.vdot(trial, m_trial))
            if new < cur and new_lo <= cur_lo:
                break
            t *= 0.5
        else:
            stop_reason = "stalled"
            break
        rel_change = (cur - new) / cur
        x, z, z_norms, g, cur, cur_lo = new_x, trial, norms * shrink, new_g, new, new_lo
        trajectory.append(cur_lo)
        t *= 2.0
        if rel_change < _REL_LOSS_TOL:
            stop_reason = "converged"
            break

    rels = z_norms / np.where(member_norms > 0, member_norms, np.inf)
    steps = len(trajectory) - 1
    stats = OrthoStats(initial_lo, cur_lo, steps, trials, stop_reason, rels.tolist(), trajectory)
    return np.hsplit(w + (z if metric is None else w @ z), starts[1:]), stats
