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
        step and halves on each rejected trial. It still shapes the result:
        a step whose first gain is below _REL_LOSS_TOL stops the descent
        there as "converged", and where member norms differ widely the
        step_cap result, and even the converged one, depend on it (README).
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
    # "converged" (no Lo, a step gained < _REL_LOSS_TOL, or no step lowers a Lo
    # already at <= _REL_LOSS_TOL of its start), "step_cap" or "stalled"
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


def _owner_mask(widths) -> np.ndarray:
    """True where a stacked-Gram entry pairs columns of two different members of these widths."""
    owner = np.repeat(np.arange(len(widths)), widths)
    return owner[:, None] != owner[None, :]


def _off_gram(gram, own):
    """(G_off, Lo): the stacked group's Gram X^T X with its same-member blocks (own = ~_owner_mask) zeroed
    in place, and Lo = sum_{i<j} ||X_i^T X_j||_F^2 = ||G_off||_F^2 / 2, as G_off holds each cross block twice."""
    gram[own] = 0.0
    return gram, 0.5 * float(np.einsum("ij,ij->", gram, gram))


def _plus_identity(z, out):
    """I + z formed in out (which may be z), with the bits of np.eye(len(z)) + z (-0.0 + 0.0 is +0.0)."""
    np.add(z, 0.0, out=out).flat[:: len(z) + 1] += 1.0
    return out


def _stacked(mats, deltas):
    """(widths, D, X, G_off, Lo) of the checked group: D = [d_1 ... d_n], X = [W_1 ... W_n] + D,
    and _off_gram's G_off and Lo of X^T X."""
    mats, deltas = _check_group(mats, deltas)
    widths = [w.shape[1] for w in mats]
    d = np.hstack(deltas)
    x = np.hstack(mats) + d
    return (widths, d, x, *_off_gram(x.T @ x, ~_owner_mask(widths)))


def _grad(x, g, d, mu, out=None, tmp=None):
    """2 x @ g + 2 mu d formed in out, through tmp (which may be x): ortho_loss's gradient in stacked form."""
    out = np.matmul(np.multiply(x, 2.0, out=tmp), g, out=out)
    out += np.multiply(d, 2.0 * mu, out=tmp)
    return out


def ortho_loss(mats, deltas, mu: float) -> float:
    """sum_{i<j} ||(W_i+d_i)^T (W_j+d_j)||_F^2 + mu * sum_i ||d_i||_F^2."""
    _, d, _, _, lo = _stacked(mats, deltas)
    return lo + mu * float(np.einsum("ij,ij->", d, d))


def ortho_grad(mats, deltas, mu: float) -> list[np.ndarray]:
    """Analytic gradient of ortho_loss with respect to each delta.

    d/d(delta_i) = 2 sum_{j != i} X_j X_j^T X_i + 2 mu delta_i,
    with X_k = W_k + delta_k. For the stacked group that is the block of
    columns of 2 X G_off + 2 mu D belonging to member i, so the work stays
    at Gram size, and the gradient is exactly zero on a mutually orthogonal
    group with zero deltas.
    """
    widths, d, x, g, _ = _stacked(mats, deltas)
    return np.hsplit(_grad(x, g, d, mu), np.cumsum(widths[:-1]))


def gram_descent(gram, widths, config: OrthoConfig):
    """Projected gradient descent on the stacked group W = [W_1 ... W_n] of these
    member widths, from its Gram G = W^T W; returns (E, stats), the perturbation
    D = W E. A step is accepted only if the total loss strictly decreases and the
    cross-Gram part does not increase, so the lo trajectory is non-increasing.
    Each accepted iterate is projected member-wise onto ||delta_i||_F <=
    max_rel_perturbation * ||W_i||_F; the trial step doubles after an accepted
    step and halves on a rejected trial. D stays in W's column span whatever W's
    shape, so the descent runs on the R x R coordinates E, weighed by G, and each
    coordinate step is the explicit step on D.

    Trials reuse seven R x R buffers through out= arguments that keep each
    operation's operands and order: the bits of the expressions in the comments."""
    starts = np.cumsum([0, *widths[:-1]])
    own = ~_owner_mask(widths)
    g, initial_lo = _off_gram(gram.copy(), own)
    z, z_norms = np.zeros_like(gram), np.zeros(len(widths))
    if initial_lo == 0.0:  # nothing to remove, as in every one-member group
        return z, OrthoStats(0.0, 0.0, 0, 0, "converged", z_norms.tolist(), [0.0])
    member_norms = np.sqrt(np.add.reduceat(np.diag(gram), starts))
    total_sq = float(member_norms @ member_norms)
    mu = initial_lo / total_sq
    # target a hair inside the budget so the measured ratio ||d||/||W||
    # stays <= max_rel_perturbation after its own rounding
    caps = config.max_rel_perturbation * (1.0 - 1e-12) * member_norms
    t = config.step_size / (total_sq + mu)
    cur = cur_lo = initial_lo  # deltas are zero so the penalty term starts at 0
    trajectory, trials, stop_reason = [initial_lo], 0, "step_cap"
    grad, trial, g_trial, new_x, new_g = (np.empty_like(gram) for _ in range(5))
    for _ in range(config.max_steps):
        _grad(_plus_identity(z, trial), g, z, mu, out=grad, tmp=trial)
        for _ in range(_MAX_BACKTRACKS):
            trials += 1
            np.subtract(z, np.multiply(grad, t, out=trial), out=trial)  # trial = z - t * grad
            np.matmul(gram, trial, out=g_trial)  # W^T D, so ||D_i||^2 sums E * (G E) over member i's columns
            norms = np.sqrt(np.add.reduceat(np.einsum("ij,ij->j", trial, g_trial), starts))
            shrink = np.divide(caps, norms, out=np.ones_like(norms), where=norms > caps)
            cols = np.repeat(shrink, widths)
            trial *= cols
            g_trial *= cols
            _plus_identity(trial, new_x)
            penalty = mu * float(np.einsum("ij,ij->", trial, g_trial))  # before g_trial becomes gram + g_trial
            new_g, new_lo = _off_gram(np.matmul(new_x.T, np.add(gram, g_trial, out=g_trial), out=new_g), own)
            new = new_lo + penalty
            if new < cur and new_lo <= cur_lo:
                break
            t *= 0.5
        else:
            # no halving lowers the loss: at Lo's floor that is convergence
            stop_reason = "converged" if cur_lo <= _REL_LOSS_TOL * initial_lo else "stalled"
            break
        rel_change = (cur - new) / cur
        z, trial, g, new_g = trial, z, new_g, g
        z_norms, cur, cur_lo = norms * shrink, new, new_lo
        trajectory.append(cur_lo)
        t *= 2.0
        if rel_change < _REL_LOSS_TOL:
            stop_reason = "converged"
            break

    rels = z_norms / np.where(member_norms > 0, member_norms, np.inf)
    return z, OrthoStats(initial_lo, cur_lo, len(trajectory) - 1, trials, stop_reason, rels.tolist(), trajectory)


def orthogonalize_group(mats, config: OrthoConfig | None = None):
    """gram_descent() on the group; returns (perturbed members, views of one array; stats)."""
    mats, _ = _check_group(mats)
    widths = [w.shape[1] for w in mats]
    w = np.hstack(mats)
    z, stats = gram_descent(w.T @ w, widths, config or OrthoConfig())
    return np.hsplit(w + w @ z, np.cumsum(widths[:-1])), stats
