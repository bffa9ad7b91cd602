"""Data-free group orthogonalization of same-height matrices.

Perturbs each member of a group by a small additive delta so that the pairwise
column-space Gram masses shrink, under a hard per-member budget on the
relative Frobenius size of the perturbation. Used on the low-rank factor
groups of a layer before merging; also runs directly on full-rank matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import _as_matrix

# line-search halvings before a step is declared stuck
_MAX_BACKTRACKS = 30
# the descent stops once an accepted step lowers the loss by less than this share
_REL_LOSS_TOL = 1e-6


@dataclass(frozen=True)
class OrthoConfig:
    """Tunables for the perturbation descent.

    step_size: initial trial step; internally scaled by
        1 / (sum_j ||W_j||_F^2 + mu) as a crude curvature estimate, then
        backtracked. The default is conservative; experiments that need the
        optimizer to actually converge on nearly-orthogonal groups should
        raise it (backtracking keeps any value safe).
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
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if not (0 < self.max_rel_perturbation < 1):
            raise ValueError("max_rel_perturbation must lie in (0, 1)")


@dataclass
class OrthoStats:
    initial_lo: float
    final_lo: float
    steps_taken: int
    per_member_rel_perturbation: list[float]
    # cross-Gram part of the loss after every accepted step, starting at the
    # initial value; non-increasing by construction of the acceptance rule
    lo_trajectory: list[float] = field(default_factory=list)


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


def _off_gram(x, off):
    """(G_off, Lo): X^T X of the stacked group with same-member blocks zeroed, and
    Lo = sum_{i<j} ||X_i^T X_j||_F^2 = ||G_off||_F^2 / 2, as G_off holds each cross block twice."""
    g = np.where(off, x.T @ x, 0.0)
    return g, 0.5 * float(np.vdot(g, g))


def _member_sq(x, starts) -> np.ndarray:
    """Squared Frobenius norm of each member's column block of x."""
    return np.add.reduceat(np.einsum("ij,ij->j", x, x), starts)


def _grad(x, g, d, mu):
    """2 X G_off + 2 mu D: the loss gradient for the stacked perturbed group X = W + D."""
    return 2.0 * x @ g + 2.0 * mu * d


def ortho_loss(mats, deltas, mu: float) -> float:
    """sum_{i<j} ||(W_i+d_i)^T (W_j+d_j)||_F^2 + mu * sum_i ||d_i||_F^2."""
    mats, deltas = _check_group(mats, deltas)
    d = np.hstack(deltas)
    _, lo = _off_gram(np.hstack(mats) + d, _owner_mask(mats))
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
    g, _ = _off_gram(x, _owner_mask(mats))
    return np.hsplit(_grad(x, g, d, mu), np.cumsum([w.shape[1] for w in mats[:-1]]))


def orthogonalize_group(mats, config: OrthoConfig | None = None):
    """Run projected gradient descent on the group; returns (perturbed, stats).

    Steps are accepted only when the total loss strictly decreases and the
    cross-Gram part does not increase, so the reported lo trajectory is
    non-increasing and final_lo <= initial_lo holds unconditionally. Each
    accepted iterate is projected member-wise onto the perturbation ball
    ||delta_i||_F <= max_rel_perturbation * ||W_i||_F.

    Every gradient 2 X G_off + 2 mu D and projection keeps D in the span of
    the stacked group W = [W_1 ... W_n], so when W has more rows than its R
    columns the descent runs on C in W = Q C, at R x R cost per trial, and
    maps back once. The perturbed members are column blocks of one array.
    """
    if config is None:
        config = OrthoConfig()
    mats, _ = _check_group(mats)
    if len(mats) == 1:
        return [mats[0].copy()], OrthoStats(0.0, 0.0, 0, [0.0], [0.0])
    widths = [w.shape[1] for w in mats]
    starts = np.cumsum([0] + widths[:-1])
    off = _owner_mask(mats)
    w = np.hstack(mats)
    member_norms = np.sqrt(_member_sq(w, starts))
    g, initial_lo = _off_gram(w, off)
    q, c = np.linalg.qr(w) if w.shape[0] > w.shape[1] else (None, w)

    total_sq = float(member_norms @ member_norms)
    mu = initial_lo / total_sq if total_sq > 0 else 0.0
    # target a hair inside the budget so the measured ratio ||d||/||W||
    # stays <= max_rel_perturbation after its own rounding
    caps = config.max_rel_perturbation * (1.0 - 1e-12) * member_norms
    t_base = config.step_size / (total_sq + mu) if (total_sq + mu) > 0 else config.step_size

    d = np.zeros_like(c)
    cur = cur_lo = initial_lo  # deltas are zero so the penalty term starts at 0
    trajectory = [initial_lo]
    for _ in range(config.max_steps):
        grad = _grad(c + d, g, d, mu)
        t = t_base
        for _ in range(_MAX_BACKTRACKS):
            trial = d - t * grad
            norms = np.sqrt(_member_sq(trial, starts))
            shrink = np.divide(caps, norms, out=np.ones_like(norms), where=norms > caps)
            trial *= np.repeat(shrink, widths)
            new_g, new_lo = _off_gram(c + trial, off)
            new = new_lo + mu * float(np.vdot(trial, trial))
            if new < cur and new_lo <= cur_lo:
                break
            t *= 0.5
        else:
            break
        rel_change = (cur - new) / cur if cur > 0 else 0.0
        d, g, cur, cur_lo = trial, new_g, new, new_lo
        trajectory.append(cur_lo)
        if rel_change < _REL_LOSS_TOL:
            break

    rels = np.sqrt(_member_sq(d, starts)) / np.where(member_norms > 0, member_norms, np.inf)
    stats = OrthoStats(
        initial_lo=initial_lo,
        final_lo=cur_lo,
        steps_taken=len(trajectory) - 1,
        per_member_rel_perturbation=rels.tolist(),
        lo_trajectory=trajectory,
    )
    out = w + (d if q is None else q @ d)
    return np.hsplit(out, starts[1:]), stats
