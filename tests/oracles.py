"""Dense reference formulations the factored engine is checked against.

These are the original pairwise-loop orthogonalizer and the dense
decouple-and-sum layer merge. They form every m x n task matrix and loop
over member pairs, which is exactly what the package code avoids; tests
compare the two at stated tolerances.
"""

import numpy as np

from domerge.linalg import Decoupled, decouple, recompose
from domerge.merge import assemble_full_rank
from domerge.ortho import _MAX_BACKTRACKS, OrthoStats


def cross_gram_sum(mats) -> float:
    """sum over pairs of ||W_i^T W_j||_F^2."""
    total = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            total += float(np.linalg.norm(mats[i].T @ mats[j]) ** 2)
    return total


def pairwise_loss(mats, deltas, mu: float) -> float:
    perturbed = [w + d for w, d in zip(mats, deltas)]
    reg = sum(float(np.linalg.norm(d) ** 2) for d in deltas)
    return cross_gram_sum(perturbed) + mu * reg


def pairwise_grad(mats, deltas, mu: float) -> list[np.ndarray]:
    """2 sum_{j != i} X_j X_j^T X_i + 2 mu delta_i for each member i."""
    x = [w + d for w, d in zip(mats, deltas)]
    grads = []
    for i in range(len(x)):
        g = 2.0 * mu * deltas[i]
        for j in range(len(x)):
            if j != i:
                g = g + 2.0 * x[j] @ (x[j].T @ x[i])
        grads.append(g)
    return grads


def descend(mats, config):
    """The projected, backtracking descent on full-size member matrices."""
    mats = [np.asarray(w, dtype=np.float64) for w in mats]
    n = len(mats)
    member_norms = [float(np.linalg.norm(w)) for w in mats]
    deltas = [np.zeros_like(w) for w in mats]
    initial_lo = cross_gram_sum(mats)
    if n == 1:
        return [w.copy() for w in mats], OrthoStats(0.0, 0.0, 0, [0.0], [0.0])

    total_sq = sum(v * v for v in member_norms)
    mu = config.mu
    if mu is None:
        mu = initial_lo / total_sq if total_sq > 0 else 0.0
    caps = [config.max_rel_perturbation * (1.0 - 1e-12) * v for v in member_norms]
    t_base = config.step_size / (total_sq + mu) if (total_sq + mu) > 0 else config.step_size

    cur_lo = cur = initial_lo
    trajectory = [initial_lo]
    for _ in range(config.max_steps):
        grads = pairwise_grad(mats, deltas, mu)
        t = t_base
        accepted = None
        for _ in range(_MAX_BACKTRACKS):
            trial = []
            for d, g, cap in zip(deltas, grads, caps):
                nd = d - t * g
                norm = np.linalg.norm(nd)
                if norm > cap:
                    nd = nd * (cap / norm)
                trial.append(nd)
            new = pairwise_loss(mats, trial, mu)
            new_lo = cross_gram_sum([w + d for w, d in zip(mats, trial)])
            if new < cur and new_lo <= cur_lo:
                accepted = (trial, new, new_lo)
                break
            t *= 0.5
        if accepted is None:
            break
        trial, new, new_lo = accepted
        rel_change = (cur - new) / cur if cur > 0 else 0.0
        deltas, cur, cur_lo = trial, new, new_lo
        trajectory.append(cur_lo)
        if rel_change < config.rel_loss_tol:
            break

    rels = [float(np.linalg.norm(d) / v) if v > 0 else 0.0 for d, v in zip(deltas, member_norms)]
    stats = OrthoStats(initial_lo, cur_lo, len(trajectory) - 1, rels, trajectory)
    return [w + d for w, d in zip(mats, deltas)], stats


def dense_merge_delta(layers, config) -> np.ndarray:
    """Merged delta of one layer group from per-adapter m x n task matrices."""
    n = len(layers)
    lam = config.resolve_lam(n)
    if config.method == "average":
        return sum(assemble_full_rank(layer) for layer in layers) / n
    if config.method == "task_arithmetic":
        return lam * sum(assemble_full_rank(layer) for layer in layers)
    if config.ortho is not None:
        b_hat, _ = descend([layer.scaling * layer.B for layer in layers], config.ortho)
        a_hat_t, _ = descend([layer.A.T for layer in layers], config.ortho)
        products = [bh @ ah.T for bh, ah in zip(b_hat, a_hat_t)]
    else:
        products = [assemble_full_rank(layer) for layer in layers]
    if not config.decouple_enabled:
        return lam * sum(products)
    parts = [decouple(w, config.magnitude_mode) for w in products]
    alpha = sum(p.magnitude for p in parts)
    direction = sum(p.direction for p in parts)
    return lam * recompose(Decoupled(alpha, direction, config.magnitude_mode))
