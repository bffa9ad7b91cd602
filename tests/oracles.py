"""Dense reference formulations the factored engine is checked against.

These are the original pairwise-loop orthogonalizer, the dense
decouple-and-sum layer merge of (B, A, scaling) factor triples, a dense
truncated SVD and the f64 product the f32 render is bounded against, and
the diagnostics report from dense task matrices. They form every m x n
task matrix and loop over member pairs, which is exactly what the package
code avoids; tests compare the two at stated tolerances. merged_factors is
no oracle: it runs write_merged's own merge on such triples, densely joined;
nor is layer_outputs, which writes one merged layer through write_merged and
reads it back. The whole-set helpers at the end hold every layer, or a whole
output tensor, at once, which the CLI's layer-at-a-time stream avoids.
"""

import tempfile
from pathlib import Path

import numpy as np

from domerge.checkpoint import AdapterSet, TensorRecord, load_checkpoint
from domerge.linalg import Decoupled, decouple, recompose
from domerge.merge import MergeConfig, _merged_factors, write_merged
from domerge.ortho import _MAX_BACKTRACKS, _REL_LOSS_TOL, OrthoStats


EPS32 = 2.0**-23  # f32 machine epsilon


def assert_within_render_bound(out, left, right, base=None) -> None:
    """out is finite and within the f32 GEMM rounding bound (Higham 2002, section
    3.5) of the f64 oracle left @ right + base, elementwise:
    |out - oracle| <= (R + 2) eps32 (|left| @ |right|) + eps32 |oracle|."""
    oracle = left @ right if base is None else left @ right + base
    bound = (left.shape[1] + 2) * EPS32 * (np.abs(left) @ np.abs(right)) + EPS32 * np.abs(oracle)
    assert out.shape == oracle.shape and np.isfinite(out).all()
    err = np.abs(np.asarray(out, dtype=np.float64) - oracle)
    assert (err <= bound).all(), f"max error {err.max():.3g} over bound at {np.argmax(err - bound)}"


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
    """The projected, backtracking descent on full-size member matrices, with
    the package's step rule: double after an accepted step, halve on a rejected trial."""
    mats = [np.asarray(w, dtype=np.float64) for w in mats]
    member_norms = [float(np.linalg.norm(w)) for w in mats]
    deltas = [np.zeros_like(w) for w in mats]
    initial_lo = cross_gram_sum(mats)
    if initial_lo == 0.0:
        zeros = [0.0] * len(mats)
        return [w.copy() for w in mats], OrthoStats(0.0, 0.0, 0, 0, "converged", zeros, [0.0])

    total_sq = sum(v * v for v in member_norms)
    mu = initial_lo / total_sq
    caps = [config.max_rel_perturbation * (1.0 - 1e-12) * v for v in member_norms]
    t = config.step_size / (total_sq + mu)

    cur_lo = cur = initial_lo
    trajectory = [initial_lo]
    trials = 0
    stop_reason = "step_cap"
    for _ in range(config.max_steps):
        grads = pairwise_grad(mats, deltas, mu)
        accepted = None
        for _ in range(_MAX_BACKTRACKS):
            trials += 1
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
            stop_reason = "converged" if cur_lo <= _REL_LOSS_TOL * initial_lo else "stalled"
            break
        trial, new, new_lo = accepted
        rel_change = (cur - new) / cur
        deltas, cur, cur_lo = trial, new, new_lo
        trajectory.append(cur_lo)
        t *= 2.0
        if rel_change < _REL_LOSS_TOL:
            stop_reason = "converged"
            break

    rels = [float(np.linalg.norm(d) / v) if v > 0 else 0.0 for d, v in zip(deltas, member_norms)]
    stats = OrthoStats(
        initial_lo, cur_lo, len(trajectory) - 1, trials, stop_reason, rels, trajectory
    )
    return [w + d for w, d in zip(mats, deltas)], stats


def task_matrix(layer) -> np.ndarray:
    """s B A, the dense full-rank task matrix of one adapter's (B, A, s) layer."""
    b, a, s = layer
    return s * (b @ a)


def dense_merge_delta(layers, config) -> np.ndarray:
    """Merged delta of one layer group of (B, A, scaling) triples from per-adapter m x n task matrices."""
    lam = config.resolve_lam(len(layers))
    if config.ortho is not None:
        b_hat, _ = descend([s * b for b, _, s in layers], config.ortho)
        a_hat_t, _ = descend([a.T for _, a, _ in layers], config.ortho)
        products = [bh @ ah.T for bh, ah in zip(b_hat, a_hat_t)]
    else:
        products = [task_matrix(layer) for layer in layers]
    if not config.decouple_enabled:
        return lam * sum(products)
    parts = [decouple(w, config.magnitude_mode) for w in products]
    alpha = sum(p.magnitude for p in parts)
    direction = sum(p.direction for p in parts)
    return lam * recompose(Decoupled(alpha, direction, config.magnitude_mode))


def merged_factors(layers, config, key="l"):
    """(left, right, ortho stats) of write_merged's merge of one layer group of
    (B, A, scaling) f64 triples: merge._merged_factors, given each B as an
    exact in-memory f64 record and a new A stack, with the merged left factor
    joined into one dense m x R array. The stats are {"B": OrthoStats, "A":
    OrthoStats}, or None when no descent ran."""
    ranks = [b.shape[1] for b, _, _ in layers]
    records = [TensorRecord.from_array(key, b, "f64") for b, _, _ in layers]
    a, s = np.vstack([a for _, a, _ in layers]), np.repeat([s for _, _, s in layers], ranks)
    left, right, stats = _merged_factors(key, (records, a, s, ranks), config)
    return np.hstack([rec.values() for rec in left]), right, stats


def decoded_group(adapters, key) -> list:
    """The layer in every adapter of an AdapterSet as a (B, A, scaling) triple,
    each factor decoded on its own to a new f64 array: what AdapterSet.factors
    decodes into its A stack, and the merge reads from the B records in pieces."""
    pairs = [adapter[key] for adapter in adapters.adapters]
    return [(b.to_array(), a.to_array(), s) for (b, a), s in zip(pairs, adapters.scalings)]


def dense_report(adapters):
    """(magnitude_variance, per_layer_cross_gram, per_layer_magnitude_stats) of
    build_report, from each layer's dense W_i = s_i B_i A_i: the sum over layers
    of the variance of ||W_i||_F, ||W_i^T W_j||_F, and ||column norms of W_i||
    after decouple()'s floor."""
    variance, grams, stats = 0.0, {}, {}
    for key in adapters.layer_keys:
        ws = [task_matrix(layer) for layer in decoded_group(adapters, key)]
        variance += float(np.var([decouple(w, "matrix").magnitude[0] for w in ws]))
        grams[key] = np.array([[np.linalg.norm(wi.T @ wj) for wj in ws] for wi in ws])
        stats[key] = [float(np.linalg.norm(decouple(w, "column").magnitude)) for w in ws]
    return variance, grams, stats


def svd_truncate(w, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Best rank-r factorization (B, A) of the dense matrix w, singular values in B."""
    w = np.asarray(w, dtype=np.float64)
    if not (1 <= r <= min(w.shape)):
        raise ValueError(f"rank {r} out of range for shape {w.shape}")
    u, s, vt = np.linalg.svd(w, full_matrices=False)
    return u[:, :r] * s[:r], vt[:r]


def merge_adapter_set(adapters, config=None) -> dict:
    """Merge every aligned layer; returns layer_key -> merged_factors' (left, right, stats), sorted."""
    if config is None:
        config = MergeConfig()
    if adapters.n < 1:
        raise ValueError("need at least one adapter")
    return {key: merged_factors(decoded_group(adapters, key), config, key) for key in adapters.layer_keys}


def layer_outputs(key, left, right, mode: str, rank: int | None = None, base=None) -> dict:
    """The f32 tensors one merged layer left @ right of this key contributes to
    an output checkpoint, by key, as write_merged writes them: a one-adapter
    set, B = left and A = right as exact f64 records with scaling 1, merged
    with lam 1 and both stages off (whose merged factors are left and right
    themselves), written to a temporary file and read back."""
    pair = tuple(TensorRecord.from_array(key, f, "f64") for f in (left, right))
    adapters = AdapterSet([{key: pair}], ["a"], [1.0])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.safetensors"
        write_merged(adapters, MergeConfig(lam=1.0, ortho=None, decouple_enabled=False), path, mode, rank, base)
        return {name: rec.values() for name, rec in load_checkpoint(path).items()}
