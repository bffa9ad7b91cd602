"""Layer-wise merging of aligned adapters.

The main method orthogonalizes each layer's low-rank factor groups, splits
each adapter's task matrix B_i A_i into magnitudes and directions, and
merges the two components separately:

    delta = lam * (sum_i alpha_i) applied to (sum_j direction_j)

Plain task-arithmetic summation and uniform averaging are kept as baselines,
and both pipeline stages can be disabled independently so ablations are
scriptable. With both stages off the main method degenerates to exactly the
task-arithmetic code path.

Every method works on factors: the merged delta is one product of an
m x R and an R x n stack, R = sum_i rank_i, unit norms come from rank_i x
rank_i Grams, and no per-adapter m x n matrix is formed.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import AdapterSet, AlignmentError, LoraLayer
from .linalg import MAGNITUDE_MODES
from .ortho import OrthoConfig, OrthoStats, orthogonalize_group

METHODS = ("do_merging", "task_arithmetic", "average")
OUTPUT_MODES = ("delta", "fused", "lowrank")


@dataclass(frozen=True)
class MergeConfig:
    """All merge tunables.

    lam: merging coefficient applied to the combined delta. None resolves to
        1 / n^2 at merge time, which makes the magnitude-sum convention
        equivalent to averaging both components (and reduces to 1/4 for two
        adapters). Explicit values override.
    ortho: factor-group orthogonalization settings, or None to disable.
    decouple_enabled: when False, directions and magnitudes are not split
        and the merged delta is lam * sum of task matrices.
    output_mode: "delta" emits the merged delta, "fused" adds it onto base
        weights, "lowrank" refactors it to rank lowrank_rank.
    """

    lam: float | None = None
    magnitude_mode: str = "column"
    method: str = "do_merging"
    ortho: OrthoConfig | None = field(default_factory=OrthoConfig)
    decouple_enabled: bool = True
    output_mode: str = "delta"
    lowrank_rank: int | None = None

    def __post_init__(self):
        if self.lam is not None and self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.magnitude_mode not in MAGNITUDE_MODES:
            raise ValueError(f"unknown magnitude mode {self.magnitude_mode!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.output_mode not in OUTPUT_MODES:
            raise ValueError(f"unknown output mode {self.output_mode!r}")
        if self.output_mode == "lowrank" and (self.lowrank_rank is None or self.lowrank_rank < 1):
            raise ValueError("lowrank output mode needs lowrank_rank >= 1")

    def resolve_lam(self, n: int) -> float:
        return self.lam if self.lam is not None else 1.0 / (n * n)


@dataclass
class MergedLayer:
    layer_key: str
    delta: np.ndarray
    fused: np.ndarray | None = None
    lowrank: tuple[np.ndarray, np.ndarray] | None = None
    ortho_stats: dict[str, OrthoStats] | None = None


def assemble_full_rank(layer: LoraLayer) -> np.ndarray:
    """scaling * (B @ A), the layer's full-rank task matrix."""
    return layer.scaling * (layer.B @ layer.A)


def _factors(layers):
    """Each adapter's (scaling * B_i, A_i), the factors of its task matrix."""
    return [layer.scaling * layer.B for layer in layers], [layer.A for layer in layers]


def _orthogonalized_factors(bs, as_, config: OrthoConfig):
    """Orthogonalize the B group directly and the A group transposed.

    B factors (m x r_i) share their row count, so their column-space Gram
    terms are comparable even when ranks differ. A factors (r_i x n) only
    share the column count, so the group runs on transposes: that drives the
    row spaces of the A's apart, which is the subspace each adapter actually
    spans, and it keeps mixed-rank groups well-shaped.
    """
    b_hat, b_stats = orthogonalize_group(bs, config)
    a_hat_t, a_stats = orthogonalize_group([a.T for a in as_], config)
    return b_hat, [a.T for a in a_hat_t], {"B": b_stats, "A": a_stats}


def _unit_magnitudes(bs, as_, mode: str) -> list[np.ndarray]:
    """decouple()'s magnitudes of each W_i = B_i A_i, without forming W_i.

    Column, row or whole-matrix norms are quadratic forms in the r_i x r_i
    Grams B_i^T B_i and A_i A_i^T. As in decouple(), units with norm at or
    below 1e-12 ||W_i||_F / sqrt(units) are degenerate and get magnitude 0.
    """
    if mode == "column":
        sq = [np.einsum("ij,ij->j", a, (b.T @ b) @ a) for b, a in zip(bs, as_)]
    elif mode == "row":
        sq = [np.einsum("ij,ij->i", b, b @ (a @ a.T)) for b, a in zip(bs, as_)]
    else:
        sq = [np.array([np.vdot(b.T @ b, a @ a.T)]) for b, a in zip(bs, as_)]
    norms = [np.sqrt(np.maximum(s, 0.0)) for s in sq]
    return [np.where(c > 1e-12 * np.linalg.norm(c) / np.sqrt(c.size), c, 0.0) for c in norms]


def _decoupled_factors(bs, as_, mode: str):
    """Rescale each adapter's factors so sum_i B_i A_i is the decoupled merge over lam.

    Summing the directions W_i / c_i and recomposing with alpha = sum_i c_i
    gives sum_i W_i scaled per unit by alpha / c_i (0 on degenerate units),
    which lands on A_i's columns, B_i's rows, or either factor.
    """
    mags = _unit_magnitudes(bs, as_, mode)
    alpha = sum(mags)
    scales = [np.divide(alpha, c, out=np.zeros_like(c), where=c > 0) for c in mags]
    if mode == "row":
        return [b * s[:, None] for b, s in zip(bs, scales)], as_
    return bs, [a * s for a, s in zip(as_, scales)]


def _merged_factors(layers, config: MergeConfig):
    """(L, R, ortho stats) with merged delta L @ R. Every method ends in this one
    stacking, so the fully ablated main method is bit-identical to task_arithmetic."""
    n = len(layers)
    lam = 1.0 / n if config.method == "average" else config.resolve_lam(n)
    bs, as_ = _factors(layers)
    stats = None
    if config.method == "do_merging":
        if config.ortho is not None:
            bs, as_, stats = _orthogonalized_factors(bs, as_, config.ortho)
        if config.decouple_enabled:
            bs, as_ = _decoupled_factors(bs, as_, config.magnitude_mode)
    return np.hstack(bs), lam * np.vstack(as_), stats


def _truncated_factors(left, right, r: int) -> tuple[np.ndarray, np.ndarray]:
    """svd_truncate(left @ right, r) from QRs of the stacks and an SVD of the
    R x R core; components past the product's rank are zero."""
    m, n = left.shape[0], right.shape[1]
    if not (1 <= r <= min(m, n)):
        raise ValueError(f"rank {r} out of range for shape {(m, n)}")
    q_l, r_l = np.linalg.qr(left)
    q_r, r_r = np.linalg.qr(right.T)
    u, s, vt = np.linalg.svd(r_l @ r_r.T, full_matrices=False)
    k = min(r, s.size)
    us = np.pad(u[:, :k] * s[:k], ((0, 0), (0, r - k)))
    vt = np.pad(vt[:k], ((0, r - k), (0, 0)))
    return q_l @ us, vt @ q_r.T


def merge_layer(layers: list[LoraLayer], config: MergeConfig) -> MergedLayer:
    """Merge one aligned layer group into a MergedLayer carrying the delta (and lowrank factors)."""
    if not layers:
        raise ValueError("empty layer group")
    shapes = {layer.full_shape for layer in layers}
    if len(shapes) > 1:
        raise AlignmentError(f"layer group has conflicting shapes {sorted(shapes)}")
    left, right, stats = _merged_factors(layers, config)
    merged = MergedLayer(layer_key=layers[0].layer_key, delta=left @ right, ortho_stats=stats)
    if config.output_mode == "lowrank":
        merged.lowrank = _truncated_factors(left, right, config.lowrank_rank)
    return merged


def resolve_base_key(base: dict[str, np.ndarray], layer_key: str) -> str:
    """Base-checkpoint key holding this layer's pretrained weights.

    Accepts the layer key verbatim or with a trailing ".weight", matching
    how checkpoints usually name the module weight the adapter targets.
    """
    for candidate in (layer_key, layer_key + ".weight"):
        if candidate in base:
            return candidate
    raise AlignmentError(f"base checkpoint has no weights for layer {layer_key!r}")


def _resolve_base(base: dict[str, np.ndarray], layer_key: str) -> np.ndarray:
    return np.asarray(base[resolve_base_key(base, layer_key)], dtype=np.float64)


def merge_adapter_set(
    adapters: AdapterSet,
    base: dict[str, np.ndarray] | None = None,
    config: MergeConfig | None = None,
    threads: int = 1,
) -> dict[str, MergedLayer]:
    """Merge every aligned layer; returns layer_key -> MergedLayer, sorted.

    Layers are independent, so they may be processed on a thread pool; the
    result does not depend on the thread count.
    """
    if config is None:
        config = MergeConfig()
    if config.output_mode == "fused" and base is None:
        raise ValueError("fused output mode requires a base checkpoint")
    if adapters.n < 1:
        raise ValueError("need at least one adapter")
    keys = adapters.layer_keys

    def one(key: str) -> MergedLayer:
        merged = merge_layer(adapters.group(key), config)
        if config.output_mode == "fused":
            w_pre = _resolve_base(base, key)
            if w_pre.shape != merged.delta.shape:
                raise AlignmentError(
                    f"base weights for {key!r} have shape {w_pre.shape}, "
                    f"delta has {merged.delta.shape}"
                )
            merged.fused = w_pre + merged.delta
        return merged

    if threads > 1 and len(keys) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, keys))
    else:
        results = [one(k) for k in keys]
    return {k: m for k, m in zip(keys, results)}
