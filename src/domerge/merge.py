"""Layer-wise merging of aligned adapters.

The main method orthogonalizes each layer's low-rank factor groups, splits
each adapter's task matrix s_i B_i A_i into magnitudes and directions, and
merges the two separately: delta = lam * (sum_i alpha_i) applied to
(sum_j direction_j). Task-arithmetic summation and uniform averaging are
baselines, and both stages can be disabled independently; with both off
the main method is exactly the task-arithmetic code path.

Every method works on a layer's decoded stacks B = [B_1 ... B_n] (m x R)
and A = [A_1; ...; A_n] (R x n), R = sum_i rank_i: descent, decoupling and
unit norms are R x R algebra on their Grams, whatever the layer's shape, and
the merged delta is B (in row mode another m x R matrix) times one R x n
factor. A MergedLayer keeps the two factors; output_blocks renders them per
output mode as the f32 row blocks that are written, with no m x n array of
any kind, and write_merged streams a whole merge into one checkpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import (
    LORA_A_SUFFIX,
    LORA_B_SUFFIX,
    AlignmentError,
    LoraLayer,
    TensorRecord,
    save_checkpoint,
)
from .linalg import MAGNITUDE_MODES, _floor_degenerate
from .ortho import OrthoConfig, OrthoStats, gram_descent

METHODS = ("do_merging", "task_arithmetic", "average")

_RENDER_BLOCK_BYTES = 512 << 10  # size of the reused f32 output block one row block is rendered into
_BASE_PIECE_BYTES = 128 << 10  # stored bytes of base rows read and added to a block at a time

# Hugging Face PEFT saves adapter keys under this prefix; the base model's keys lack it
_PEFT_PREFIX = "base_model.model."


@dataclass(frozen=True)
class MergeConfig:
    """All merge tunables.

    lam: merging coefficient applied to the combined delta. None resolves to
        1 / n^2 at merge time, which makes the magnitude-sum convention
        equivalent to averaging both components (and reduces to 1/4 for two
        adapters). Explicit values override; average always applies 1 / n.
    ortho: factor-group orthogonalization settings, or None to disable.
    decouple_enabled: when False, directions and magnitudes are not split
        and the merged delta is lam * sum of task matrices.
    The baselines run neither stage, so their config reads ortho=None, decouple_enabled=False.
    """

    lam: float | None = None
    magnitude_mode: str = "column"
    method: str = "do_merging"
    ortho: OrthoConfig | None = field(default_factory=OrthoConfig)
    decouple_enabled: bool = True

    def __post_init__(self):
        if self.lam is not None and not 0 < self.lam < math.inf:
            raise ValueError("lam must be positive and finite")
        if self.magnitude_mode not in MAGNITUDE_MODES:
            raise ValueError(f"unknown magnitude mode {self.magnitude_mode!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "average" and self.lam is not None:
            raise ValueError("the average method applies 1/n and takes no lambda")
        if self.method != "do_merging":
            object.__setattr__(self, "ortho", None)
            object.__setattr__(self, "decouple_enabled", False)

    def resolve_lam(self, n: int) -> float:
        """The scale the merge applies to n adapters."""
        if self.method == "average":
            return 1.0 / n
        return self.lam if self.lam is not None else 1.0 / (n * n)


@dataclass(frozen=True)
class MergedLayer:
    """One merged layer as the rank-R product left @ right, R = sum of adapter ranks."""

    layer_key: str
    left: np.ndarray  # (m, R)
    right: np.ndarray  # (R, n)
    ortho_stats: dict[str, OrthoStats] | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return (self.left.shape[0], self.right.shape[1])

    @property
    def delta(self) -> np.ndarray:
        """The dense merged delta, formed on each access."""
        return self.left @ self.right


def assemble_full_rank(layer: LoraLayer) -> np.ndarray:
    """scaling * (B @ A), the layer's full-rank task matrix."""
    return layer.scaling * (layer.B @ layer.A)


def _grams(left, right, s):
    """The R x R Grams S_B^T S_B and S_A S_A^T, S_B = left diag(s) and S_A = right."""
    return (left.T @ left) * np.outer(s, s), right @ right.T


def _unit_magnitudes(gram, right, ranks, mode: str, left=None) -> list[np.ndarray]:
    """decouple()'s magnitudes of each W_i = L_i right_i from the r_i x r_i blocks
    of gram = L^T L and right right^T (row mode: of L = left), no W_i formed."""
    bounds, mags = np.cumsum([0, *ranks]), []
    for i, j in zip(bounds, bounds[1:]):
        a = right[i:j]
        if mode == "matrix":
            sq = np.vdot(gram[i:j, i:j], a @ a.T)[None]
        else:  # quadratic forms in the columns of A_i, or of L_i^T
            x, q = (left[:, i:j].T, a @ a.T) if mode == "row" else (a, gram[i:j, i:j])
            sq = np.einsum("ij,ij->j", x, q @ x)
        mags.append(_floor_degenerate(np.sqrt(np.maximum(sq, 0.0))))
    return mags


def _merged_factors(stacks, config: MergeConfig):
    """(L, R, ortho stats) of stacks = AdapterSet.stacks' (B, A, s, ranks), merged
    delta L @ R = B K A~ lam: B the B stack as given, K = diag(s) (I + E_B),
    A~ = (I + E_A)^T A decoupled in place. Both groups descend in R x R
    coordinates (ortho.gram_descent), A on transposes; row mode scales the
    rows of B K, and then L is that matrix and K = I. Every method ends in
    the scaling by lam K, so the fully ablated method is task_arithmetic
    bitwise. Passed the only reference to stacks, the call frees A once A~
    is formed (with no descent, R is A scaled in place)."""
    left, right, s, ranks = stacks
    del stacks
    r, k, stats = right.shape[0], s, None  # k: K, or its diagonal
    if config.ortho is not None or config.decouple_enabled:
        gram, gram_a = _grams(left, right, s)  # gram: of left K
    if config.ortho is not None:
        z, b_stats = gram_descent(gram, ranks, config.ortho)
        ie = np.eye(r) + z
        k, gram = s[:, None] * ie, ie.T @ gram @ ie
        z, a_stats = gram_descent(gram_a, ranks, config.ortho)
        right = (np.eye(r) + z).T @ right
        stats = {"B": b_stats, "A": a_stats}
    if config.decouple_enabled:
        if config.magnitude_mode == "row":
            left, k = (left @ k if k.ndim == 2 else left * k), np.ones(r)
        mags = _unit_magnitudes(gram, right, ranks, config.magnitude_mode, left)
        alpha, bounds = sum(mags), np.cumsum([0, *ranks])
        units = left.T if config.magnitude_mode == "row" else right  # rows of units, scaled in place
        for i, j, c in zip(bounds, bounds[1:], mags):
            units[i:j] *= np.divide(alpha, c, out=np.zeros_like(c), where=c > 0)
    k = config.resolve_lam(len(ranks)) * k
    return left, (k @ right if k.ndim == 2 else np.multiply(right, k[:, None], out=right)), stats


def _abs_max(x, axis):
    """The largest |entry| of each row (axis 1) or column (axis 0) of x, 0 if empty."""
    return np.maximum(x.max(axis=axis, initial=0.0), -x.min(axis=axis, initial=0.0))


def _gram_roots(gram):
    """(sqrt of eigenvalues, eigenvectors) of a symmetric PSD Gram, keeping the
    eigenvalues above R eps64 times the largest (none of a zero Gram)."""
    lam, vec = np.linalg.eigh(gram)
    keep = lam > gram.shape[0] * np.finfo(np.float64).eps * lam[-1]
    return np.sqrt(lam[keep]), vec[:, keep]


def _truncated_factors(left, right, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Best rank-r factors (B, A) of left @ right, 1 <= r <= min(m, n), singular
    values folded into B; components past the product's rank are zero.

    No m x R or n x R basis is formed. Each rank-1 term is first balanced by
    exact powers of two, as in _render_f32 (right's row k by 2^-e_k, left's
    column k by 2^e_k), then left as a whole by 2^-s so its largest |entry|
    is below 1. With L^T L = V_l S_l^2 V_l^T, R R^T = V_r S_r^2 V_r^T
    (_gram_roots) and the SVD U Sigma W^T of the core (V_l S_l)^T (V_r S_r),
    B = L V_l S_l^-1 U_r Sigma_r 2^s and A = W_r^T S_r^-1 V_r^T R.

    Gram eigenvalues at or below R eps64 lambda_max are dropped, so at
    r >= rank(left @ right) the product is exact but for those components;
    tests/ checks ||B A - T_r||_F <= 8 eps32 sum_k ||left[:, k]|| ||right[k]||
    against the dense f64 truncation T_r on ill-scaled, ill-conditioned and
    rank-deficient stacks.
    """
    _, e = np.frexp(_abs_max(right, 1))
    right = np.ldexp(right, -e[:, None])
    _, s = np.frexp(np.ldexp(_abs_max(left, 0), e).max(initial=0.0))
    left = np.ldexp(left, e - s)
    s_l, v_l = _gram_roots(left.T @ left)
    s_r, v_r = _gram_roots(right @ right.T)
    u, sigma, wt = np.linalg.svd((v_l * s_l).T @ (v_r * s_r), full_matrices=False)
    k = min(r, sigma.size)
    b = np.ldexp(left @ ((v_l / s_l) @ (u[:, :k] * sigma[:k])), s)
    a = ((wt[:k] / s_r) @ v_r.T) @ right
    return np.pad(b, ((0, 0), (0, r - k))), np.pad(a, ((0, r - k), (0, 0)))


def merge_layer(layers: list[LoraLayer], config: MergeConfig) -> MergedLayer:
    """Merge one aligned layer group into the factors of its merged delta.
    Non-finite factors are a ValueError naming the layer and the adapter's index."""
    if not layers:
        raise ValueError("empty layer group")
    shapes = {layer.full_shape for layer in layers}
    if len(shapes) > 1:
        raise AlignmentError(f"layer group has conflicting shapes {sorted(shapes)}")
    for i, layer in enumerate(layers):
        if not (np.isfinite(layer.B).all() and np.isfinite(layer.A).all()):
            raise ValueError(f"layer {layer.layer_key!r}: adapter {i} has non-finite factors")
    ranks, b, a = [layer.rank for layer in layers], [layer.B for layer in layers], [layer.A for layer in layers]
    s = np.repeat([layer.scaling for layer in layers], ranks)
    return MergedLayer(layers[0].layer_key, *_merged_factors((np.hstack(b), np.vstack(a), s, ranks), config))


def resolve_base_key(base: dict, layer_key: str) -> str:
    """Base-checkpoint key holding this layer's pretrained weights.

    Accepts the layer key verbatim or with a trailing ".weight", matching
    how checkpoints usually name the module weight the adapter targets,
    and then both again with a leading PEFT "base_model.model." removed.
    """
    module = layer_key.removeprefix(_PEFT_PREFIX)
    for candidate in (layer_key, layer_key + ".weight", module, module + ".weight"):
        if candidate in base:
            return candidate
    raise AlignmentError(f"base checkpoint has no weights for layer {layer_key!r}")


def _render_f32(left, right, base=None):
    """Yield (left @ right + base) as consecutive f32 row blocks, the product
    formed in f32.

    Each rank-1 term is rescaled by an exact power of two: right's row k by
    2^-e_k, e_k the exponent of the row's largest |entry|, and left's column
    k by 2^e_k, into f32 copies made once (right's first), each dropping this
    generator's reference to its f64 factor. One f32 GEMM writes each row
    block into the reused output buffer of about _RENDER_BLOCK_BYTES, which is
    yielded: it is valid until the next block is asked for. The same rows of base (an
    m x n TensorRecord) are read and added in pieces of at most
    _BASE_PIECE_BYTES stored bytes, through one reused buffer (and one to
    widen bf16). No m x n array exists. Overflow is silent: the block is
    non-finite. No rows is one empty block.

    In f32's normal range the rescale changes no bit of the f32 product, and
    an entry of left overflows f32 only where its term of the product does,
    so against the f64 oracle each entry is within the GEMM rounding bound
    (Higham 2002, section 3.5) |out - (left @ right + base)| <=
    (R + 2) eps32 (|left| @ |right|) + eps32 |left @ right + base|, R the
    inner dimension and eps32 = 2^-23. A layer any of whose rank-1 terms
    leaves f32's range renders non-finite (and the CLI exits 2), even if
    those terms would cancel in the sum.
    """
    m, n = left.shape[0], right.shape[1]
    rows = max(1, _RENDER_BLOCK_BYTES // (4 * max(n, 1)))
    _, exp = np.frexp(_abs_max(right, 1))
    right = np.ldexp(right, -exp[:, None], out=np.empty(right.shape, np.float32))
    with np.errstate(over="ignore"):
        left = np.ldexp(left, exp, out=np.empty(left.shape, np.float32))
    out = np.empty((min(rows, m), n), dtype=np.float32)
    if base is not None:
        piece = min(rows, max(1, _BASE_PIECE_BYTES // (base.storage.itemsize * max(n, 1))))
        stored = np.empty((min(piece, m), n), dtype=base.storage)
        wide = np.empty(stored.shape, dtype=np.uint32) if base.dtype == "bf16" else None
    for i in range(0, max(m, 1), rows):
        k = min(rows, m - i)
        with np.errstate(over="ignore", invalid="ignore"):
            block = np.matmul(left[i : i + k], right, out=out[:k])
            if base is not None:
                for j in range(0, k, piece):
                    p = min(piece, k - j)
                    part = base.rows(i + j, i + j + p)
                    block[j : j + p] += part.values(stored[:p], None if wide is None else wide[:p])
        yield block


def output_shapes(layer_key: str, shape, mode: str, rank: int | None = None, base=None) -> dict:
    """The keys and shapes of the tensors a layer of this key and full shape
    contributes to an output checkpoint, in the order output_blocks renders them.

    "delta": the bare layer key. "fused": the base's key for the layer, whose
    record must have the layer's shape; base is a load_checkpoint record map.
    "lowrank": a lora_B / lora_A weight pair of rank `rank`, 1 <= rank <=
    min(shape). Nothing is merged, so a writer can lay out the file, and
    reject a bad base or rank, before the first layer is merged.
    """
    m, n = shape
    if mode == "delta":
        return {layer_key: (m, n)}
    if mode == "fused":
        if base is None:
            raise ValueError("fused output mode requires a base checkpoint")
        base_key = resolve_base_key(base, layer_key)
        if base[base_key].shape != (m, n):
            raise AlignmentError(f"base {base_key!r} has shape {base[base_key].shape}, delta has {(m, n)}")
        return {base_key: (m, n)}
    if mode == "lowrank":
        if rank is None or not 1 <= rank <= min(m, n):
            raise ValueError(f"rank {rank} out of range for shape {(m, n)}")
        return {layer_key + LORA_B_SUFFIX: (m, rank), layer_key + LORA_A_SUFFIX: (rank, n)}
    raise ValueError(f"unknown output mode {mode!r}")


def output_blocks(merged: MergedLayer, mode: str, rank: int | None = None, base=None):
    """Yield (key, f32 row block) pairs of the tensors one merged layer
    contributes to an output checkpoint, each tensor's blocks in row order.

    Keys, shapes and errors are output_shapes'. "delta": the merged delta;
    "fused": base weights plus the delta; "lowrank": the best rank-`rank`
    factors, one block each, computed in f64 from two R x R Gram
    eigendecompositions (_truncated_factors, within its stated bound of the
    dense truncation) and rounded to f32 once. Delta
    and fused blocks are _render_f32's f32 products, within its stated bound
    of the f64 oracle; each views a buffer the next block reuses. merged is
    dropped before the first block, so given the only reference to it, its
    f64 factors are freed once their f32 copies or truncations are made.
    """
    keys = list(output_shapes(merged.layer_key, merged.shape, mode, rank, base))
    if mode == "lowrank":
        b, a = _truncated_factors(merged.left, merged.right, rank)
        del merged
        yield keys[0], b.astype(np.float32)
        yield keys[1], a.astype(np.float32)
    else:
        blocks = _render_f32(merged.left, merged.right, base[keys[0]] if mode == "fused" else None)
        del merged
        for block in blocks:
            yield keys[0], block


def _stats_dict(stats: OrthoStats) -> dict:
    """The summary fields of one factor group's descent, without its trajectory."""
    return {
        "initial_lo": stats.initial_lo,
        "final_lo": stats.final_lo,
        "steps_taken": stats.steps_taken,
        "trials": stats.trials,
        "stop_reason": stats.stop_reason,
        "max_rel_perturbation": max(stats.per_member_rel_perturbation, default=0.0),
    }


def write_merged(adapters, config: MergeConfig, path, mode: str = "delta", rank: int | None = None, base=None):
    """Merge the AdapterSet and write output_blocks' f32 tensors to path;
    return each layer's summary entry, {layer_key: {"shape": [m, n], "ortho":
    {group: _stats_dict of its descent}}}, "ortho" only when the descent ran,
    each kept as the layer finishes and its OrthoStats dropped.

    The header is laid out from output_shapes first, so a bad base or rank,
    or two layers writing one tensor (an AlignmentError naming both), fails
    before any merge. Each layer's stacks (AdapterSet.stacks) then go to
    _merged_factors and its MergedLayer to output_blocks, each call given the
    only reference, and its blocks are checked finite and streamed, so one
    layer's factors are held once, in f64 until rendered. path is always
    replaced, and left as it was on any error, a non-finite block's ValueError too.
    """
    layout, owners = {}, {}
    for layer_key in adapters.layer_keys:
        for key, shape in output_shapes(layer_key, adapters.full_shape(layer_key), mode, rank, base).items():
            if key in owners:
                raise AlignmentError(f"layers {owners[key]!r} and {layer_key!r} both write output tensor {key!r}")
            owners[key] = layer_key
            layout[key] = ("f32", shape)
    stats = {}

    def records():
        for layer_key in adapters.layer_keys:
            left, right, ortho = _merged_factors(adapters.stacks(layer_key), config)
            stats[layer_key] = {"shape": [left.shape[0], right.shape[1]]}
            if ortho is not None:
                stats[layer_key]["ortho"] = {g: _stats_dict(st) for g, st in ortho.items()}
            blocks = output_blocks(MergedLayer(layer_key, left, right), mode, rank, base)
            del left, right
            for key, block in blocks:
                if not np.isfinite(block).all():
                    raise ValueError(f"merged tensor {key!r} is not finite; {path} not written")
                yield key, TensorRecord.from_array(key, block, "f32")
            del blocks, block

    save_checkpoint(records(), path, layout=layout)
    return stats
