"""Layer-wise merging of aligned adapters.

The merge has two stages, each switched by one MergeConfig field: it
orthogonalizes each layer's low-rank factor groups (ortho), then splits each
adapter's task matrix s_i B_i A_i into magnitudes and directions and merges
the two separately (decouple_enabled): delta = lam * (sum_i alpha_i) applied
to (sum_j direction_j). With both stages off the merge is task arithmetic,
lam * sum_i s_i B_i A_i, and with lam = 1 / n the average; the CLI's --method
names these settings.

Every setting works on a layer's stored B records [B_1 ... B_n] (m x R) and decoded A
stack [A_1; ...; A_n] (R x n), R = sum_i rank_i: descent, decoupling and unit norms are
R x R algebra on their Grams, and the merged delta is B (in row mode another m x R matrix)
times one R x n factor. Every consumer of that left factor reads it through one reader,
_pieces, a row piece of at most one render block at a time, so outside row mode a layer
holds O(R n + R^2) plus one piece and one block, whatever m is. write_merged streams a
whole merge into one checkpoint as f32 row blocks, picking each layer's block source:
_render_f32 for delta and fused output, _truncated_factors for lowrank.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import (
    LORA_A_SUFFIX,
    LORA_B_SUFFIX,
    AlignmentError,
    TensorRecord,
    save_checkpoint,
)
from .linalg import MAGNITUDE_MODES, _floor_degenerate
from .ortho import OrthoConfig, OrthoStats, _plus_identity, gram_descent

_RENDER_BLOCK_BYTES = 512 << 10  # bytes of the reused f32 output block, and at most of one f64 piece of left
_BASE_PIECE_BYTES = 128 << 10  # stored bytes of base rows read, and f64 bytes of left decoded, at a time
_PRODUCT_COLUMNS = 256  # columns of the A stack one in-place product forms at a time
_MIN_EXP = -1100  # below the exponent of any nonzero f64: a zero column's in _gram_pass

# Hugging Face PEFT saves adapter keys under this prefix; the base model's keys lack it
_PEFT_PREFIX = "base_model.model."


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
    Task arithmetic is ortho=None, decouple_enabled=False; the average adds lam=1 / n.
    """

    lam: float | None = None
    magnitude_mode: str = "column"
    ortho: OrthoConfig | None = field(default_factory=OrthoConfig)
    decouple_enabled: bool = True

    def __post_init__(self):
        if self.lam is not None and not 0 < self.lam < math.inf:
            raise ValueError("lam must be positive and finite")
        if self.magnitude_mode not in MAGNITUDE_MODES:
            raise ValueError(f"unknown magnitude mode {self.magnitude_mode!r}")

    def resolve_lam(self, n: int) -> float:
        """The scale the merge applies to n adapters."""
        return self.lam if self.lam is not None else 1.0 / (n * n)


def _pieces(left, rows: int | None = None):
    """Yield (i, rows [i, i + rows) of left) for i = 0, rows, ...: left is m-row TensorRecords side
    by side (B's, or one f64 record of an array), each piece decoded exactly to f64 into one
    reused buffer the consumer may overwrite, valid until the next is asked for; m = 0 yields one.
    rows defaults to the most whose f64 piece fits in _RENDER_BLOCK_BYTES (at least one)."""
    m, bounds = left[0].shape[0], np.cumsum([0, *(rec.shape[1] for rec in left)])
    rows = max(1, _RENDER_BLOCK_BYTES // (8 * bounds[-1])) if rows is None else rows
    buf = np.empty((min(rows, m), bounds[-1]))
    for i in range(0, max(m, 1), rows):
        piece = buf[: min(rows, m - i)]
        for rec, j, k in zip(left, bounds, bounds[1:]):
            piece[:, j:k] = rec.rows(i, i + len(piece)).values()
        yield i, piece


def _gram_pass(left):
    """(G, c) of left in one pass of _pieces: c the exponents of its column peaks (_MIN_EXP for a
    zero column), G the Gram of left 2^-c, so no entry overflows. Pieces and sum are rescaled by powers
    of two as the peaks rise, so in f64's normal range G has the bits of left's piece-summed Gram.
    A non-finite entry, which extract_adapters refuses at load but a hand-built AdapterSet can hold, is a
    ValueError naming its record."""
    bounds = np.cumsum([rec.shape[1] for rec in left])
    gram, c = np.zeros((bounds[-1], bounds[-1])), np.full(bounds[-1], _MIN_EXP)
    for _, piece in _pieces(left):
        peaks = _abs_max(piece, 0)
        finite = np.isfinite(peaks)
        if not finite.all():
            owner = left[np.searchsorted(bounds, finite.argmin(), side="right")]
            raise ValueError(f"non-finite values in {owner.key!r}")
        rise = np.maximum(np.where(peaks > 0, np.frexp(peaks)[1], _MIN_EXP) - c, 0)
        if rise.any():
            c += rise
            np.ldexp(gram, -(rise[:, None] + rise), out=gram)
        gram += np.ldexp(piece, -c, out=piece).T @ piece
    return gram, c


def _grams(layer_key, left, right, s):
    """The R x R Grams S_B^T S_B and S_A S_A^T, S_B = left diag(s) and S_A = right, the first
    unscaled from one _gram_pass(left); a ValueError naming the layer if either overflows f64
    (callers ignore numpy's overflow warnings: every overflow is checked for instead)."""
    gram, c = _gram_pass(left)
    grams = np.ldexp(gram, c[:, None] + c) * np.outer(s, s), right @ right.T
    if not all(np.isfinite(g).all() for g in grams):
        raise ValueError(f"layer {layer_key!r}: factor Grams overflow float64")
    return grams


def _unit_magnitudes(layer_key, gram, right, ranks, mode: str, left=None) -> list[np.ndarray]:
    """decouple()'s magnitudes of each W_i = L_i right_i from the r_i x r_i blocks
    of gram = L^T L and right right^T (row mode: of L = left), no W_i formed;
    a ValueError naming the layer if ||W_i||_F^2 overflows f64."""
    bounds, mags = np.cumsum([0, *ranks]), []
    for i, j in zip(bounds, bounds[1:]):
        a = right[i:j]
        if mode == "matrix":
            sq = np.einsum("ij,ij->", gram[i:j, i:j], a @ a.T)[None]
        else:  # quadratic forms in the columns of A_i, or of L_i^T
            x, q = (left[:, i:j].T, a @ a.T) if mode == "row" else (a, gram[i:j, i:j])
            sq = np.einsum("ij,ij->j", x, q @ x)
        if not np.isfinite(sq.sum()):  # _floor_degenerate would zero an infinite norm
            raise ValueError(f"layer {layer_key!r}: the task matrix of adapter {len(mags)} overflows float64")
        mags.append(_floor_degenerate(np.sqrt(np.maximum(sq, 0.0))))
    return mags


def _times(m, a):
    """a[:k] = m @ a in place for m of k <= len(a) rows, returning a: _PRODUCT_COLUMNS
    columns at a time and the last block the rest, through one temporary of that
    block's size. No block is narrower than _PRODUCT_COLUMNS (unless a is), as a
    narrow one can take another BLAS kernel, with other rounding, than the whole product."""
    n, k = a.shape[1], m.shape[0]
    starts = range(0, max(n - _PRODUCT_COLUMNS, 0) + 1, _PRODUCT_COLUMNS)
    tmp = np.empty((k, n - starts[-1]))
    for i, j in zip(starts, [*starts[1:], n]):
        a[:k, i:j] = np.matmul(m, a[:, i:j], out=tmp[:, : j - i])
    return a


def _merged_factors(layer_key, factors, config: MergeConfig):
    """(L, R, ortho stats) of layer_key's factors = AdapterSet.factors' (B, A, s, ranks),
    merged delta L @ R = B K A~ lam: L the B records, read by _grams' one Gram pass
    unless both stages are off, K = diag(s) (I + E_B), A~ = (I + E_A)^T A decoupled in
    place. Both groups descend in R x R coordinates (ortho.gram_descent), A
    on transposes; row mode scales the rows of a new B K, and then L is one
    f64 record of it and K = I. Every setting ends in the scaling by lam K,
    which with both stages off is all task arithmetic does. A~ and then R are
    formed in the A stack's own buffer (_times), and I + E_B, then K, in E_B's,
    so the A descent runs beside three R x R arrays in every mode. Any f64
    overflow is a ValueError naming the layer."""
    left, right, s, ranks = factors
    del factors
    with np.errstate(over="ignore", invalid="ignore"):  # each overflow is checked for instead
        r, k, stats, rows = right.shape[0], s, None, None  # k: K, or its diagonal
        if config.ortho is not None or config.decouple_enabled:
            gram, gram_a = _grams(layer_key, left, right, s)  # gram: of left K
        if config.ortho is not None:
            ie, b_stats = gram_descent(gram, ranks, config.ortho)  # E_B, made I + E_B, then K
            gram = _plus_identity(ie, ie).T @ gram @ ie
            k = np.multiply(ie, s[:, None], out=ie)
            z, a_stats = gram_descent(gram_a, ranks, config.ortho)
            del ie, gram_a
            right = _times(_plus_identity(z, z).T, right)
            stats = {"B": b_stats, "A": a_stats}
            if not all(math.isfinite(st.initial_lo) for st in stats.values()):  # then no descent step was taken
                raise ValueError(f"layer {layer_key!r}: the cross-Gram mass overflows float64")
        if config.decouple_enabled:
            if config.magnitude_mode == "row":
                rows = np.empty((left[0].shape[0], r))
                for i, piece in _pieces(left):
                    (np.matmul if k.ndim == 2 else np.multiply)(piece, k, out=rows[i : i + len(piece)])
                left, k = [TensorRecord.from_array(layer_key, rows, "f64")], np.ones(r)
            mags = _unit_magnitudes(layer_key, gram, right, ranks, config.magnitude_mode, rows)
            alpha, bounds = sum(mags), np.cumsum([0, *ranks])
            units = right if rows is None else rows.T  # rows of units, scaled in place
            for i, j, c in zip(bounds, bounds[1:], mags):
                units[i:j] *= np.divide(alpha, c, out=np.zeros_like(c), where=c > 0)
        k = config.resolve_lam(len(ranks)) * k
        right = _times(k, right) if k.ndim == 2 else np.multiply(right, k[:, None], out=right)
        # B itself was checked finite at load, and no m x R temporary is made
        if not (np.isfinite(_abs_max(right, None)) and (rows is None or np.isfinite(_abs_max(rows, None)))):
            raise ValueError(f"layer {layer_key!r}: the merged factors overflow float64")
    return left, right, stats


def _abs_max(x, axis):
    """The largest |entry| of each row (axis 1) or column (axis 0) of x, or of x (axis None),
    0 if empty; NaN if x holds one."""
    return np.maximum(x.max(axis=axis, initial=0.0), -x.min(axis=axis, initial=0.0))


def _gram_roots(gram):
    """(sqrt of eigenvalues, eigenvectors) of a symmetric PSD Gram, keeping the
    eigenvalues above R eps64 times the largest (none of a zero Gram)."""
    lam, vec = np.linalg.eigh(gram)
    keep = lam > gram.shape[0] * np.finfo(np.float64).eps * lam[-1]
    return np.sqrt(lam[keep]), vec[:, keep]


def _truncated_factors(left, right, r: int):
    """Yield the best rank-r f64 factors of left @ right, 1 <= r <= min(m, n), singular
    values folded into B: A (r x n), formed in right's buffer (handed over), then B's
    rows, a block per piece of left, valid until the next; components past the
    product's rank are zero. left is read twice: by a _gram_pass, then for B's rows.
    write_merged takes these blocks as lowrank output, rounded to f32.

    No m x R or n x R basis is formed. Each rank-1 term is first balanced by exact powers
    of two, as in _render_f32 (right's row k by 2^-e_k, left's column k by 2^e_k), then
    left as a whole by 2^-s so its largest |entry| is below 1. With L^T L = V_l S_l^2 V_l^T
    (the Gram pass's, rescaled), R R^T = V_r S_r^2 V_r^T (_gram_roots) and the SVD U Sigma W^T
    of the core (V_l S_l)^T (V_r S_r), B = L V_l S_l^-1 U_r Sigma_r 2^s, A = W_r^T S_r^-1 V_r^T R.

    Gram eigenvalues at or below R eps64 lambda_max are dropped, so at r >= rank(left @ right)
    the product is exact but for those components; tests/ checks ||B A - T_r||_F <= 8 eps32
    sum_k ||left[:, k]|| ||right[k]|| against the dense f64 truncation T_r on ill-scaled,
    ill-conditioned and rank-deficient stacks.
    """
    gram, c = _gram_pass(left)
    _, e = np.frexp(_abs_max(right, 1))
    np.ldexp(right, -e[:, None], out=right)
    s = (c + e).max()  # the exponent of left 2^e's largest |entry|; a term past f64's range overflows B below
    d = c + e - s  # balances left 2^-c
    s_l, v_l = _gram_roots(np.ldexp(gram, d[:, None] + d))
    s_r, v_r = _gram_roots(right @ right.T)
    u, sigma, wt = np.linalg.svd((v_l * s_l).T @ (v_r * s_r), full_matrices=False)
    k, n = min(r, sigma.size), right.shape[1]
    a = _times((wt[:k] / s_r) @ v_r.T, right)[:k]
    yield a if k == r else np.concatenate([a, np.zeros((r - k, n))])
    del a, right
    to_b, rows = (v_l / s_l) @ (u[:, :k] * sigma[:k]), max(1, _RENDER_BLOCK_BYTES // (8 * max(len(c), r)))
    b = np.zeros((min(rows, left[0].shape[0]), r))
    for _, piece in _pieces(left, rows):
        block = b[: len(piece)]
        with np.errstate(over="ignore"):  # B past f64's range is inf, which write_merged refuses
            np.ldexp(np.matmul(np.ldexp(piece, e - s, out=piece), to_b, out=block[:, :k]), s, out=block[:, :k])
        yield block


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
    formed in f32: write_merged's block source for delta and fused output.

    Each rank-1 term is rescaled by an exact power of two: right's row k by
    2^-e_k, e_k the exponent of the row's largest |entry|, into an f32 copy
    made once, dropping this generator's reference to the f64 right, and
    left's column k by 2^e_k, from each f64 piece of left (whole blocks' rows in
    about _BASE_PIECE_BYTES) into a reused f32 buffer. One f32 GEMM writes each
    block into the reused output buffer of at most _RENDER_BLOCK_BYTES, which
    is yielded: it is valid until the next block is asked for. The same rows of base (an m x n
    TensorRecord) are read and added in pieces of at most _BASE_PIECE_BYTES
    stored bytes, through one reused buffer (and one to widen bf16). No
    m x n array exists. Overflow is silent: the block is non-finite. No rows
    is one empty block.

    In f32's normal range the rescale changes no bit of the f32 product, and
    an entry of left overflows f32 only where its term of the product does,
    so against the f64 oracle each entry is within the GEMM rounding bound
    (Higham 2002, section 3.5) |out - (left @ right + base)| <=
    (R + 2) eps32 (|left| @ |right|) + eps32 |left @ right + base|, R the
    inner dimension and eps32 = 2^-23. A layer any of whose rank-1 terms
    leaves f32's range renders non-finite (and the CLI exits 2), even if
    those terms would cancel in the sum.
    """
    m, (r, n) = left[0].shape[0], right.shape
    rows = max(1, _RENDER_BLOCK_BYTES // (4 * max(n, 2 * r)))  # a block's rows of left are at most a block of f64
    step = rows * max(1, _BASE_PIECE_BYTES // (8 * r * rows))  # a piece of left: whole blocks' rows
    _, exp = np.frexp(_abs_max(right, 1))
    right = np.ldexp(right, -exp[:, None], out=np.empty(right.shape, np.float32))
    lhs, out = np.empty((min(step, m), r), np.float32), np.empty((min(rows, m), n), np.float32)
    if base is not None:
        piece = min(rows, max(1, _BASE_PIECE_BYTES // (base.storage.itemsize * max(n, 1))))
        stored = np.empty((min(piece, m), n), dtype=base.storage)
        wide = np.empty(stored.shape, dtype=np.uint32) if base.dtype == "bf16" else None
    for start, rows_i in _pieces(left, step):
        with np.errstate(over="ignore", invalid="ignore"):
            np.ldexp(rows_i, exp, out=lhs[: len(rows_i)])
        for i in range(start, start + max(len(rows_i), 1), rows):  # no rows is one empty block
            k = min(rows, m - i)
            with np.errstate(over="ignore", invalid="ignore"):
                block = np.matmul(lhs[i - start : i - start + k], right, out=out[:k])
                if base is not None:
                    for j in range(0, k, piece):
                        p = min(piece, k - j)
                        part = base.rows(i + j, i + j + p)
                        block[j : j + p] += part.values(stored[:p], None if wide is None else wide[:p])
            yield block


def output_shapes(layer_key: str, shape, mode: str, rank: int | None = None, base=None) -> dict:
    """The keys and shapes of the tensors a layer of this key and full shape
    contributes to an output checkpoint, in the order write_merged writes them.

    "delta": the bare layer key. "fused": the base's key for the layer, whose
    record must have the layer's shape; base is a load_checkpoint record map.
    "lowrank": a lora_A / lora_B weight pair of rank `rank`, 1 <= rank <=
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
        return {layer_key + LORA_A_SUFFIX: (rank, n), layer_key + LORA_B_SUFFIX: (m, rank)}
    raise ValueError(f"unknown output mode {mode!r}")


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
    """Merge the AdapterSet and write its f32 output tensors to path;
    return each layer's summary entry, {layer_key: {"shape": [m, n], "ortho":
    {group: _stats_dict of its descent}}}, "ortho" only when the descent ran,
    each kept as the layer finishes and its OrthoStats dropped.

    The header is laid out from output_shapes first, once per layer, so a bad
    base or rank, or two layers writing one tensor (an AlignmentError naming
    both), fails before any merge. Each layer's factors (AdapterSet.factors)
    then go to _merged_factors, and its merged factors to the block source
    this picks, each call given the only reference. "delta" (the merged
    delta) and "fused" (base weights plus the delta) are _render_f32's f32
    blocks, within its stated bound of the f64 oracle; "lowrank" is the
    best rank-`rank` factors, _truncated_factors' f64 A and then B's row
    blocks, within its stated bound of the dense truncation. The blocks are
    paired in order with output_shapes' keys, rounded to f32 once, checked
    finite and streamed, so a layer holds its A stack once and reads B a
    piece at a time (once to render, twice to truncate). The tests' output
    oracle, layer_outputs, writes one layer through this. A non-finite fused
    block whose base rows hold a non-finite value is an AlignmentError
    naming the base file and tensor, any other a ValueError; those rows are
    read again only then. path is always replaced, and left as it was on
    any error.
    """
    layout, owners, keys = {}, {}, {}
    for layer_key in adapters.layer_keys:
        shapes = output_shapes(layer_key, adapters.full_shape(layer_key), mode, rank, base)
        for key, shape in shapes.items():
            if key in owners:
                raise AlignmentError(f"layers {owners[key]!r} and {layer_key!r} both write output tensor {key!r}")
            owners[key] = layer_key
            layout[key] = ("f32", shape)
        keys[layer_key] = list(shapes)
    stats = {}

    def records():
        for layer_key in adapters.layer_keys:
            left, right, ortho = _merged_factors(layer_key, adapters.factors(layer_key), config)
            stats[layer_key] = {"shape": list(adapters.full_shape(layer_key))}
            if ortho is not None:
                stats[layer_key]["ortho"] = {g: _stats_dict(st) for g, st in ortho.items()}
            tensors = keys[layer_key]
            blocks = (_truncated_factors(left, right, rank) if mode == "lowrank"
                      else _render_f32(left, right, base[tensors[0]] if mode == "fused" else None))
            del left, right
            at = 0  # the block's first row, in fused output's one tensor per layer
            names = itertools.chain(tensors, itertools.repeat(tensors[-1]))  # lowrank: A, then B's rows
            for key, block in zip(names, blocks):
                with np.errstate(over="ignore"):  # an entry past f32's range is inf, refused below
                    block = block.astype(np.float32, copy=False)
                if not np.isfinite(block).all():
                    if mode == "fused" and not np.isfinite(base[key].rows(at, at + len(block)).values()).all():
                        source = getattr(base[key].payload, "path", "base checkpoint")
                        raise AlignmentError(f"{source}: non-finite values in tensor {key!r}; {path} not written")
                    raise ValueError(f"merged tensor {key!r} is not finite; {path} not written")
                at += len(block)
                yield key, TensorRecord.from_array(key, block, "f32")
            del blocks, block

    save_checkpoint(records(), path, layout=layout)
    return stats
