"""Measurements over adapter sets and deterministic report emission."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .checkpoint import AdapterSet, atomic_file
from .merge import MergeConfig, _factors, _orthogonalized_factors, _unit_magnitudes
from .ortho import _owner_mask


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def atomic_write_text(path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partially written file."""
    with atomic_file(path, "w") as fh:
        fh.write(text)


def dumps_deterministic(obj) -> str:
    """JSON with sorted keys and floats at 17 significant digits.

    Equal inputs serialize to equal bytes, which is what report diffing and
    the byte-identity guarantees rely on.
    """
    out = io.StringIO()
    _write_json(obj, out)
    return out.getvalue()


def _write_json(obj, out) -> None:
    if isinstance(obj, dict):
        out.write("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.write(",")
            _write_json(str(key), out)
            out.write(":")
            _write_json(obj[key], out)
        out.write("}")
    elif isinstance(obj, (list, tuple)):
        out.write("[")
        for i, item in enumerate(obj):
            if i:
                out.write(",")
            _write_json(item, out)
        out.write("]")
    elif isinstance(obj, np.ndarray):
        _write_json(obj.tolist(), out)
    elif isinstance(obj, bool) or obj is None:
        out.write("true" if obj is True else "false" if obj is False else "null")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        if not np.isfinite(obj):
            raise ValueError(f"cannot serialize non-finite float {obj!r}")
        out.write(format_float(obj))
    elif isinstance(obj, str):
        out.write('"' + obj.translate(_JSON_ESCAPES) + '"')
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


_JSON_ESCAPES = {
    ord("\\"): "\\\\",
    ord('"'): '\\"',
    ord("\n"): "\\n",
    ord("\r"): "\\r",
    ord("\t"): "\\t",
    **{c: f"\\u{c:04x}" for c in range(0x20) if c not in (0x09, 0x0A, 0x0D)},
}


@dataclass
class DiagnosticsReport:
    magnitude_variance: float
    # layer_key -> n x n symmetric matrix of pairwise ||W_i^T W_j||_F values
    per_layer_cross_gram: dict[str, np.ndarray]
    # layer_key -> per-adapter Euclidean norms of the magnitude vectors
    per_layer_magnitude_stats: dict[str, list[float]]
    norm_average_accuracy: float | None = None
    adapter_names: list[str] | None = None


def magnitude_distribution_variance(adapters: AdapterSet) -> float:
    """Sum over layers of the across-adapter variance of task-matrix norms.

    The per-adapter scalar is the Frobenius norm of the full-rank task
    matrix (elementwise absolute values do not change it). Population
    variance, since the adapters are the whole set being merged, not a
    sample. Zero for a single adapter.
    """
    total = 0.0
    for key in adapters.layer_keys:
        norms = _unit_magnitudes(*_factors(adapters.group(key)), "matrix")
        total += float(np.var(norms))
    return total


def norm_average_accuracy(finetuned, merged) -> float:
    """sum(merged scores) / sum(finetuned scores)."""
    finetuned = [float(x) for x in finetuned]
    merged = [float(x) for x in merged]
    if len(finetuned) != len(merged):
        raise ValueError(f"length mismatch: {len(finetuned)} vs {len(merged)}")
    denom = sum(finetuned)
    if denom == 0:
        raise ValueError("finetuned scores sum to zero")
    return sum(merged) / denom


def orthogonality_report(
    adapters: AdapterSet, after_ortho: bool = False, config: MergeConfig | None = None
) -> dict[str, np.ndarray]:
    """Per-layer pairwise ||W_i^T W_j||_F matrices of the task matrices W_i = B_i A_i.

    With M = B_i^T B_j and P_i = A_i A_i^T, ||A_i^T M A_j||_F^2 is the sum of
    M * (P_i M P_j), so the report comes from factor Grams and no m x n
    product is formed. With after_ortho, the factor groups first go through
    the orthogonalizer configured on ``config.ortho``, as merge_layer does.
    """
    if config is None:
        config = MergeConfig()
    out = {}
    for key in adapters.layer_keys:
        bs, as_ = _factors(adapters.group(key))
        if after_ortho and config.ortho is not None:
            bs, as_, _ = _orthogonalized_factors(bs, as_, config.ortho)
        b, a = np.hstack(bs), np.vstack(as_)
        gram_b = b.T @ b
        own_a = np.where(_owner_mask(bs), 0.0, a @ a.T)  # block-diagonal P_i
        starts = np.cumsum([0] + [x.shape[1] for x in bs[:-1]])
        sq = gram_b * (own_a @ gram_b @ own_a)
        sq = np.add.reduceat(np.add.reduceat(sq, starts, axis=0), starts, axis=1)
        out[key] = np.sqrt(np.maximum(0.5 * (sq + sq.T), 0.0))
    return out


def build_report(
    adapters: AdapterSet,
    config: MergeConfig | None = None,
    finetuned=None,
    merged=None,
    after_ortho: bool = False,
) -> DiagnosticsReport:
    if config is None:
        config = MergeConfig()
    stats = {}
    for key in adapters.layer_keys:
        mags = _unit_magnitudes(*_factors(adapters.group(key)), config.magnitude_mode)
        stats[key] = [float(np.linalg.norm(c)) for c in mags]
    acc = None
    if finetuned is not None and merged is not None:
        acc = norm_average_accuracy(finetuned, merged)
    return DiagnosticsReport(
        magnitude_variance=magnitude_distribution_variance(adapters),
        per_layer_cross_gram=orthogonality_report(adapters, after_ortho, config),
        per_layer_magnitude_stats=stats,
        norm_average_accuracy=acc,
        adapter_names=list(adapters.names),
    )


def emit_report(report: DiagnosticsReport, path, format: str = "json") -> None:
    """Write the report; equal reports produce byte-identical files."""
    if format == "json":
        payload = {
            "magnitude_variance": report.magnitude_variance,
            "per_layer_cross_gram": {k: v for k, v in report.per_layer_cross_gram.items()},
            "per_layer_magnitude_stats": report.per_layer_magnitude_stats,
            "norm_average_accuracy": report.norm_average_accuracy,
            "adapter_names": report.adapter_names,
        }
        atomic_write_text(path, dumps_deterministic(payload) + "\n")
    elif format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["section", "layer", "i", "j", "value"])
        writer.writerow(["magnitude_variance", "", "", "", format_float(report.magnitude_variance)])
        if report.norm_average_accuracy is not None:
            writer.writerow(
                ["norm_average_accuracy", "", "", "", format_float(report.norm_average_accuracy)]
            )
        for key in sorted(report.per_layer_cross_gram):
            gram = report.per_layer_cross_gram[key]
            for i in range(gram.shape[0]):
                for j in range(i, gram.shape[1]):
                    writer.writerow(["cross_gram", key, i, j, format_float(gram[i, j])])
        for key in sorted(report.per_layer_magnitude_stats):
            for i, v in enumerate(report.per_layer_magnitude_stats[key]):
                writer.writerow(["magnitude_norm", key, i, "", format_float(v)])
        atomic_write_text(path, out.getvalue())
    else:
        raise ValueError(f"unknown report format {format!r}")
