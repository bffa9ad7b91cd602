"""Measurements over adapter sets and deterministic report emission."""

from __future__ import annotations

import io
import json
from dataclasses import dataclass

import numpy as np

from .checkpoint import AdapterSet, atomic_file
from .merge import _grams, _unit_magnitudes
from .ortho import _owner_mask


def format_float(x: float) -> str:
    """The shortest text that parses back to the same float."""
    return repr(float(x))


def atomic_write_text(path, text: str) -> None:
    """Write text as UTF-8 via a sibling temp file and rename, so readers never see a
    partially written file; surrogateescape gives back the bytes of undecodable file names."""
    with atomic_file(path) as fh:
        fh.write(text.encode("utf-8", "surrogateescape"))


def _numpy_to_python(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_deterministic(obj) -> str:
    """JSON with sorted keys, no whitespace and floats as their shortest
    round-trip text; numpy arrays and scalars become lists and numbers.

    Equal inputs serialize to equal bytes, which is what report diffing and
    the byte-identity guarantees rely on. A non-finite float is a ValueError.
    """
    return json.dumps(
        obj,
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
        ensure_ascii=False,
        default=_numpy_to_python,
    )


@dataclass
class DiagnosticsReport:
    magnitude_variance: float
    # layer_key -> n x n symmetric matrix of pairwise ||W_i^T W_j||_F values
    per_layer_cross_gram: dict[str, np.ndarray]
    # layer_key -> per-adapter Euclidean norms of the magnitude vectors
    per_layer_magnitude_stats: dict[str, list[float]]
    adapter_names: list[str] | None = None


def build_report(adapters: AdapterSet) -> DiagnosticsReport:
    """The report of the adapters, from one decode of each layer's A and _grams' one pass over its B.

    magnitude_variance sums each layer's population variance (0 for one
    adapter) of the task matrices' Frobenius norms. With M = B_i^T B_j and
    P_i = A_i A_i^T, ||W_i^T W_j||_F^2 is the sum of M * (P_i M P_j), so the
    cross-Gram norms come from factor Grams and no m x n product is formed.
    A value that overflows f64 is a ValueError naming its layer.
    """
    variance, grams, stats = 0.0, {}, {}
    for key in adapters.layer_keys:
        b, a, s, ranks = adapters.factors(key)
        with np.errstate(over="ignore", invalid="ignore"):  # each overflow is checked for instead
            gram_b, gram_a = _grams(key, b, a, s)
            variance += float(np.var(_unit_magnitudes(key, gram_b, a, ranks, "matrix")))
            own_a = np.where(_owner_mask(ranks), 0.0, gram_a)  # block-diagonal P_i
            starts = np.cumsum([0, *ranks[:-1]])
            sq = gram_b * (own_a @ gram_b @ own_a)
            sq = np.add.reduceat(np.add.reduceat(sq, starts, axis=0), starts, axis=1)
            grams[key] = np.sqrt(np.maximum(0.5 * (sq + sq.T), 0.0))
            stats[key] = [float(np.linalg.norm(c)) for c in _unit_magnitudes(key, gram_b, a, ranks, "column")]
        if not (np.isfinite(grams[key]).all() and np.isfinite([variance, *stats[key]]).all()):
            raise ValueError(f"layer {key!r}: its measurements overflow float64")
    return DiagnosticsReport(
        magnitude_variance=variance,
        per_layer_cross_gram=grams,
        per_layer_magnitude_stats=stats,
        adapter_names=list(adapters.names),
    )


def emit_report(report: DiagnosticsReport, path, format: str = "json") -> None:
    """Write the report; equal reports produce byte-identical files."""
    if format == "json":
        atomic_write_text(path, dumps_deterministic(vars(report)) + "\n")
    elif format == "csv":
        import csv

        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["section", "layer", "i", "j", "value"])
        writer.writerow(["magnitude_variance", "", "", "", format_float(report.magnitude_variance)])
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
