"""Dense-matrix primitives: magnitude/direction decoupling and its inverse.

Everything here works on plain 2-D float64 numpy arrays and is pure. Matrices
coming from half-precision checkpoints are upcast before they reach this layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAGNITUDE_MODES = ("column", "row", "matrix")


def _as_matrix(w, name="W"):
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.size == 0:
        raise ValueError(f"{name} must be a non-empty 2-D matrix, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError(f"{name} contains non-finite entries")
    return w


def _floor_degenerate(norms: np.ndarray) -> np.ndarray:
    """The unit norms of one matrix with its degenerate units set to 0.

    A unit is degenerate when its norm is at or below
    tau = 1e-12 * ||W||_F / sqrt(units); ||W||_F is the norm of ``norms``.
    """
    return np.where(norms > 1e-12 * np.linalg.norm(norms) / np.sqrt(norms.size), norms, 0.0)


@dataclass(frozen=True)
class Decoupled:
    """A magnitude/direction split of one task matrix.

    ``magnitude`` holds the per-column norms (column mode), per-row norms
    (row mode), or the single whole-matrix norm (matrix mode). ``direction``
    is the source matrix with those norms divided out, so its units are
    norm-1 (or exactly zero where the source was degenerate).
    """

    magnitude: np.ndarray
    direction: np.ndarray
    mode: str

    def __post_init__(self):
        if self.mode not in MAGNITUDE_MODES:
            raise ValueError(f"unknown magnitude mode {self.mode!r}")


def decouple(w, mode: str = "column") -> Decoupled:
    """Split ``w`` into non-negative magnitudes and a unit-scale direction matrix.

    Degenerate units (norm below a relative floor) get magnitude 0 and a zero
    direction slice, so recompose() stays exact instead of dividing by ~0.
    The split is taken of w 2^-e, its largest |entry| in [0.5, 1), and the
    magnitudes scaled back by the exact 2^e, so no square overflows f64; a
    magnitude itself past f64's range is a ValueError.
    """
    w = _as_matrix(w)
    if mode not in MAGNITUDE_MODES:
        raise ValueError(f"unknown magnitude mode {mode!r}")
    _, e = np.frexp(np.abs(w).max())
    w = np.ldexp(w, -e)
    if mode == "matrix":
        norms = np.array([np.linalg.norm(w)])
    else:
        norms = np.linalg.norm(w, axis=0 if mode == "column" else 1)
    magnitude = _floor_degenerate(norms)
    unit_shape = {"column": (1, -1), "row": (-1, 1), "matrix": (1, 1)}[mode]
    keep = (magnitude > 0).reshape(unit_shape)
    direction = np.where(keep, w / np.where(keep, magnitude.reshape(unit_shape), 1.0), 0.0)
    with np.errstate(over="ignore"):  # checked for below
        magnitude = np.ldexp(magnitude, e)
    if not np.isfinite(magnitude).all():
        raise ValueError(f"a {mode} norm of W overflows float64")
    return Decoupled(magnitude=magnitude, direction=direction, mode=mode)


def recompose(d: Decoupled) -> np.ndarray:
    """Exact inverse of decouple() up to floating-point rounding."""
    direction = np.asarray(d.direction, dtype=np.float64)
    magnitude = np.asarray(d.magnitude, dtype=np.float64)
    if d.mode == "column":
        if magnitude.shape != (direction.shape[1],):
            raise ValueError("magnitude length must equal direction column count")
        return direction * magnitude[None, :]
    if d.mode == "row":
        if magnitude.shape != (direction.shape[0],):
            raise ValueError("magnitude length must equal direction row count")
        return direction * magnitude[:, None]
    if magnitude.shape != (1,):
        raise ValueError("matrix mode expects a single magnitude value")
    return direction * magnitude[0]
