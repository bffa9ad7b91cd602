"""Data-free merging of LoRA adapter checkpoints.

The pipeline orthogonalizes each layer's low-rank factor groups with a
budgeted projected-descent pass, splits the resulting task matrices into
magnitude and direction components, merges the components separately, and
rescales the combined delta. Checkpoint I/O, diagnostics, and seeded Monte
Carlo verification of the underlying mathematical claims (domerge.experiments)
are included; the ``domerge`` command exposes all of it from the shell.
"""

from .checkpoint import (
    AdapterSet,
    AlignmentError,
    CheckpointError,
    LoraLayer,
    ParseError,
    TensorRecord,
    extract_adapters,
    load_checkpoint,
    load_manifest,
    save_checkpoint,
)
from .diagnostics import (
    DiagnosticsReport,
    build_report,
    dumps_deterministic,
    emit_report,
)
from .linalg import Decoupled, decouple, recompose
from .merge import (
    MergeConfig,
    MergedLayer,
    assemble_full_rank,
    merge_layer,
    output_blocks,
    output_shapes,
    write_merged,
)
from .ortho import OrthoConfig, OrthoStats, ortho_grad, ortho_loss, orthogonalize_group

__all__ = [
    "AdapterSet",
    "AlignmentError",
    "CheckpointError",
    "Decoupled",
    "DiagnosticsReport",
    "LoraLayer",
    "MergeConfig",
    "MergedLayer",
    "OrthoConfig",
    "OrthoStats",
    "ParseError",
    "TensorRecord",
    "assemble_full_rank",
    "build_report",
    "decouple",
    "dumps_deterministic",
    "emit_report",
    "extract_adapters",
    "load_checkpoint",
    "load_manifest",
    "merge_layer",
    "ortho_grad",
    "ortho_loss",
    "orthogonalize_group",
    "output_blocks",
    "output_shapes",
    "recompose",
    "save_checkpoint",
    "write_merged",
]

__version__ = "0.1.0"
