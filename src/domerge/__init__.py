"""Data-free merging of LoRA adapter checkpoints.

The pipeline orthogonalizes each layer's low-rank factor groups with a
budgeted projected-descent pass, splits the resulting task matrices into
magnitude and direction components, merges the components separately, and
rescales the combined delta. Checkpoint I/O, diagnostics, and seeded Monte
Carlo verification of the underlying mathematical claims are included; the
``domerge`` command exposes all of it from the shell.
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
from .experiments import (
    PairedComparison,
    SyntheticSpec,
    TrialResult,
    balance_sweep,
    decoupling_comparison,
    factor_crossterm_trial,
    magnitude_weighted_loss,
    sign_conflict_rate,
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
    "PairedComparison",
    "ParseError",
    "SyntheticSpec",
    "TensorRecord",
    "TrialResult",
    "assemble_full_rank",
    "balance_sweep",
    "build_report",
    "decouple",
    "decoupling_comparison",
    "dumps_deterministic",
    "emit_report",
    "extract_adapters",
    "factor_crossterm_trial",
    "load_checkpoint",
    "load_manifest",
    "magnitude_weighted_loss",
    "merge_layer",
    "ortho_grad",
    "ortho_loss",
    "orthogonalize_group",
    "output_blocks",
    "output_shapes",
    "recompose",
    "save_checkpoint",
    "sign_conflict_rate",
    "write_merged",
]

__version__ = "0.1.0"
