"""Command-line interface: merge, inspect, diagnose, and verify. Each parses
its arguments, calls the library (merge: merge.write_merged) and prints.
merge's --method is a preset: task_arithmetic and average turn both MergeConfig
stages off, and average sets lam = 1 / n once the n adapters are read.

Exit codes for merge/inspect/diagnose: 0 success, 2 usage, 3 checkpoint
parse or adapter alignment failure, 4 I/O failure. verify exits 0 when
every selected suite's property holds, 1 when one is violated, 2 on usage
errors. Identical invocations with the same seed produce byte-identical
outputs and reports. The merge draws no random numbers: only verify uses
--seed, and merge accepts the flag and ignores it, as it does --threads.
stdout and every file written are UTF-8 with surrogateescape, stderr with backslashreplace.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .checkpoint import (
    AlignmentError,
    ParseError,
    check_factors,
    check_output_path,
    extract_adapters,
    load_checkpoint,
    load_manifest,
    lora_pairs,
)
from .diagnostics import (
    atomic_write_text,
    build_report,
    dumps_deterministic,
    emit_report,
    format_float,
)
from .linalg import MAGNITUDE_MODES
from .merge import MergeConfig, write_merged
from .ortho import OrthoConfig

EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_IO = 4

METHODS = ("do_merging", "task_arithmetic", "average")  # merge --method presets, the default first

# verify's suites: name -> (runner in .experiments, name of the runner's count argument)
SUITES = {
    "theorem31": ("run_balance_suite", "samples"),
    "theorem32": ("run_decoupling_suite", "samples"),
    "theorem33": ("run_conflict_suite", "trials"),
    "crossterm": ("run_crossterm_suite", "trials"),
}


def _emit_error(code: int, kind: str, message: str, json_mode: bool) -> int:
    if json_mode:
        payload = {"error": {"type": kind, "message": message}}
        sys.stderr.write(dumps_deterministic(payload) + "\n")
    else:
        sys.stderr.write(f"domerge: error: {message}\n")
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domerge",
        description="Merge LoRA adapter checkpoints with orthogonalized, "
        "magnitude-decoupled averaging.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sources = argparse.ArgumentParser(add_help=False)
    sources.add_argument("adapters", nargs="*", help="adapter checkpoint paths")
    sources.add_argument("--manifest", help="JSON manifest listing adapter paths/names/scalings")
    sources.add_argument("--json", action="store_true", help="structured JSON errors on stderr")

    m = sub.add_parser("merge", parents=[sources], help="merge adapter checkpoints into one delta")
    m.add_argument(
        "--base", help="base checkpoint; required for fused output and read only for it"
    )
    m.add_argument("--method", choices=METHODS, default=METHODS[0])
    m.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        help="merged-delta scale; default 1/n^2 for n adapters (average always uses 1/n)",
    )
    m.add_argument("--magnitude-mode", choices=MAGNITUDE_MODES, default=MergeConfig.magnitude_mode)
    m.add_argument("--no-ortho", action="store_true", help="skip factor orthogonalization")
    m.add_argument("--no-decouple", action="store_true", help="skip magnitude/direction split")
    m.add_argument("--ortho-steps", type=int, default=OrthoConfig.max_steps, help="descent step cap")
    m.add_argument(
        "--ortho-budget", type=float, default=OrthoConfig.max_rel_perturbation,
        help="per-member relative perturbation cap",
    )
    m.add_argument("--output", required=True, help="output checkpoint path")
    m.add_argument(
        "--output-mode",
        default="delta",
        help="delta (default), fused, or lowrank:R for a rank-R refactorization",
    )
    m.add_argument(
        "--seed",
        type=int,
        default=0,
        help="ignored: the merge draws no random numbers (only verify uses a seed)",
    )
    m.add_argument(
        "--lenient",
        action="store_true",
        help="drop misaligned layers with a warning instead of failing on them",
    )
    m.add_argument("--force", action="store_true", help="overwrite an existing output file")
    m.add_argument(
        "--threads",
        type=int,
        default=1,
        help="ignored: layers are merged one at a time (kept so existing commands still parse)",
    )
    m.set_defaults(func=cmd_merge)

    i = sub.add_parser("inspect", help="list a checkpoint's tensors and LoRA pairs")
    i.add_argument("path")
    i.add_argument("--json", action="store_true", help="emit the listing as JSON")
    i.set_defaults(func=cmd_inspect)

    d = sub.add_parser("diagnose", parents=[sources], help="write a diagnostics report for adapter checkpoints")
    d.add_argument("--report", required=True, help="report output path")
    d.add_argument("--format", choices=("json", "csv"), default="json")
    d.set_defaults(func=cmd_diagnose)

    v = sub.add_parser("verify", help="run the seeded Monte Carlo property suites")
    v.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    v.add_argument(
        "--samples",
        type=int,
        help="per-suite sample/trial count; defaults differ per suite",
    )
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--report", help="write all suite results as JSON")
    v.set_defaults(func=cmd_verify)

    return parser


def _gather_sources(args):
    """Adapter paths plus optional names/scalings, from positionals or manifest."""
    if args.manifest and args.adapters:
        raise ValueError("give adapter paths or --manifest, not both")
    if args.manifest:
        return load_manifest(args.manifest)
    if not args.adapters:
        raise ValueError("no adapters given (positional paths or --manifest)")
    return [Path(a) for a in args.adapters], None, None


def _parse_output_mode(text: str) -> tuple[str, int | None]:
    if text in ("delta", "fused"):
        return text, None
    head, sep, tail = text.partition(":")
    if head == "lowrank":
        if not sep:
            raise ValueError("lowrank output mode needs a rank, e.g. --output-mode lowrank:8")
        if not (tail.isascii() and tail.isdigit()) or int(tail) < 1:
            raise ValueError(f"invalid lowrank rank {tail!r}")
        return "lowrank", int(tail)
    raise ValueError(f"unknown output mode {text!r}")


def _refuse_overwriting_inputs(flag: str, target: Path, inputs) -> None:
    """A FileExistsError if target is one of the input files (None entries skipped): writing it
    would destroy that input. Callers check before any checkpoint is read."""
    if target.exists() and any(p and Path(p).exists() and Path(p).samefile(target) for p in inputs):
        raise FileExistsError(f"{flag} {target} is one of the inputs; it would be overwritten")


def cmd_merge(args) -> int:
    mode, rank = _parse_output_mode(args.output_mode)
    if mode == "fused" and not args.base:
        raise ValueError("--output-mode fused requires --base")
    out_path = check_output_path(args.output)
    if out_path.exists() and not args.force:
        raise FileExistsError(f"{out_path} exists; pass --force to overwrite")

    ortho = None
    if not args.no_ortho:
        ortho = OrthoConfig(max_steps=args.ortho_steps, max_rel_perturbation=args.ortho_budget)
    stages = args.method == "do_merging"  # the baselines run neither stage
    config = MergeConfig(
        lam=args.lam,
        magnitude_mode=args.magnitude_mode,
        ortho=ortho if stages else None,
        decouple_enabled=stages and not args.no_decouple,
    )
    if args.method == "average" and args.lam is not None:
        raise ValueError("the average method applies 1/n and takes no lambda")

    paths, names, scalings = _gather_sources(args)
    _refuse_overwriting_inputs("--output", out_path, [*paths, args.manifest, args.base])
    adapters = extract_adapters(paths, scalings=scalings, names=names, strict=not args.lenient)
    if args.method == "average":
        config = dataclasses.replace(config, lam=1.0 / adapters.n)
    base = load_checkpoint(args.base) if mode == "fused" else None
    layers = write_merged(adapters, config, out_path, mode, rank, base)

    summary = {
        "command": "merge",
        "output": str(out_path),
        "output_mode": args.output_mode,
        "method": args.method,
        "lambda": config.resolve_lam(adapters.n),
        "magnitude_mode": config.magnitude_mode,
        "ortho_enabled": config.ortho is not None,
        "decouple_enabled": config.decouple_enabled,
        "adapters": list(adapters.names),
        "layers": layers,
        "warnings": list(adapters.warnings),
    }
    sys.stdout.write(dumps_deterministic(summary) + "\n")
    return 0


def cmd_inspect(args) -> int:
    records = load_checkpoint(args.path)
    tensors = [
        {"key": k, "dtype": r.dtype, "shape": list(r.shape)} for k, r in sorted(records.items())
    ]
    pairs, lines = [], []  # the JSON entries and text lines of the pairs
    for layer, (b, a) in lora_pairs(records)[0].items():
        try:  # a pair is listed with a rank exactly when a merge would accept its shapes
            check_factors(layer, b.shape, a.shape, 1.0)
        except AlignmentError as e:
            pairs.append({"layer": layer, "rank": None, "full_shape": None})
            lines.append(str(e))
            continue
        m, n = b.shape[0], a.shape[1]
        pairs.append({"layer": layer, "rank": b.shape[1], "full_shape": [m, n]})
        lines.append(f"{layer}  rank {b.shape[1]}  full {m}x{n}")
    if args.json:
        sys.stdout.write(dumps_deterministic({"tensors": tensors, "lora_pairs": pairs}) + "\n")
        return 0
    for t in tensors:
        shape = "x".join(str(s) for s in t["shape"])
        sys.stdout.write(f"{t['key']}  {t['dtype']}  {shape}\n")
    sys.stdout.write(f"lora pairs: {len(pairs)}\n")
    for line in lines:
        sys.stdout.write(f"  {line}\n")
    return 0


def cmd_diagnose(args) -> int:
    paths, names, scalings = _gather_sources(args)
    _refuse_overwriting_inputs("--report", check_output_path(args.report), [*paths, args.manifest])
    adapters = extract_adapters(paths, scalings=scalings, names=names, strict=True)
    report = build_report(adapters)
    emit_report(report, args.report, args.format)
    sys.stdout.write(f"magnitude_variance {format_float(report.magnitude_variance)}\n")
    for key in sorted(report.per_layer_cross_gram):
        gram = report.per_layer_cross_gram[key]
        peak = gram[np.triu_indices(gram.shape[0], 1)].max(initial=0.0)
        sys.stdout.write(f"layer {key} max_cross_gram {format_float(peak)}\n")
    sys.stdout.write(f"report written to {args.report}\n")
    return 0


def cmd_verify(args) -> int:
    if args.samples is not None and args.samples < 2:
        raise ValueError("--samples must be >= 2")
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    if args.report:
        check_output_path(args.report)
    from . import experiments  # imported here, so that no merge pays for loading the suites

    results = {}
    for name in SUITES if args.suite == "all" else (args.suite,):
        runner, count = SUITES[name]  # without --samples each runner's own default count applies
        counts = {} if args.samples is None else {count: args.samples}
        results[name] = getattr(experiments, runner)(seed=args.seed, **counts)
        sys.stdout.write(dumps_deterministic(results[name]) + "\n")
    if args.report:
        atomic_write_text(args.report, dumps_deterministic(results) + "\n")
    return 0 if all(r["pass"] for r in results.values()) else 1


def main(argv=None) -> int:
    sys.stdout.reconfigure(encoding="utf-8", errors="surrogateescape")
    sys.stderr.reconfigure(encoding="utf-8", errors="backslashreplace")
    parser = build_parser()
    args = parser.parse_args(argv)
    json_mode = bool(getattr(args, "json", False))
    try:
        return args.func(args)
    except ParseError as e:
        return _emit_error(EXIT_PARSE, "parse", str(e), json_mode)
    except AlignmentError as e:
        return _emit_error(EXIT_PARSE, "alignment", str(e), json_mode)
    except OSError as e:
        return _emit_error(EXIT_IO, "io", str(e), json_mode)
    except ValueError as e:
        return _emit_error(EXIT_USAGE, "usage", str(e), json_mode)


if __name__ == "__main__":
    sys.exit(main())
