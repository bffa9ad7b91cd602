#!/usr/bin/env python3
"""Generate synthetic LoRA adapter checkpoints for demos and experiments.

Writes N aligned adapter files (plus an optional base checkpoint and a
manifest) into a directory, ready for the domerge CLI:

    python scripts/make_synthetic_adapters.py --out-dir /tmp/adapters
    domerge merge /tmp/adapters/adapter0.safetensors \
        /tmp/adapters/adapter1.safetensors --output /tmp/merged.safetensors

The files are perfbench/corpus.make_corpus's for the same arguments: it
writes them into a temporary directory inside --out-dir, and each is then
moved into place, so --out-dir may already exist.
"""

import argparse
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from corpus import CorpusSpec, make_corpus  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--adapters", type=int, default=3)
    parser.add_argument("--layers", type=int, default=4)
    parser.add_argument("--rank", type=int, default=4)
    parser.add_argument("--rows", type=int, default=32)
    parser.add_argument("--cols", type=int, default=24)
    parser.add_argument("--dtype", choices=("f64", "f32", "f16", "bf16"), default="f32")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--with-base", action="store_true", help="also write base.safetensors")
    args = parser.parse_args()

    spec = CorpusSpec(args.adapters, args.layers, args.rows, args.cols, args.rank, args.dtype, args.with_base)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.out_dir) as tmp:
        corpus = make_corpus(spec, args.seed, Path(tmp) / "corpus")
        for made in (*corpus.adapter_paths, *([corpus.base] if corpus.base else []), corpus.manifest):
            path = args.out_dir / made.name
            os.replace(made, path)
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
