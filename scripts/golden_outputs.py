#!/usr/bin/env python3
"""Record the sha256 of what `domerge` writes for fixed inputs in tests/golden_outputs.json.

make_corpus writes three adapters (f32, bf16 and f16, ranks 4, 2 and 3, by a
manifest with scalings) over two layers, one of them several render blocks
long, and a bf16 base. output_hashes runs `domerge.cli.main` on them
in-process: a merge per entry of MERGES (every output mode, method and
magnitude mode, --no-ortho and --no-decouple, and a lowrank rank past the
merge's), hashing the output and the stdout summary, then `diagnose` (json
and csv reports, and stdout) and `inspect --json` of the bf16 and f16
adapters. Then, one at a time, it writes each perfbench/run.py workload's
seed-7 corpus with perfbench/corpus.make_corpus, runs the benchmark's own
command line on it (`merge --manifest M [--base B] <workload flags>
--output O --force`) and hashes the output and the stdout; for ortho-dense
also the `diagnose` report and stdout and `inspect --json` of adapter0. A
workload's directory (up to 200 MB) is removed before the next is written.
Paths are given relative to the work directory, so the summaries do not
depend on where it is.

tests/test_golden.py recomputes the hashes and compares them with the file
when numpy, its BLAS and the CPU's SIMD extensions are the ones recorded
there (environment()). The BLAS thread count is not recorded: every merge
here has R = sum of ranks <= 64, where ROADMAP item 4 measured identical
bytes at 1 to 4 threads. A change that moves an output bit on purpose
regenerates the file with

    python scripts/golden_outputs.py

which prints the name of each hash that changed.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden_outputs.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import corpus as perfbench  # noqa: E402
from domerge import TensorRecord, save_checkpoint  # noqa: E402
from domerge.cli import main as domerge  # noqa: E402
from run import WORKLOADS  # noqa: E402

SEED = 7
LAYERS = {"blk.0.attn.q": (64, 48), "blk.0.mlp.down": (480, 300)}  # 480 x 300 f32 is two render blocks
ADAPTERS = (("f32", 4, 1.0), ("bf16", 2, 0.5), ("f16", 3, 2.0))  # (dtype, rank, manifest scaling)
MERGES = {  # name -> merge flags after --manifest
    "delta": [],
    "row": ["--magnitude-mode", "row"],
    "matrix": ["--magnitude-mode", "matrix"],
    "no_ortho": ["--no-ortho"],
    "no_decouple": ["--no-decouple"],
    "task_arithmetic": ["--method", "task_arithmetic"],
    "average": ["--method", "average"],
    "fused": ["--output-mode", "fused", "--base", "base.safetensors"],
    "lowrank": ["--output-mode", "lowrank:3"],
    "lowrank_padded": ["--output-mode", "lowrank:12"],  # past the merge's rank 9: B and A end in zeros
}


def sha(data: bytes | Path) -> str:
    """The sha256 of bytes, or of a file read a MiB at a time (outputs reach 128 MB)."""
    digest = hashlib.sha256()
    if isinstance(data, bytes):
        digest.update(data)
    else:
        with open(data, "rb") as f:
            while chunk := f.read(1 << 20):
                digest.update(chunk)
    return digest.hexdigest()


def environment() -> dict:
    """What the output bits depend on besides the code: numpy, the BLAS it
    was built with, and the CPU extensions its and the BLAS's kernels pick by."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "machine": platform.machine(),
        "simd": config["SIMD Extensions"]["found"],
    }


def make_corpus(work: Path) -> None:
    """adapter0-2.safetensors, manifest.json and base.safetensors in work."""
    rng, manifest = np.random.default_rng(SEED), []
    for i, (dtype, rank, scaling) in enumerate(ADAPTERS):
        records = {}
        for layer, (m, n) in LAYERS.items():
            for key, shape in ((f"{layer}.lora_B.weight", (m, rank)), (f"{layer}.lora_A.weight", (rank, n))):
                records[key] = TensorRecord.from_array(key, rng.standard_normal(shape), dtype)
        save_checkpoint(records, work / f"adapter{i}.safetensors")
        manifest.append({"path": f"adapter{i}.safetensors", "name": f"{dtype}_adapter", "scaling": scaling})
    (work / "manifest.json").write_text(json.dumps(manifest))
    base = {f"{k}.weight": rng.standard_normal(shape) for k, shape in LAYERS.items()}
    save_checkpoint({k: TensorRecord.from_array(k, w, "bf16") for k, w in base.items()}, work / "base.safetensors")


def run(*argv) -> bytes:
    """The stdout of domerge.cli.main(argv), run in-process; a failure is a RuntimeError with its stderr."""
    argv = [str(a) for a in argv]
    out, err = (io.TextIOWrapper(io.BytesIO(), newline="\n", write_through=True) for _ in range(2))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = domerge(argv)
    if code:
        raise RuntimeError(f"domerge {' '.join(argv)} exited {code}: {err.buffer.getvalue().decode()}")
    return out.buffer.getvalue()


def output_hashes(work: Path) -> dict:
    """{name: sha256} of every output and stdout, made in work from make_corpus(work),
    where the outputs stay (each merge's out_<name>.safetensors and its summary
    out_<name>.json, and diagnose's report.json and report.csv), and from each
    benchmark workload's corpus, whose directory work/<workload> goes once hashed."""
    make_corpus(work)
    hashes, home = {}, os.getcwd()
    os.chdir(work)
    try:
        for name, flags in MERGES.items():
            output, summary = Path(f"out_{name}.safetensors"), Path(f"out_{name}.json")
            summary.write_bytes(run("merge", "--manifest", "manifest.json", *flags, "--output", output))
            hashes[f"merge.{name}.stdout"] = sha(summary.read_bytes())
            hashes[f"merge.{name}.output"] = sha(output)
        for fmt in ("json", "csv"):
            stdout = run("diagnose", "--manifest", "manifest.json", "--report", f"report.{fmt}", "--format", fmt)
            hashes[f"diagnose.{fmt}.stdout"] = sha(stdout)
            hashes[f"diagnose.{fmt}.report"] = sha(Path(f"report.{fmt}"))
        for i in (1, 2):
            hashes[f"inspect.{ADAPTERS[i][0]}.stdout"] = sha(run("inspect", f"adapter{i}.safetensors", "--json"))
        for name, workload in WORKLOADS.items():
            corpus = perfbench.make_corpus(workload.corpus, SEED, Path(name, "corpus"))
            inputs = ["--manifest", corpus.manifest, *(["--base", corpus.base] if corpus.base else [])]
            output = Path(name, "merged.safetensors")
            stdout = run("merge", *inputs, *workload.args, "--output", output, "--force")
            hashes[f"merge.{name}.stdout"], hashes[f"merge.{name}.output"] = sha(stdout), sha(output)
            if name == "ortho-dense":
                report = Path(name, "report.json")
                stdout = run("diagnose", "--manifest", corpus.manifest, "--report", report)
                hashes[f"diagnose.{name}.stdout"], hashes[f"diagnose.{name}.report"] = sha(stdout), sha(report)
                hashes[f"inspect.{name}.stdout"] = sha(run("inspect", corpus.adapter_paths[0], "--json"))
            shutil.rmtree(name)
    finally:
        os.chdir(home)
    return hashes


def main() -> int:
    old = json.loads(GOLDEN.read_text())["hashes"] if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as work:
        hashes = output_hashes(Path(work))
    GOLDEN.write_text(json.dumps({"environment": environment(), "hashes": hashes}, indent=1, sort_keys=True) + "\n")
    for name in sorted(hashes.keys() | old.keys()):
        if hashes.get(name) != old.get(name):
            print(f"changed: {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
