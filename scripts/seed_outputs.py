#!/usr/bin/env python3
"""Print the sha256 of what `domerge` writes for each benchmark workload at seed 7.

For each workload of perfbench/run.py it builds the seed-7 corpus with
perfbench/corpus.make_corpus under WORK_DIR/<workload>/corpus and runs
`python -m domerge.cli merge` on it with the workload's flags, as the
benchmark does. It prints one line per hashed stream: the merged output
and the merge's stdout summary, and for ortho-dense also the `diagnose`
report and stdout and `inspect --json` of the first adapter. After each
merge's hashes it prints the descent's work from the summary, which is as
deterministic as the hashes: the total steps and trials over all factor
groups, and lo_kept, the mean final_lo / initial_lo over the groups that
start with cross-Gram mass ("-" when there are none), as perfbench reports it.

    python scripts/seed_outputs.py /tmp/seed7 > new.txt
    python scripts/seed_outputs.py /tmp/seed7 --src ../parent/src > old.txt
    diff old.txt new.txt

--src (default: this checkout's src/) is the PYTHONPATH of every domerge
run, so the same script hashes another checkout's code. The summaries name
the output paths, so compare runs made with one WORK_DIR. WORK_DIR/<workload>
is removed and rebuilt on each run. Exits 1 when a domerge run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from corpus import make_corpus  # noqa: E402
from run import SCRUBBED_ENV, WORKLOADS  # noqa: E402

from golden_outputs import sha  # noqa: E402

SEED = 7


def _descent(summary: bytes) -> str:
    """'steps S trials T lo_kept K' of a merge's stdout summary, summed over its factor groups."""
    groups = [g for layer in json.loads(summary)["layers"].values() for g in layer.get("ortho", {}).values()]
    kept = [g["final_lo"] / g["initial_lo"] for g in groups if g["initial_lo"] > 0]
    lo_kept = f"{sum(kept) / len(kept):.6f}" if kept else "-"
    return f"steps {sum(g['steps_taken'] for g in groups)} trials {sum(g['trials'] for g in groups)} lo_kept {lo_kept}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("work_dir", type=Path, help="where corpora and outputs go")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the domerge sources to run")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    args = parser.parse_args()
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(args.src.resolve())

    def domerge(*argv) -> bytes:
        command = [sys.executable, "-m", "domerge.cli", *map(str, argv)]
        done = subprocess.run(command, env=env, capture_output=True)
        if done.returncode:
            sys.exit(f"domerge {' '.join(map(str, argv))} exited {done.returncode}: {done.stderr.decode()}")
        return done.stdout

    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        work = args.work_dir.resolve() / name
        shutil.rmtree(work, ignore_errors=True)
        corpus = make_corpus(WORKLOADS[name].corpus, SEED, work / "corpus")
        inputs = ["--manifest", corpus.manifest, *(["--base", corpus.base] if corpus.base else [])]
        output = work / "merged.safetensors"
        summary = domerge("merge", *inputs, *WORKLOADS[name].args, "--output", output, "--force")
        print(f"{name} merge.output {sha(output.read_bytes())}")
        print(f"{name} merge.stdout {sha(summary)}")
        print(f"{name} merge.descent {_descent(summary)}")
        if name == "ortho-dense":
            report = work / "report.json"
            stdout = domerge("diagnose", "--manifest", corpus.manifest, "--report", report)
            print(f"{name} diagnose.report {sha(report.read_bytes())}")
            print(f"{name} diagnose.stdout {sha(stdout)}")
            print(f"{name} inspect.stdout {sha(domerge('inspect', corpus.adapter_paths[0], '--json'))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
