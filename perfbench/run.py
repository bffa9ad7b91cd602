#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of `domerge merge`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ortho-dense --seed 0 --seconds 34 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 34 --trace 1

For each workload it writes a seeded synthetic corpus (untimed), times
`python -c "import domerge.cli"` children (setup_s), then runs the real
`domerge merge` CLI as a child process, one at a time, for about
--seconds seconds. Every output is checked independently. With --trace 1 it
adds one traced run, a child that calls domerge.cli.main in its own process
with timing wrappers around the layer functions (see tracing.py), and
reports per-layer metrics instead of end-to-end ones. The last stdout line
is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 1 when any check failed and 2 when the checkout has no
domerge sources. See README.md for why each workload exists.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import tracing
from checks import Checked, Expectation, check_run
from corpus import CorpusSpec, make_corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"  # corpora and outputs, removed after each workload
OUT_ROOT = ROOT / ".perfbench_out"  # span files of traced runs

SETUP_EVERY_S = 3.0  # one import-only child per this many seconds of the merge loop; setup_s is their median
RUN_LIMIT_S = 170.0  # hard wall limit for one workload, children included
# thread settings of the calling shell would change what is measured
SCRUBBED_ENV = ("DO_MERGE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    corpus: CorpusSpec
    args: tuple[str, ...]  # merge flags besides inputs and --output
    expect: Expectation


_BASELINE = CorpusSpec(adapters=4, layers=8, rows=2048, cols=2048, rank=16, dtype="bf16")

WORKLOADS = {
    # the ROADMAP baseline corpus; descent and dense decouple dominate
    "ortho-dense": Workload(
        corpus=_BASELINE,
        args=("--threads", "1"),
        expect=Expectation("delta", ortho=True),
    ),
    # a 64 MB bf16 base: checkpoint I/O and dense assembly, descent and decouple bypassed
    "fused-io": Workload(
        corpus=replace(_BASELINE, with_base=True),
        args=("--method", "task_arithmetic", "--output-mode", "fused", "--threads", "1"),
        expect=Expectation("fused", ortho=False),
    ),
    # many small layers at the default thread count: Python-loop descent, SVD, layer pool
    "lowrank-many": Workload(
        corpus=CorpusSpec(adapters=6, layers=16, rows=512, cols=512, rank=8, dtype="f32"),
        args=("--output-mode", "lowrank:16"),
        expect=Expectation("lowrank:16", ortho=True),
    ),
}


@dataclass
class ChildRun:
    exit_code: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


class Spawner:
    """The spawn.py process, which starts and times every child (see its docstring for why)."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def run(self, argv, env, cwd, stdout_path, timeout) -> ChildRun:
        request = {"argv": argv, "env": env, "cwd": str(cwd), "stdout": str(stdout_path), "timeout": timeout}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawn.py exited with code {self._proc.wait()}")
        return ChildRun(**json.loads(reply))

    def close(self):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=RUN_LIMIT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def environment() -> dict:
    """Facts that decide whether two result sets are comparable."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def run_workload(spawner: Spawner, name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    wl = WORKLOADS[name]
    deadline = time.perf_counter() + RUN_LIMIT_S
    outcome = Outcome()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK_ROOT))
    try:
        corpus = make_corpus(wl.corpus, seed, workdir / "corpus")
        env = child_env()
        py = sys.executable

        def remaining():
            return deadline - time.perf_counter()

        def record(ok: bool, problems):
            outcome.attempted += 1
            outcome.failed += 0 if ok else 1
            outcome.problems += problems

        def import_child():
            child = spawner.run([py, "-c", "import domerge.cli"], env, workdir, workdir / "import.out", remaining())
            record(child.exit_code == 0, [] if child.exit_code == 0 else [f"import exited {child.exit_code}"])
            return child.wall_s

        output = workdir / "merged.safetensors"
        inputs = ["--manifest", str(corpus.manifest)]
        if corpus.base is not None:
            inputs += ["--base", str(corpus.base)]
        cli_argv = ["merge", *inputs, *wl.args, "--output", str(output), "--force"]
        children: list[ChildRun] = []
        checked: list[Checked] = []
        import_child()  # writes the bytecode caches, so it is not timed
        setups = [import_child()]
        started = time.perf_counter()
        while True:
            output.unlink(missing_ok=True)  # a stale output must not pass for this run's
            child = spawner.run([py, "-m", "domerge.cli", *cli_argv], env, workdir, workdir / "merge.out", remaining())
            result = check_run(corpus, wl.expect, child.exit_code, output, (workdir / "merge.out").read_bytes())
            children.append(child)
            checked.append(result)
            # import-only children spread over the window see the same machine state as the merges
            while len(setups) <= (time.perf_counter() - started) / SETUP_EVERY_S:
                setups.append(import_child())
            # start another merge only if at least half of it should fall within --seconds,
            # so the loop measures about --seconds on average, and the hard limit leaves room
            typical = statistics.median(c.wall_s for c in children)
            measured = time.perf_counter() - started
            if measured + typical / 2 > seconds or remaining() < 3 * max(c.wall_s for c in children) + 10:
                break

        walls = " ".join(f"{c.wall_s:.2f}" for c in children)
        print(f"# {name}: {len(children)} merges, {len(setups)} imports in {measured:.1f} s: {walls}", file=sys.stderr)
        layers = None
        if trace:
            OUT_ROOT.mkdir(exist_ok=True)
            run_id = f"{name}-seed{seed}-traced"
            spans_path = OUT_ROOT / f"{run_id}.jsonl"
            tracer_argv = [py, str(HERE / "tracing.py"), "--spans", str(spans_path), "--run-id", run_id, "--", *cli_argv]
            output.unlink(missing_ok=True)
            traced = spawner.run(tracer_argv, env, workdir, workdir / "traced.out", remaining())
            checked.append(check_run(corpus, wl.expect, traced.exit_code, output, (workdir / "traced.out").read_bytes()))
            if traced.exit_code == 0:
                traced_main_s, spans = tracing.read_spans(spans_path)
                layers = tracing.layer_metrics(spans, traced_main_s)

        # every run of a workload in one invocation must write the same bytes and summary
        ref_output = next((c.output_sha256 for c in checked if c.output_sha256), None)
        ref_stdout = next((c.stdout_sha256 for c in checked if c.stdout_sha256), None)
        for i, c in enumerate(checked):
            if c.output_sha256 not in (None, ref_output):
                c.problems.append(f"run {i}: output sha256 {c.output_sha256} != first run's {ref_output}")
            if c.stdout_sha256 not in (None, ref_stdout):
                c.problems.append(f"run {i}: stdout summary differs from the first run's")
        for c in checked:
            record(not c.problems, c.problems)

        merge_s = statistics.median(c.wall_s for c in children)
        setup_s = statistics.median(setups)
        lo_kept = [c.lo_kept for c in checked if c.lo_kept is not None]
        outcome.end_to_end = {
            "setup_s": (setup_s, "s"),
            "merge_s": (merge_s, "s"),
            "peak_rss_mb": (statistics.median(c.maxrss_kb / 1024 for c in children), "MB"),
            "lo_kept": (statistics.median(lo_kept) if lo_kept else None, "ratio"),
            "ok_frac": (1.0 - outcome.failed / outcome.attempted, "ratio"),
        }
        if layers is not None:
            outcome.per_layer = {
                **layers,
                "cli.cpu_s": (statistics.median(c.cpu_s for c in children), "s"),
                "cli.cpu_util": (statistics.median(c.cpu_s / c.wall_s for c in children), "ratio"),
                "trace.overhead_s": (traced.wall_s - merge_s, "s"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "domerge" / "cli.py").is_file():
        print(f"run.py: no domerge sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    attempted = failed = 0
    metrics = {}
    spawner = Spawner()
    try:
        outcomes = [(name, run_workload(spawner, name, args.seed, args.seconds, bool(args.trace))) for name in names]
    finally:
        spawner.close()
    for name, outcome in outcomes:
        attempted += outcome.attempted
        failed += outcome.failed
        for problem in outcome.problems:
            print(f"{name}: FAILED CHECK: {problem}", file=sys.stderr)
        shown = {**outcome.end_to_end, **outcome.per_layer}
        for metric, (value, unit) in shown.items():
            print(f"{name}  {metric:<28} {value!r} {unit}")
        reported = outcome.per_layer if args.trace else outcome.end_to_end
        prefix = f"{name}/" if len(names) > 1 else ""
        metrics.update({prefix + m: {"value": v, "unit": u} for m, (v, u) in reported.items()})

    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
