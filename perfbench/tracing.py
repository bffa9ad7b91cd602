"""Span tracer for one `domerge` CLI run, installed from outside the package.

Run as a script, it calls domerge.cli.main in its own process under the
tracer and writes the spans to a file:

    PYTHONPATH=src python3 perfbench/tracing.py --spans SPANS.jsonl --run-id ID -- merge ARGS...

`installed(tracer)` rebinds the public functions of domerge.checkpoint,
ortho, linalg and merge, plus TensorRecord.to_array / from_array, with timing
wrappers. It rebinds them in every loaded domerge module namespace that holds
them, so calls made through `from .linalg import decouple`-style imports are
seen as well, and it restores the originals on exit. Nothing under src/
changes.

Spans stay in memory with one parent stack per thread (a span opened on a
worker thread with an empty stack is a root). They carry name, start, end,
parent and run id, and are written out once the run ends. Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

LAYER_MODULES = ("checkpoint", "ortho", "linalg", "merge")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn, attrs=None):
        """Time every call of fn as a span; attrs(bound_args, result) adds counts after the clock stops."""
        signature = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = Span(next(self._ids), stack[-1] if stack else None, name, 0.0, 0.0,
                        threading.get_ident(), self.run_id)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if attrs:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = attrs(bound.arguments, result)
            return result

        return traced

    def write(self, path, wall_s: float) -> None:
        """A header line with the run's wall time, then one line per span in start order, with its self time."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        with open(path, "w") as fh:
            fh.write(json.dumps({"run": self.run_id, "wall_s": wall_s}) + "\n")
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({**asdict(s), "self": s.duration - child_time[s.id]}) + "\n")


def read_spans(path) -> tuple[float, list[Span]]:
    """(wall_s, spans) from a file written by Tracer.write."""
    with open(path) as fh:
        wall_s = json.loads(fh.readline())["wall_s"]
        spans = []
        for line in fh:
            record = json.loads(line)
            record.pop("self")
            spans.append(Span(**record))
    return wall_s, spans


def _public_functions(module):
    return [
        (name, obj)
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    ]


def _attr_hooks(ortho_module):
    def file_bytes(args, result):
        return {"bytes": os.path.getsize(args["path"])}

    def descent(args, result):
        config = args["config"] or ortho_module.OrthoConfig()
        stats = result[1]
        worst = max(stats.per_member_rel_perturbation, default=0.0)
        return {
            "steps": stats.steps_taken,
            "cap": config.max_steps,
            "budget_used": worst / config.max_rel_perturbation,
        }

    return {
        "checkpoint.load_checkpoint": file_bytes,
        "checkpoint.save_checkpoint": file_bytes,
        "ortho.orthogonalize_group": descent,
    }


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind the layer functions of the imported domerge package for the duration."""
    import domerge.cli  # noqa: F401  (loads every module on the merge path)

    package = [m for n, m in list(sys.modules.items()) if n == "domerge" or n.startswith("domerge.")]
    hooks = _attr_hooks(sys.modules["domerge.ortho"])
    undo = []

    def rebind(original, wrapped):
        for module in package:
            for attr, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, attr, value))
                    setattr(module, attr, wrapped)

    try:
        for short in LAYER_MODULES:
            for name, fn in _public_functions(sys.modules[f"domerge.{short}"]):
                span_name = f"{short}.{name}"
                rebind(fn, tracer.wrap(span_name, fn, hooks.get(span_name)))
        record = sys.modules["domerge.checkpoint"].TensorRecord
        for name in ("to_array", "from_array"):
            raw = record.__dict__[name]
            undo.append((record, name, raw))
            span_name = f"checkpoint.TensorRecord.{name}"
            if isinstance(raw, classmethod):
                setattr(record, name, classmethod(tracer.wrap(span_name, raw.__func__)))
            else:
                setattr(record, name, tracer.wrap(span_name, raw))
        yield tracer
    finally:
        for obj, attr, value in reversed(undo):
            setattr(obj, attr, value)


def _covered(intervals) -> float:
    """Length of the union of [start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans: list[Span], wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run; `wall` is the run's traced wall time."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def self_s(name):
        return sum(s.duration - sum(c.duration for c in children[s.id]) for s in by_name[name])

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    groups = by_name["ortho.orthogonalize_group"]
    group_ids = {s.id for s in groups}
    b_s = a_s = 0.0
    for layer in by_name["merge.merge_layer"]:
        # the B group is orthogonalized first, then the transposed A group
        order = sorted((c for c in children[layer.id] if c.id in group_ids), key=lambda c: c.start)
        b_s += sum(c.duration for c in order[0:1])
        a_s += sum(c.duration for c in order[1:2])
    steps = attr_sum("ortho.orthogonalize_group", "steps")
    trials = sum(1 for s in by_name["ortho.ortho_loss"] if s.parent in group_ids)
    capped = sum(1 for s in groups if s.attrs and s.attrs["steps"] >= s.attrs["cap"])
    n_groups = len(groups)

    return {
        "checkpoint.read_s": (self_s("checkpoint.load_checkpoint"), "s"),
        "checkpoint.decode_s": (self_s("checkpoint.TensorRecord.to_array"), "s"),
        "checkpoint.encode_s": (self_s("checkpoint.TensorRecord.from_array"), "s"),
        "checkpoint.write_s": (self_s("checkpoint.save_checkpoint"), "s"),
        "checkpoint.bytes_read": (attr_sum("checkpoint.load_checkpoint", "bytes"), "bytes"),
        "checkpoint.bytes_written": (attr_sum("checkpoint.save_checkpoint", "bytes"), "bytes"),
        "ortho.busy_s": (sum(s.duration for s in groups), "s"),
        "ortho.B_s": (b_s, "s"),
        "ortho.A_s": (a_s, "s"),
        "ortho.grad_s": (self_s("ortho.ortho_grad"), "s"),
        "ortho.loss_s": (self_s("ortho.ortho_loss"), "s"),
        "ortho.groups": (n_groups, "count"),
        "ortho.steps": (steps, "count"),
        "ortho.trials": (trials, "count"),
        "ortho.accept_ratio": (steps / trials if trials else 0.0, "ratio"),
        "ortho.step_cap_frac": (capped / n_groups if n_groups else 0.0, "ratio"),
        "ortho.budget_used": (
            attr_sum("ortho.orthogonalize_group", "budget_used") / n_groups if n_groups else 0.0,
            "ratio",
        ),
        "linalg.decouple_s": (self_s("linalg.decouple"), "s"),
        "linalg.decouple_calls": (len(by_name["linalg.decouple"]), "count"),
        "linalg.recompose_s": (self_s("linalg.recompose"), "s"),
        "linalg.svd_s": (self_s("linalg.svd_truncate"), "s"),
        "merge.layer_s": (self_s("merge.merge_layer"), "s"),
        "merge.assemble_s": (self_s("merge.assemble_full_rank"), "s"),
        "merge.assemble_calls": (len(by_name["merge.assemble_full_rank"]), "count"),
        "merge.layers": (len(by_name["merge.merge_layer"]), "count"),
        "cli.other_s": (wall - _covered((s.start, s.end) for s in spans if s.parent is None), "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run the domerge CLI under the span tracer")
    parser.add_argument("--spans", required=True, help="where to write the span file")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then the domerge arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import domerge.cli

    tracer = Tracer(args.run_id)
    with installed(tracer):
        start = time.perf_counter()
        code = domerge.cli.main(cli_args)
        wall = time.perf_counter() - start
    tracer.write(args.spans, wall)
    return code


if __name__ == "__main__":
    sys.exit(main())
