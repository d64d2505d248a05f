"""Span tracing of the ismaf library from outside it.

`Tracer` replaces public functions and methods of the `ismaf` modules with
timing wrappers for the duration of a `with` block and restores them on exit.
Nothing under `src/` knows about it.  A function that no longer exists is
recorded in `Tracer.absent` and the run goes on without it, so a later change
that renames or removes a public function leaves the benchmark runnable.

Spans are kept in parallel lists of strings, floats and ints, which the
cyclic garbage collector does not track, so storing them does not move the
collector's schedule (the program's peak memory depends on it).  The wrapper
calls themselves still allocate a few tracked objects each.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import weakref
from collections import Counter
from dataclasses import dataclass, field

# span name -> (module under ismaf, attribute path inside it)
SPAN_TARGETS = {
    "data.load_dataset": ("data", "load_dataset"),
    "data.split_dataset": ("data", "split_dataset"),
    "encoders.build_social_graph": ("encoders", "build_social_graph"),
    "encoders.encode_text_batch": ("encoders", "encode_text_batch"),
    "encoders.signed_gat_layer": ("encoders", "signed_gat_layer"),
    "bridging.self_attention": ("bridging", "self_attention"),
    "bridging.co_attention": ("bridging", "co_attention"),
    "bridging.scl_loss": ("bridging", "scl_loss"),
    "bridging.cmca_loss": ("bridging", "cmca_loss"),
    "bridging.mutual_learning": ("bridging", "mutual_learning_loss"),
    "fusion.adaptive_fuse": ("fusion", "adaptive_fuse"),
    "fusion.classify": ("fusion", "classify"),
    "fusion.ce_loss": ("fusion", "ce_loss"),
    "model.forward": ("model", "IsmafModel.forward"),
    "model.social_batch": ("model", "IsmafModel.social_batch"),
    "model.predict": ("model", "IsmafModel.predict"),
    "autodiff.backward": ("autodiff", "Tape.backward"),
    "training.train": ("training", "train"),
    "training.evaluate": ("training", "evaluate"),
    "training.adam_step": ("training", "Adam.step"),
    "serialize.save_model": ("serialize", "save_model"),
    "serialize.load_model": ("serialize", "load_model"),
}

# counters: tape records emitted; tapes created (held by weakref for
# autodiff.live_tapes_max)
COUNT_TARGETS = {
    "autodiff.tape_records": ("autodiff", "Tape.emit"),
    "autodiff.tapes": ("autodiff", "Tape.__init__"),
}

NO_PARENT = -1


@dataclass
class Trace:
    """Spans of one traced op plus the counts taken at the same boundaries."""

    names: list[str] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    run_ids: list[int] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    live_tapes_max: int | None = None

    def add(self, name, start, end, parent=NO_PARENT, run_id=0) -> int:
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.run_ids.append(run_id)
        return len(self.names) - 1

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.names]
        for i, p in enumerate(self.parents):
            if p != NO_PARENT:
                kids[p].append(i)
        return kids

    def self_time(self, name: str) -> float:
        """Summed duration of `name` spans minus the part of each span's
        interval that its child spans cover."""
        kids = self.children()
        total = 0.0
        for i, n in enumerate(self.names):
            if n != name:
                continue
            start, end = self.starts[i], self.ends[i]
            covered = _union_length(
                (max(self.starts[k], start), min(self.ends[k], end)) for k in kids[i]
            )
            total += (end - start) - covered
        return total

    def count_within(self, name: str, ancestor: str) -> int:
        """Number of `name` spans that have an `ancestor` span above them."""
        hits = 0
        for i, n in enumerate(self.names):
            if n != name:
                continue
            p = self.parents[i]
            while p != NO_PARENT and self.names[p] != ancestor:
                p = self.parents[p]
            hits += p != NO_PARENT
        return hits


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _resolve(package, module_name: str, path: str):
    """(owner, attribute, original) for `module.path`, or None if missing."""
    owner = getattr(package, module_name, None)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    if inspect.isclass(owner):
        original = owner.__dict__.get(parts[-1])
    else:
        original = getattr(owner, parts[-1], None)
    if not callable(original):
        return None
    return owner, parts[-1], original


class Tracer:
    """Context manager that wraps the ismaf public API with span recorders."""

    def __init__(self, package, run_id: int = 0):
        self.package = package
        self.run_id = run_id
        self.trace = Trace()
        self.absent: dict[str, str] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._tapes: list[weakref.ref] = []

    # -- patching ------------------------------------------------------------

    def __enter__(self):
        for name, (module, path) in SPAN_TARGETS.items():
            self._patch(name, module, path, self._span_wrapper)
        for name, (module, path) in COUNT_TARGETS.items():
            self._patch(name, module, path, self._count_wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def _patch(self, name, module, path, make_wrapper):
        found = _resolve(self.package, module, path)
        if found is None:
            self.absent[name] = f"ismaf.{module}.{path} not found"
            return
        owner, attr, original = found
        wrapper = make_wrapper(name, original)
        if inspect.isclass(owner):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # Module functions are also bound by name in other modules
        # (`from .data import split_dataset`): replace every such binding.
        prefix = self.package.__name__
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _span_wrapper(self, name, fn):
        trace, stack, observer = self.trace, self._stack, OBSERVERS.get(name)
        on_step = self._count_live_tapes if name == "training.adam_step" else None
        signature = _signature(fn) if observer else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_step is not None:
                on_step()
            parent = stack[-1] if stack else NO_PARENT
            index = trace.add(name, time.perf_counter(), 0.0, parent, self.run_id)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                trace.ends[index] = time.perf_counter()
                stack.pop()
            if observer is not None and signature is not None:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                except TypeError:
                    bound = {}
                observer(trace, bound, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.trace.counts
        tapes = self._tapes

        if name == "autodiff.tapes":
            @functools.wraps(fn)
            def wrapper(tape, *args, **kwargs):
                fn(tape, *args, **kwargs)
                tapes.append(weakref.ref(tape))
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        return wrapper

    def _count_live_tapes(self):
        alive = [ref for ref in self._tapes if ref() is not None]
        self._tapes[:] = alive
        best = self.trace.live_tapes_max
        self.trace.live_tapes_max = len(alive) if best is None else max(best, len(alive))


def _signature(fn):
    try:
        return inspect.signature(fn)
    except (TypeError, ValueError):
        return None


def _count_edge_rows(trace: Trace, args: dict, result) -> None:
    src = getattr(args.get("graph"), "src", None)
    if src is not None:
        trace.counts["encoders.gat_edge_rows"] += int(src.size)


def _count_checkpoint_bytes(trace: Trace, args: dict, result) -> None:
    path = args.get("path")
    if path is not None and os.path.exists(path):
        trace.counts["serialize.checkpoint_bytes"] = os.path.getsize(path)


# span name -> fn(trace, bound_arguments, result), called after the wrapped
# call returns, for counts that need the call's arguments
OBSERVERS = {
    "encoders.signed_gat_layer": _count_edge_rows,
    "serialize.save_model": _count_checkpoint_bytes,
    "serialize.load_model": _count_checkpoint_bytes,
}


# ---------------------------------------------------------------------------
# per-layer metrics

# metric name -> span whose summed inclusive time it reports
TIME_METRICS = {
    "encoders.signed_gat_layer_s": "encoders.signed_gat_layer",
    "encoders.build_social_graph_s": "encoders.build_social_graph",
    "encoders.encode_text_batch_s": "encoders.encode_text_batch",
    "bridging.self_attention_s": "bridging.self_attention",
    "bridging.co_attention_s": "bridging.co_attention",
    "bridging.scl_loss_s": "bridging.scl_loss",
    "bridging.cmca_loss_s": "bridging.cmca_loss",
    "bridging.mutual_learning_s": "bridging.mutual_learning",
    "fusion.adaptive_fuse_s": "fusion.adaptive_fuse",
    "fusion.classify_s": "fusion.classify",
    "fusion.ce_loss_s": "fusion.ce_loss",
    "autodiff.backward_s": "autodiff.backward",
    "training.evaluate_s": "training.evaluate",
    "training.adam_step_s": "training.adam_step",
    "model.social_batch_s": "model.social_batch",
    "data.load_dataset_s": "data.load_dataset",
    "data.split_dataset_s": "data.split_dataset",
    "serialize.load_model_s": "serialize.load_model",
    "serialize.save_model_s": "serialize.save_model",
}

# Metrics that only a training op can give (an eval op has no tape, no
# backward and no optimizer step) -> unit.  BENCHMARK.json lists only the
# metrics every workload reports; runs print these on their own lines.
TRAIN_ONLY_METRICS = {
    "autodiff.backward_s": "s",
    "autodiff.tape_records_per_step": "records/step",
    "autodiff.live_tapes_max": "tapes",
    "training.adam_step_s": "s",
    "training.steps": "count",
    "bridging.scl_loss_s": "s",
    "bridging.cmca_loss_s": "s",
    "bridging.mutual_learning_s": "s",
    "fusion.ce_loss_s": "s",
    "serialize.save_model_s": "s",
}

CALL_METRICS = {
    "encoders.signed_gat_layer_calls": "encoders.signed_gat_layer",
    "bridging.self_attention_calls": "bridging.self_attention",
    "bridging.co_attention_calls": "bridging.co_attention",
    "training.steps": "training.adam_step",
}


def layer_metrics(trace: Trace, absent_spans: dict[str, str]) -> tuple[dict, dict]:
    """Per-layer values of one traced op, and the reason for each metric that
    has none: its function was not found, or the op never called it."""
    values: dict[str, float] = {}
    absent: dict[str, str] = {}

    def need(metric, *spans):
        for span in spans:
            if span in absent_spans:
                absent[metric] = absent_spans[span]
                return False
        return True

    def calls(span):
        return sum(1 for n in trace.names if n == span)

    for metric, span in TIME_METRICS.items():
        if need(metric, span):
            if calls(span):
                values[metric] = sum(trace.durations(span))
            else:
                absent[metric] = f"{span} not called on this workload"
    for metric, span in CALL_METRICS.items():
        if need(metric, span):
            values[metric] = calls(span)

    if need("model.forward_self_s", "model.forward"):
        if calls("model.forward"):
            values["model.forward_self_s"] = trace.self_time("model.forward")
        else:
            absent["model.forward_self_s"] = "model.forward not called on this workload"

    metric = "encoders.gat_edge_rows"
    if need(metric, "encoders.signed_gat_layer"):
        if calls("encoders.signed_gat_layer") and metric not in trace.counts:
            absent[metric] = "signed_gat_layer takes no graph with .src"
        else:
            values[metric] = trace.counts[metric]

    metric = "training.predict_calls_per_evaluate"
    if need(metric, "training.evaluate", "model.predict"):
        n_eval = calls("training.evaluate")
        if n_eval:
            values[metric] = trace.count_within("model.predict", "training.evaluate") / n_eval
        else:
            absent[metric] = "training.evaluate not called on this workload"

    metric = "autodiff.tape_records_per_step"
    if need(metric, "autodiff.backward", "autodiff.tape_records"):
        steps = calls("autodiff.backward")
        if steps:
            values[metric] = trace.counts["autodiff.tape_records"] / steps
        else:
            absent[metric] = "autodiff.backward not called on this workload"

    metric = "autodiff.live_tapes_max"
    if need(metric, "training.adam_step", "autodiff.tapes"):
        if trace.live_tapes_max is None:
            absent[metric] = "training.adam_step not called on this workload"
        else:
            values[metric] = trace.live_tapes_max

    metric = "serialize.checkpoint_bytes"
    if metric in trace.counts:
        values[metric] = trace.counts[metric]
    else:
        absent[metric] = "no checkpoint file saved or loaded on this workload"
    return values, absent
