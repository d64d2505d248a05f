"""Op loop and output checks of the benchmark, independent of ismaf itself.

An op is one pass of a workload's user-facing flow (train, evaluate, save; or
load, evaluate).  Every op's outputs are checked; an op whose check fails is
counted as failed and its timings are dropped, never reported.
"""

from __future__ import annotations

import math
import resource
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

MEMORY_MARGIN_MB = 512


@dataclass
class OpResult:
    """Timings and outputs of one op."""

    op_s: float  # scaled time (speed.py) of the main call(s): train(), or load + evaluate
    op_posts: int  # posts those calls processed
    eval_s: list[float]  # scaled time of each evaluate(model, ds, "test") call
    eval_posts: int  # test-split size
    wall_s: float  # the whole op, for the trace overhead ratio
    accuracy: float
    confusion: tuple[int, int, int, int]  # tp, fp, tn, fn from every evaluate call
    setup_s: float | None = None  # load_dataset + load_model (scaled), where the op loads
    losses: list[tuple[float, ...]] = field(default_factory=list)  # per epoch
    predictions: np.ndarray | None = None  # test-split labels from predict()
    roundtrip: np.ndarray | None = None  # the same after save_model -> load_model
    layers: dict | None = None  # per-layer metrics of a traced op
    absent: dict | None = None  # per-layer metrics a traced op could not give
    # raw wall times of the same calls, for the run's log
    op_raw_s: float | None = None
    eval_raw_s: list[float] = field(default_factory=list)
    setup_raw_s: float | None = None


def check_op(res: OpResult, ref: OpResult | None) -> list[str]:
    """Problems with one op's outputs; `ref` is the first good op of the run,
    made with the same code, corpus and config, so every output must match it
    bit for bit (a traced op is compared with the untraced one the same way).
    """
    problems = []
    for epoch, parts in enumerate(res.losses):
        if not all(math.isfinite(v) for v in parts):
            problems.append(f"non-finite loss at epoch {epoch}: {parts}")
    if sum(res.confusion) != res.eval_posts:
        problems.append(f"evaluate counted {sum(res.confusion)} predictions for {res.eval_posts} test posts")
    if res.predictions is not None and len(res.predictions) != res.eval_posts:
        problems.append(f"predict returned {len(res.predictions)} labels for {res.eval_posts} test posts")
    if res.roundtrip is not None and not _same(res.roundtrip, res.predictions):
        problems.append("save_model -> load_model round trip changed predictions")
    if ref is not None:
        if np.asarray(res.losses).tobytes() != np.asarray(ref.losses).tobytes():
            problems.append("loss history differs from the first op of this run")
        if res.confusion != ref.confusion:
            problems.append(f"confusion counts {res.confusion} differ from {ref.confusion} of the first op")
        if res.predictions is not None and ref.predictions is not None and not _same(res.predictions, ref.predictions):
            problems.append("prediction vector differs from the first op of this run")
    return problems


def _same(a, b) -> bool:
    return a is not None and b is not None and np.array_equal(np.asarray(a), np.asarray(b))


@dataclass
class OpLog:
    attempted: int = 0
    failed: int = 0
    results: list[OpResult] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def run_ops(op, seconds: float, min_ops: int, odd_count: bool = False, guard=None) -> OpLog:
    """Run `op(index)` until `seconds` have passed and at least `min_ops` ops
    (an odd number of them, with `odd_count`) were attempted.

    `guard()` runs before each op and returns a reason not to start it (too
    little free memory); that op counts as failed and the loop stops.
    """
    log = OpLog()
    ref = None
    start = time.perf_counter()
    while (
        log.attempted < min_ops
        or (odd_count and log.attempted % 2 == 0)
        or time.perf_counter() - start < seconds
    ):
        index = log.attempted
        log.attempted += 1
        reason = guard() if guard is not None else None
        if reason is not None:
            log.failed += 1
            log.problems.append(f"op {index}: not started: {reason}")
            break
        try:
            res = op(index)
            problems = check_op(res, ref)
        except Exception as exc:  # noqa: BLE001 - any error fails the op, the run goes on
            problems = [f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"]
        if problems:
            log.failed += 1
            log.problems.extend(f"op {index}: {p}" for p in problems)
            continue
        if ref is None:
            ref = res
        log.results.append(res)
    return log


def warm_memory(mb: float) -> None:
    """Touch `mb` MB and free it, unless memory_guard objects.

    On a VM whose host takes back free guest memory, the first touch of such
    pages is slow: 3.5 GB took 4.0 s, mostly kernel time, against 1.0 s a
    moment later.  Touching the run's expected peak just before it starts
    keeps its speed from depending on how long ago the last run ran.  Run it
    in a process of its own, or it becomes the run's peak RSS.
    """
    if memory_guard(mb) is None:
        block = np.ones(int(mb * 2**20) // 8)
        del block


def memory_guard(expected_peak_mb: float):
    """Reason not to start an op that may grow this process to
    `expected_peak_mb`, or None when MemAvailable leaves room for it plus
    `MEMORY_MARGIN_MB` (or /proc is unavailable)."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            info = dict(line.split(":", 1) for line in fh)
        with open("/proc/self/statm", encoding="ascii") as fh:
            rss_pages = int(fh.read().split()[1])
    except (OSError, ValueError):
        return None
    available_mb = int(info["MemAvailable"].split()[0]) / 1024
    rss_mb = rss_pages * resource.getpagesize() / 2**20
    needed_mb = expected_peak_mb - rss_mb + MEMORY_MARGIN_MB
    if available_mb < needed_mb:
        return f"MemAvailable {available_mb:.0f} MB < {needed_mb:.0f} MB needed for a peak of {expected_peak_mb} MB"
    return None

