"""One benchmark run in a process of its own (started by run.py).

    worker.py prepare WORKLOAD SEED WORKDIR
    worker.py warm WORKLOAD
    worker.py measure WORKLOAD SEED SECONDS TRACE WORKDIR RESULT_JSON

`prepare` writes the files an eval workload reads.  `warm` touches as much
memory as the workload is expected to peak at (harness.warm_memory).
`measure` times setup for about a second, then runs ops until SECONDS have passed
(at least two, so every run checks determinism), and writes the metrics
BENCHMARK.json declares to RESULT_JSON: the end-to-end ones with TRACE 0;
with TRACE 1 it alternates untraced and traced ops and writes the per-layer
ones.  The process serves this run only, so its peak RSS is the run's.
"""

from __future__ import annotations

import gc
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from harness import memory_guard, run_ops, warm_memory  # noqa: E402
from speed import Speedometer  # noqa: E402
from tracing import TRAIN_ONLY_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import SESSIONS, WORKLOADS, graph_properties, prepare_eval_files  # noqa: E402

SETUP_SECONDS = 1.0  # setup repeats until it has taken this long
MIN_OPS = 2


def import_ismaf():
    sys.path.insert(0, str(ROOT / "src"))
    return importlib.import_module("ismaf")


def declared_metrics() -> dict[str, list[dict]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"0": spec["end_to_end"], "1": spec["per_layer"]}


def measure(api, workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    wl = WORKLOADS[workload]
    session = SESSIONS[wl.kind](api, wl, seed, workdir)
    speed = Speedometer(wl.block_s, enabled=not trace)

    setup_samples, setup_raw = [], []
    while sum(setup_raw) < SETUP_SECONDS:
        model, seconds_taken, scaled = speed.timed(session.setup)
        setup_raw.append(seconds_taken)
        setup_samples.append(scaled)
    graph = {}
    if trace:
        cfg = model.config
        try:
            train_ids = api.split_dataset(model.dataset, cfg.fractions, cfg.seed).split_ids("train")
            graph = graph_properties(model, train_ids, cfg.batch_size, seed)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            print(f"graph properties not measured: {exc!r}", file=sys.stderr)
    try:
        session.warm_up(model)
    except Exception as exc:  # noqa: BLE001 - the ops report the failure
        print(f"warm-up failed: {exc!r}", file=sys.stderr)
    del model

    untraced_wall, traced_ops = {}, {}
    missing_functions: dict[str, str] = {}  # span -> reason, from every traced op

    def op(index):
        gc.collect()  # every op starts from a heap without the last op's garbage
        before = resource.getrusage(resource.RUSAGE_SELF)
        if trace and index % 2:
            tracer = Tracer(api, run_id=index)
            with tracer:
                res, state = session.op(speed)
            res.layers, res.absent = layer_metrics(tracer.trace, tracer.absent)
            missing_functions.update(tracer.absent)
            traced_ops[index] = res
        else:
            res, state = session.op(speed)
            untraced_wall[index] = res.wall_s
        after = resource.getrusage(resource.RUSAGE_SELF)
        print(
            f"op {index}{' traced' if res.layers is not None else ''}: main {res.op_raw_s:.3f} s "
            f"(scaled {res.op_s:.3f}), evaluate {statistics.median(res.eval_raw_s):.3f} s "
            f"(scaled {statistics.median(res.eval_s):.3f}) x{len(res.eval_s)}, "
            f"whole op {res.wall_s:.3f} s (cpu user {after.ru_utime - before.ru_utime:.1f} s, "
            f"sys {after.ru_stime - before.ru_stime:.1f} s)",
            file=sys.stderr,
        )
        session.check_outputs(res, state, want_predictions=index < MIN_OPS)
        return res

    # Traced runs alternate untraced and traced ops and end on an untraced
    # one: each traced op is compared with the mean of its two neighbours,
    # which cancels a steady drift in machine speed across the run.
    log = run_ops(
        op, seconds, MIN_OPS + 1 if trace else MIN_OPS, odd_count=trace,
        guard=lambda: memory_guard(wl.peak_mb),
    )
    for index, res in traced_ops.items():
        around = [untraced_wall.get(index - 1), untraced_wall.get(index + 1)]
        if None not in around:
            res.layers["trace.overhead_ratio"] = res.wall_s / statistics.mean(around)
    ok = log.results
    values: dict[str, tuple[float, int]] = {}  # metric -> (value, samples)

    def median(name, samples):
        if samples:
            values[name] = (statistics.median(samples), len(samples))

    absent: dict[str, str] = {}
    raw: dict[str, float] = {}  # the same medians from unscaled wall times
    if not trace:
        median("setup_s", setup_samples + [r.setup_s for r in ok if r.setup_s is not None])
        median("op_posts_per_s", [r.op_posts / r.op_s for r in ok])
        median("eval_posts_per_s", [r.eval_posts / t for r in ok for t in r.eval_s])
        raw_samples = {
            "setup_s": setup_raw + [r.setup_raw_s for r in ok if r.setup_raw_s is not None],
            "op_posts_per_s": [r.op_posts / r.op_raw_s for r in ok],
            "eval_posts_per_s": [r.eval_posts / t for r in ok for t in r.eval_raw_s],
        }
        raw = {name: statistics.median(v) for name, v in raw_samples.items() if v}
        if ok:
            values["test_accuracy"] = (ok[0].accuracy, len(ok))
        values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
        values["ops_ok_ratio"] = ((log.attempted - log.failed) / log.attempted, log.attempted)
    else:
        traced = [r for r in ok if r.layers is not None]
        for name in sorted({k for r in traced for k in r.layers}):
            median(name, [r.layers[name] for r in traced if name in r.layers])
        for r in traced:
            absent.update({k: v for k, v in r.absent.items() if k not in values})
        for name, value in graph.items():
            values[name] = (value, 1)

    return {
        "attempted": log.attempted,
        "failed": log.failed,
        "problems": log.problems,
        "values": values,
        "absent": absent,
        "missing_functions": missing_functions,
        "raw": raw,
    }


def main(argv: list[str]) -> int:
    command, workload = argv[0], argv[1]
    if command == "warm":
        warm_memory(WORKLOADS[workload].peak_mb)
        return 0
    seed = int(argv[2])
    api = import_ismaf()
    if command == "prepare":
        prepare_eval_files(api, WORKLOADS[workload], seed, Path(argv[3]))
        return 0
    seconds, trace, workdir, result_path = float(argv[3]), argv[4], Path(argv[5]), Path(argv[6])
    declared = declared_metrics()[trace]
    out = measure(api, workload, seed, seconds, trace == "1", workdir)
    metrics, samples, absent = {}, {}, dict(out["absent"])
    for entry in declared:
        name = entry["name"]
        if name in out["values"]:
            value, n = out["values"][name]
            metrics[name] = {"value": value, "unit": entry["unit"]}
            samples[name] = n
        else:
            absent.setdefault(name, "not measured")
    extra = {}  # train-only per-layer metrics, printed but not in the result line
    for name in sorted(set(out["values"]) - {e["name"] for e in declared}):
        if trace != "1" or name not in TRAIN_ONLY_METRICS:
            raise RuntimeError(f"metric missing from BENCHMARK.json: {name}")
        value, n = out["values"][name]
        extra[name] = {"value": value, "unit": TRAIN_ONLY_METRICS[name]}
        samples[name] = n
    result = {
        "attempted": out["attempted"],
        "failed": out["failed"],
        "problems": out["problems"],
        "metrics": metrics,
        "samples": samples,
        "extra": extra,
        "absent": {k: v for k, v in absent.items() if k not in metrics and k not in extra},
        "declared_absent": sorted(e["name"] for e in declared if e["name"] not in metrics),
        "missing_functions": out["missing_functions"],
        "raw": out["raw"],
    }
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
