"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import speed
from harness import OpResult, check_op, run_ops
from tracing import TRAIN_ONLY_METRICS, Trace, Tracer, layer_metrics
from workloads import SESSIONS, Workload, graph_properties, prepare_eval_files, receptive_edges

ROOT = Path(__file__).resolve().parent.parent


def span_tree() -> Trace:
    """op [0, 10]
       forward [1, 6]: two overlapping GAT layers [2, 3] and [2.5, 4], one
                       attention [4.5, 5]  -> self 5 - 2 - 0.5 = 2.5
       forward [7, 9]: a child running past its end, [8, 9.5] -> self 1
    """
    t = Trace()
    op = t.add("op", 0.0, 10.0)
    f1 = t.add("model.forward", 1.0, 6.0, op)
    t.add("encoders.signed_gat_layer", 2.0, 3.0, f1)
    t.add("encoders.signed_gat_layer", 2.5, 4.0, f1)
    t.add("bridging.self_attention", 4.5, 5.0, f1)
    f2 = t.add("model.forward", 7.0, 9.0, op)
    t.add("training.evaluate", 8.0, 9.5, f2)
    return t


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    t = span_tree()
    assert t.self_time("model.forward") == pytest.approx(2.5 + 1.0)
    assert t.self_time("op") == pytest.approx(10.0 - 5.0 - 2.0)
    assert t.self_time("encoders.signed_gat_layer") == pytest.approx(1.0 + 1.5)


def test_count_within_follows_ancestors():
    t = Trace()
    ev = t.add("training.evaluate", 0.0, 4.0)
    inner = t.add("model.social_batch", 0.5, 3.0, ev)
    t.add("model.predict", 1.0, 2.0, inner)
    t.add("model.predict", 2.0, 2.5, ev)
    t.add("model.predict", 5.0, 6.0)
    assert t.count_within("model.predict", "training.evaluate") == 2


def test_layer_metrics_totals_and_absent_reasons():
    t = span_tree()
    t.counts["autodiff.tape_records"] = 30
    t.add("autodiff.backward", 9.0, 9.25)
    t.add("autodiff.backward", 9.25, 9.75)
    values, absent = layer_metrics(t, {"fusion.ce_loss": "ismaf.fusion.ce_loss not found"})
    assert values["encoders.signed_gat_layer_s"] == pytest.approx(2.5)
    assert values["encoders.signed_gat_layer_calls"] == 2
    assert values["model.forward_self_s"] == pytest.approx(3.5)
    assert values["autodiff.tape_records_per_step"] == 15
    assert values["training.steps"] == 0
    assert absent["fusion.ce_loss_s"] == "ismaf.fusion.ce_loss not found"
    assert "not called" in absent["training.adam_step_s"]
    assert "not called" in absent["autodiff.live_tapes_max"]


def test_receptive_edges_walks_back_one_layer_at_a_time():
    # chain 0 -> 1 -> 2 -> 3 plus a self-loop on every node
    src = np.array([0, 1, 2, 0, 1, 2, 3])
    dst = np.array([1, 2, 3, 0, 1, 2, 3])
    assert receptive_edges(src, dst, 4, [3], 1) == 2  # 2->3, 3->3
    assert receptive_edges(src, dst, 4, [3], 2) == 4  # + 1->2, 2->2


# ---------------------------------------------------------------------------
# output checks


def good_result(**changes) -> OpResult:
    fields = dict(
        op_s=1.0, op_posts=100, eval_s=[0.5], eval_posts=4, wall_s=2.0,
        accuracy=0.75, confusion=(2, 1, 1, 0),
        losses=[(0.7, 0.1, 0.2, 0.3, 0.4, 1.1)],
        predictions=np.array([1, 1, 0, 1]), roundtrip=np.array([1, 1, 0, 1]),
    )
    fields.update(changes)
    return OpResult(**fields)


@pytest.mark.parametrize(
    "changes, problem",
    [
        (dict(losses=[(0.7, 0.1, 0.2, 0.3, 0.4, math.nan)]), "non-finite loss"),
        (dict(confusion=(2, 1, 1, 1)), "evaluate counted 5 predictions for 4"),
        (dict(predictions=np.array([1, 1, 0]), roundtrip=np.array([1, 1, 0])), "predict returned 3 labels"),
        (dict(roundtrip=np.array([1, 1, 0, 0])), "round trip changed predictions"),
    ],
)
def test_corrupted_output_is_a_problem(changes, problem):
    assert check_op(good_result(), None) == []
    problems = check_op(good_result(**changes), None)
    assert any(problem in p for p in problems), problems


def test_difference_from_first_op_is_a_problem():
    ref = good_result()
    assert check_op(good_result(), ref) == []
    moved = good_result(losses=[(0.7, 0.1, 0.2, 0.3, 0.4, np.nextafter(1.1, 2.0))])
    assert any("loss history differs" in p for p in check_op(moved, ref))
    flipped = np.array([1, 1, 0, 0])
    other = good_result(predictions=flipped, roundtrip=flipped, confusion=(2, 1, 1, 0))
    assert any("prediction vector differs" in p for p in check_op(other, ref))


def test_failed_ops_are_counted_and_never_timed():
    outputs = iter([
        good_result(op_s=1.0),
        good_result(op_s=2.0, confusion=(2, 1, 1, 1)),  # one prediction too many
        good_result(op_s=3.0, losses=[(math.nan,) * 6]),
        good_result(op_s=4.0),
    ])

    def op(index):
        if index == 4:
            raise RuntimeError("diverged")
        return next(outputs)

    log = run_ops(op, seconds=0.0, min_ops=5)
    assert (log.attempted, log.failed) == (5, 3)
    assert [r.op_s for r in log.results] == [1.0, 4.0]
    assert any("diverged" in p for p in log.problems)


def test_traced_runs_end_on_an_untraced_op():
    ok = lambda i: good_result()  # noqa: E731
    assert run_ops(ok, seconds=0.0, min_ops=2, odd_count=True).attempted == 3
    assert run_ops(ok, seconds=0.0, min_ops=2).attempted == 2


def test_memory_guard_stops_the_loop():
    log = run_ops(lambda i: good_result(), seconds=60.0, min_ops=2, guard=lambda: "no memory")
    assert (log.attempted, log.failed, log.results) == (1, 1, [])


# ---------------------------------------------------------------------------
# scaling to the reference speed


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_time_is_scaled_by_the_kernel_blocks_around_it(monkeypatch):
    clock = FakeClock()
    kernel_s = iter([2.0, 2.0, 4.0, 4.0, 4.0])  # the machine slows down to a quarter

    def kernel():
        clock.now += next(kernel_s) * speed.REFERENCE_S

    def call(seconds):
        clock.now += seconds
        return "done"

    monkeypatch.setattr(speed.time, "perf_counter", clock)
    meter = speed.Speedometer(block_s=0.0, kernel=kernel)
    assert meter.timed(call, 3.0) == ("done", 3.0, pytest.approx(3.0 / 2.0))
    # the block after the first call is the block before the second
    assert meter.timed(call, 3.0) == ("done", 3.0, pytest.approx(3.0 / 3.0))
    clock.now += 1.0  # other work: the next call gets a block of its own
    assert meter.timed(call, 4.0) == ("done", 4.0, pytest.approx(4.0 / 4.0))


def test_disabled_speedometer_reports_raw_time():
    meter = speed.Speedometer(block_s=1.0, enabled=False, kernel=lambda: pytest.fail("kernel ran"))
    _, raw, scaled = meter.timed(lambda: None)
    assert raw == scaled


# ---------------------------------------------------------------------------
# tracing the real library


@pytest.fixture(scope="module")
def ismaf():
    sys.path.insert(0, str(ROOT / "src"))
    import ismaf as api

    return api


def tiny_run(api):
    cfg = api.TrainConfig(d=8, heads=2, batch_size=8, epochs=1, token_len=4, kernel_sizes=(2, 3), gat_layers=1)
    data = api.split_dataset(api.generate_synthetic(n=40, d=8, separation=3, seed=3), cfg.fractions, cfg.seed)
    result = api.train(cfg, data)
    return [h.losses.total for h in result.history], api.evaluate(result.model, data, "test")


def test_tracer_records_spans_restores_functions_and_changes_no_output(ismaf):
    originals = (ismaf.encoders.signed_gat_layer, ismaf.train, ismaf.IsmafModel.forward, ismaf.Tape.emit)
    plain = tiny_run(ismaf)
    tracer = Tracer(ismaf)
    with tracer:
        assert ismaf.train is not originals[1]
        traced = tiny_run(ismaf)
    assert (ismaf.encoders.signed_gat_layer, ismaf.train, ismaf.IsmafModel.forward, ismaf.Tape.emit) == originals
    assert traced == plain
    values, absent = layer_metrics(tracer.trace, tracer.absent)
    steps = values["training.steps"]
    assert steps >= 1 and steps == len(tracer.trace.durations("autodiff.backward"))
    assert values["encoders.signed_gat_layer_calls"] >= steps
    assert values["encoders.gat_edge_rows"] > 0
    assert values["autodiff.tape_records_per_step"] > 0
    assert values["autodiff.live_tapes_max"] >= 1
    assert "data.load_dataset_s" in absent


def test_tracer_tolerates_a_missing_function(ismaf, monkeypatch):
    monkeypatch.delattr(ismaf.fusion, "ce_loss")
    tracer = Tracer(ismaf)
    with tracer:
        pass
    _, absent = layer_metrics(tracer.trace, tracer.absent)
    assert absent["fusion.ce_loss_s"] == "ismaf.fusion.ce_loss not found"
    assert "not called" in absent["fusion.classify_s"]


TINY_CONFIG = {"d": 8, "heads": 2, "batch_size": 8, "epochs": 1, "token_len": 4, "kernel_sizes": (2, 3), "gat_layers": 1}


@pytest.mark.parametrize("kind", ["train", "eval"])
def test_a_traced_op_gives_every_declared_layer_metric(ismaf, tmp_path, kind):
    """The result line must hold every per-layer metric of BENCHMARK.json on
    every workload, so a train op and an eval op must each call every layer
    those metrics time; the train-only ones are kept out of the manifest."""
    wl = Workload("tiny", kind, 40, 8, TINY_CONFIG)
    if kind == "eval":
        prepare_eval_files(ismaf, wl, 3, tmp_path)
    session = SESSIONS[kind](ismaf, wl, 3, tmp_path)
    model = session.setup()
    cfg = model.config
    train_ids = ismaf.split_dataset(model.dataset, cfg.fractions, cfg.seed).split_ids("train")
    measured = set(graph_properties(model, train_ids, cfg.batch_size, 3)) | {"trace.overhead_ratio"}
    tracer = Tracer(ismaf)
    with tracer:
        session.op(speed.Speedometer(block_s=0.0, enabled=False))
    values, absent = layer_metrics(tracer.trace, tracer.absent)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"] for m in spec["per_layer"]}
    assert not declared & set(TRAIN_ONLY_METRICS)
    assert sorted(declared - measured - set(values)) == []
    if kind == "train":
        assert set(TRAIN_ONLY_METRICS) <= set(values)
    else:
        assert set(TRAIN_ONLY_METRICS) - {"training.steps"} <= set(absent)
