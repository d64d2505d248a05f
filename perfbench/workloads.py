"""The benchmark's workloads and the ops that drive ismaf through its public
API, the same calls `ismaf train` and `ismaf eval` make.

Why each workload exists, its graph shape and which per-layer metric should
move which end-to-end metric on it are in RATIONALE.md.  The workload seed
picks the synthetic corpus only; every workload keeps TrainConfig's default
seed, so the model's initial draw, and with it the similarity graph, differs
between seeds only as much as the corpus does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from harness import OpResult

EVAL_CHUNK = 256  # evaluate()'s default chunk size, reused for predict vectors
SEPARATION = 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train": load -> split -> train -> evaluate -> save -> load model; "eval": load -> evaluate
    n_posts: int
    d: int
    config: dict = field(default_factory=dict)  # TrainConfig overrides
    peak_mb: int = 0  # expected high-water mark of a run: memory guard and warm-up
    # evaluate(test) calls per op, for a steady median; fixed, so a traced
    # op's evaluate spans compare from run to run
    eval_reps: int = 1
    # seconds of reference kernel before and after each timed call
    # (speed.py), and around train(); longer blocks sample more of a long
    # call's time, but every second counts against the run budget
    block_s: float = 0.05
    train_block_s: float = 0.5


WORKLOADS = {
    wl.name: wl
    for wl in (
        # The paper's model on a graph where GAT forward and backward dominate;
        # each step's tape is freed only by the cyclic collector, so memory
        # peaks at 4.8-5.0 GB.
        Workload(
            "train-dense", "train", 1000, 300, {"epochs": 1},
            peak_mb=5000, eval_reps=2, block_s=0.2, train_block_s=1.0,
        ),
        # Small d and a high similarity threshold leave a mostly structural
        # graph: the per-post attention loop and tape overhead dominate.
        # lr 0.01 for 8 epochs reaches 0.96-0.99 test accuracy on every seed
        # tried; the default lr needs far more epochs to get there.
        Workload(
            "train-sparse", "train", 400, 32,
            {"d": 32, "token_len": 4, "theta": 0.9, "epochs": 8, "lr": 0.01},
            peak_mb=400,
            eval_reps=16,
            block_s=0.05,
            train_block_s=0.5,
        ),
        # Read-only use of the paper point (TrainConfig() at n=2000).
        Workload("eval-paper", "eval", 2000, 300, {}, peak_mb=1100, eval_reps=1, block_s=0.5),
    )
}


def corpus(api, wl: Workload, seed: int):
    return api.generate_synthetic(n=wl.n_posts, d=wl.d, separation=SEPARATION, seed=seed)


def config(api, wl: Workload):
    return api.TrainConfig(**wl.config)


def prepare_eval_files(api, wl: Workload, seed: int, workdir: Path) -> None:
    """Write the eval corpus as jsonl and a checkpoint of it, before timing.

    The checkpoint holds the model's initial parameters: training at n=2000
    does not fit in 8 GB, and a checkpoint trained on a smaller corpus costs
    10-16 s of every run (RATIONALE.md).  Evaluation time does not depend on
    the parameter values.
    """
    cfg = config(api, wl)
    bundle = corpus(api, wl, seed)
    api.save_dataset(bundle, workdir / "data")
    split = api.split_dataset(bundle, cfg.fractions, cfg.seed)
    api.save_model(api.IsmafModel(cfg, split), workdir / "model.json")


def predict_vector(model, ids) -> np.ndarray:
    """Labels for `ids` from the public predict(), chunked as evaluate() does."""
    parts = [model.predict(ids[i : i + EVAL_CHUNK]) for i in range(0, len(ids), EVAL_CHUNK)]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def timed_evaluate(api, speed, model, split, reps: int):
    """evaluate(model, split, "test") `reps` times: the raw and the scaled
    seconds of each call (speed.py), the confusion counts all calls agree
    on, and the accuracy."""
    raw, scaled, counts = [], [], set()
    for _ in range(reps):
        report, seconds, at_reference = speed.timed(api.evaluate, model, split, "test")
        raw.append(seconds)
        scaled.append(at_reference)
        counts.add((report.tp, report.fp, report.tn, report.fn))
    if len(counts) > 1:
        raise RuntimeError(f"repeated evaluate calls disagree: {sorted(counts)}")
    return raw, scaled, counts.pop(), report.accuracy


class TrainSession:
    """train-*: each op is `ismaf train` on a corpus written as jsonl before
    timing, followed by the save -> load round trip of its checkpoint."""

    def __init__(self, api, wl: Workload, seed: int, workdir: Path):
        self.api = api
        self.config = config(api, wl)
        self.data_dir = workdir / "data"
        api.save_dataset(corpus(api, wl, seed), self.data_dir)
        self.corpus = api.load_dataset(self.data_dir)
        self.checkpoint = workdir / "model.json"
        self.eval_reps = wl.eval_reps
        self.train_block_s = wl.train_block_s

    def setup(self):
        """split_dataset + IsmafModel, which builds the graph."""
        split = self.api.split_dataset(self.corpus, self.config.fractions, self.config.seed)
        return self.api.IsmafModel(self.config, split)

    def warm_up(self, model) -> None:
        """One untimed evaluate on a setup model, so the first timed op does
        not also pay for growing the heap to its working size."""
        self.api.evaluate(model, model.dataset, "test")

    def op(self, speed):
        """The timed op: its OpResult and the state check_outputs needs.
        Only train() and evaluate() are timed; loading the corpus and the
        checkpoint is part of the op so that a traced op calls every layer
        an eval op calls."""
        api, cfg = self.api, self.config
        start = time.perf_counter()
        split = api.split_dataset(api.load_dataset(self.data_dir), cfg.fractions, cfg.seed)
        result, train_raw, train_s = speed.timed(api.train, cfg, split, block_s=self.train_block_s)
        eval_raw, eval_s, confusion, accuracy = timed_evaluate(api, speed, result.model, split, self.eval_reps)
        api.save_model(result.model, self.checkpoint)
        reloaded = api.load_model(self.checkpoint, split)
        end = time.perf_counter()
        res = OpResult(
            op_s=train_s,
            op_posts=cfg.epochs * len(split.split_ids("train")),
            eval_s=eval_s,
            eval_posts=len(split.split_ids("test")),
            wall_s=end - start,
            accuracy=accuracy,
            confusion=confusion,
            losses=[tuple(float(v) for v in h.losses.as_dict().values()) for h in result.history],
            op_raw_s=train_raw,
            eval_raw_s=eval_raw,
        )
        return res, (result.model, reloaded, split)

    def check_outputs(self, res: OpResult, state, want_predictions: bool) -> None:
        """Prediction vector of the trained model and of its reloaded
        checkpoint (untimed, untraced)."""
        model, reloaded, split = state
        ids = split.split_ids("test")
        res.predictions = predict_vector(model, ids)
        res.roundtrip = predict_vector(reloaded, ids)


class EvalSession:
    """eval-paper: each op is `ismaf eval` on the files prepare_eval_files wrote."""

    def __init__(self, api, wl: Workload, seed: int, workdir: Path):
        self.api = api
        self.data_dir = workdir / "data"
        self.checkpoint = workdir / "model.json"
        self.eval_reps = wl.eval_reps

    def setup(self):
        """load_dataset + load_model."""
        return self.api.load_model(self.checkpoint, self.api.load_dataset(self.data_dir))

    def warm_up(self, model) -> None:
        """One untimed evaluate on a setup model (see TrainSession)."""
        cfg = model.config
        model.dataset = self.api.split_dataset(model.dataset, cfg.fractions, cfg.seed)
        self.api.evaluate(model, model.dataset, "test")

    def op(self, speed):
        api = self.api
        start = time.perf_counter()
        model, load_raw, load_s = speed.timed(self.setup)
        split = api.split_dataset(model.dataset, model.config.fractions, model.config.seed)
        model.dataset = split
        eval_raw, eval_s, confusion, accuracy = timed_evaluate(api, speed, model, split, self.eval_reps)
        end = time.perf_counter()
        n_test = len(split.split_ids("test"))
        res = OpResult(
            op_s=load_s + eval_s[0],
            op_posts=n_test,
            eval_s=eval_s,
            eval_posts=n_test,
            wall_s=end - start,
            accuracy=accuracy,
            confusion=confusion,
            setup_s=load_s,
            setup_raw_s=load_raw,
            op_raw_s=load_raw + eval_raw[0],
            eval_raw_s=eval_raw,
        )
        return res, (model, split)

    def check_outputs(self, res: OpResult, state, want_predictions: bool) -> None:
        """Prediction vector, on the ops that compare one (untimed, untraced)."""
        if want_predictions:
            model, split = state
            res.predictions = predict_vector(model, split.split_ids("test"))


SESSIONS = {"train": TrainSession, "eval": EvalSession}


# ---------------------------------------------------------------------------
# traffic properties of the graph a workload runs on

KINDS = ("post", "comment", "user")


def graph_properties(model, train_ids, batch_size: int, seed: int) -> dict[str, float]:
    """Node and edge counts by kind, user in-degree, and the share of edges a
    batch of `train_ids` (drawn with `seed`) can reach through the GAT stack.

    Edges are directed, as the GAT consumes them; `graph_edges.<a>-<b>` counts
    both directions of each non-loop pair between kinds a and b.
    """
    graph = model.graph
    src, dst = np.asarray(graph.src), np.asarray(graph.dst)
    kinds = np.array([KINDS.index(k) for k in graph.node_kinds])
    out: dict[str, float] = {
        "encoders.graph_nodes": len(kinds),
        "encoders.graph_edges": int(src.size),
    }
    for i, kind in enumerate(KINDS):
        out[f"encoders.graph_nodes.{kind}"] = int((kinds == i).sum())
    loop = src == dst
    out["encoders.graph_edges.self"] = int(loop.sum())
    lo = np.minimum(kinds[src], kinds[dst])[~loop]
    hi = np.maximum(kinds[src], kinds[dst])[~loop]
    for i, a in enumerate(KINDS):
        for j in range(i, len(KINDS)):
            out[f"encoders.graph_edges.{a}-{KINDS[j]}"] = int(((lo == i) & (hi == j)).sum())

    in_degree = np.bincount(dst[~loop], minlength=len(kinds))[kinds == KINDS.index("user")]
    out["encoders.user_in_degree_mean"] = float(in_degree.mean())
    out["encoders.user_in_degree_p90"] = float(np.percentile(in_degree, 90))

    layers = model.config.gat_layers
    order = np.random.default_rng(seed).permutation(len(train_ids))
    shares = []
    for start in range(0, len(order), batch_size):
        rows = [graph.index[train_ids[k]] for k in order[start : start + batch_size]]
        shares.append(receptive_edges(src, dst, len(kinds), rows, layers) / src.size)
    out["encoders.gat_receptive_edge_share"] = float(np.mean(shares))
    return out


def receptive_edges(src, dst, n_nodes: int, rows, layers: int) -> int:
    """Edges whose messages can reach `rows` through `layers` GAT layers:
    the in-edges of the nodes within `layers - 1` hops back of `rows`."""
    frontier = np.zeros(n_nodes, dtype=bool)
    frontier[rows] = True
    needed = np.zeros(src.size, dtype=bool)
    for _ in range(layers):
        into = frontier[dst]
        needed |= into
        frontier[src[into]] = True
    return int(needed.sum())
