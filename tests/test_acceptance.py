"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (visible in any pytest run).

Criteria:
  1. gradient integrity of every loss and the composite (< 1e-4, 5 seeds, < 60 s)
  2. brute-force oracle equivalence of losses, attention, and signed GAT (1e-6)
  3. analytic collapses (single-pair alignment, zero weights, equal
     distributions, perfect reconstruction)
  4. synthetic convergence (separable >= 0.95 within 50 epochs and < 5 min;
     signal-free data stays at chance)
  5. ablation direction (zeroing the social branch on social-only data drops
     accuracy by >= 0.25)
  6. split arithmetic at benchmark scale with bitwise reproducibility
  7. full-run determinism of loss history and metrics
  8. the lambda sweep harness over {0, 0.5, 1}
"""

import time

import numpy as np
import pytest

from ismaf import autodiff as ad
from ismaf.autodiff import ParamStore, Tensor
from ismaf import bridging, fusion
from ismaf.cli import main as cli_main
from ismaf.config import TrainConfig, save_config
from ismaf.data import PostRecord, assign_splits, generate_synthetic, save_dataset
from ismaf.gradcheck import TOLERANCE, run_suite
from ismaf.training import evaluate, train

import oracles


def _synthetic_run_config(**overrides):
    base = dict(d=32, heads=8, batch_size=32, epochs=12, token_len=4, theta=0.6, seed=21)
    base.update(overrides)
    return TrainConfig(**base)


def test_criterion_1_gradient_integrity(capsys):
    start = time.time()
    worst = {}
    for seed in range(5):
        for result in run_suite(seed):
            worst[result.name] = max(worst.get(result.name, 0.0), result.max_rel_error)
            assert result.max_rel_error < TOLERANCE, (
                f"{result.name} seed {seed}: {result.max_rel_error:.3e}"
            )
    elapsed = time.time() - start
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    detail = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    with capsys.disabled():
        print(f"\nACCEPTANCE 1 PASS: gradient integrity over 5 seeds in {elapsed:.1f}s ({detail})")


def test_criterion_2_oracle_equivalence(capsys):
    rng = np.random.default_rng(1234)

    feats = rng.normal(size=(4, 9))
    labels = [0, 0, 1, 1]
    got = float(bridging.scl_loss(feats, labels, 0.5).data)
    want = oracles.scl_double_loop(feats, labels, 0.5)
    assert abs(got - want) < 1e-6

    z, r = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
    got = float(bridging.cmca_loss(z, r, 0.5).data)
    want = oracles.cmca_double_loop(z, r, 0.5)
    assert abs(got - want) < 1e-6

    raw_p, raw_q = rng.random((4, 2)) + 0.05, rng.random((4, 2)) + 0.05
    p = raw_p / raw_p.sum(axis=1, keepdims=True)
    q = raw_q / raw_q.sum(axis=1, keepdims=True)
    got = float(bridging.mutual_learning_loss(Tensor(np.log(p)), Tensor(np.log(q))).data)
    want = sum(
        0.5 * (oracles.kl_direct(pi, qi) + oracles.kl_direct(qi, pi))
        for pi, qi in zip(p, q)
    ) / len(p)
    assert abs(got - want) < 1e-6

    store = ParamStore(seed=3)
    bridging.create_attention_params(store, 12, 2, 6)
    params = store.constants()
    x, y = rng.normal(size=12), rng.normal(size=12)
    got = bridging.self_attention(Tensor(x[None, :]), "T", params, 2).data[0]
    want = oracles.attention_enumerated(
        x, x, store.value("attn.T.wq"), store.value("attn.T.wk"),
        store.value("attn.T.wv"), store.value("attn.T.wo"), 6, 2,
    )
    assert np.abs(got - want).max() < 1e-6
    z_tv, z_vt = bridging.co_attention(Tensor(x[None, :]), Tensor(y[None, :]), params, 2)
    want_tv = oracles.attention_enumerated(
        x, y, store.value("attn.T.wq"), store.value("attn.V.wk"),
        store.value("attn.V.wv"), store.value("attn.TV.wo"), 6, 2,
    )
    want_vt = oracles.attention_enumerated(
        y, x, store.value("attn.V.wq"), store.value("attn.T.wk"),
        store.value("attn.T.wv"), store.value("attn.VT.wo"), 6, 2,
    )
    assert np.abs(z_tv.data[0] - want_tv).max() < 1e-6
    assert np.abs(z_vt.data[0] - want_vt).max() < 1e-6

    from ismaf.encoders import create_gat_params, signed_gat_layer
    from test_encoders import SLOPE, _manual_graph

    gstore = ParamStore(seed=4)
    create_gat_params(gstore, 4, 2, 1)
    graph = _manual_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    h = rng.normal(size=(4, 4))
    got = signed_gat_layer(Tensor(h), graph, gstore.constants(), 2, SLOPE).data
    neighbors = [[j for j, i in zip(graph.src, graph.dst) if i == node] for node in range(4)]
    want = oracles.signed_gat_enumerated(
        h, neighbors, gstore.value("gat.l0.w"), gstore.value("gat.l0.a_src"),
        gstore.value("gat.l0.a_dst"), gstore.value("gat.l0.wo"), 2, SLOPE,
    )
    assert np.abs(got - want).max() < 1e-6

    with capsys.disabled():
        print("\nACCEPTANCE 2 PASS: scl/cmca/ml losses, attention, and signed GAT "
              "match brute-force oracles within 1e-6")


def test_criterion_3_analytic_collapses(capsys):
    rng = np.random.default_rng(5)

    # Single-pair cross-modal alignment collapses to zero.
    cmca = bridging.cmca_loss(rng.normal(size=(1, 6)), rng.normal(size=(1, 6)), 0.5)
    assert abs(float(cmca.data)) < 1e-12

    # All-zero weights reduce the total to the classification loss exactly.
    parts = [Tensor(float(v)) for v in rng.uniform(0.1, 3.0, size=5)]
    total = fusion.overall_loss(*parts, lambdas=(0, 0, 0, 0))
    assert float(total.data) == float(parts[0].data)

    # Identical branch distributions give zero mutual-learning loss.
    raw = rng.random((3, 2)) + 0.05
    p = raw / raw.sum(axis=1, keepdims=True)
    log_p = np.log(p)
    assert float(bridging.mutual_learning_loss(Tensor(log_p), Tensor(log_p.copy())).data) == 0.0

    # Perfect reconstruction gives zero adaptive-fusion loss.
    store = ParamStore(seed=6)
    fusion.create_fusion_params(store, d=3)
    z_tv, z_vt, r_g = (rng.normal(size=(1, 3)) for _ in range(3))
    x = np.concatenate([z_tv, z_vt, r_g], axis=1)
    store.assign("fuse.dec_w", np.zeros((3, 9)))
    store.assign("fuse.dec_b", x[0])
    _, l_af = fusion.adaptive_fuse(Tensor(z_tv), Tensor(z_vt), Tensor(r_g), store.constants())
    assert float(l_af.data) == 0.0

    with capsys.disabled():
        print("\nACCEPTANCE 3 PASS: analytic collapses hold (N=1 alignment, zero "
              "lambdas, equal distributions, perfect reconstruction)")


def test_criterion_4_synthetic_convergence(capsys):
    cfg = _synthetic_run_config()

    start = time.time()
    separable = generate_synthetic(n=600, d=32, separation=5.0, seed=42)
    result = train(cfg, separable)
    report = evaluate(result.model, result.model.dataset, "test")
    elapsed = time.time() - start
    assert cfg.epochs <= 50
    assert report.accuracy >= 0.95, f"separable accuracy {report.accuracy:.4f}"
    assert elapsed < 300.0, f"separable run took {elapsed:.1f}s"
    # Loss monotonicity sanity on the separable set.
    assert result.history[9].losses.total < result.history[0].losses.total

    null_data = generate_synthetic(n=600, d=32, separation=0.0, graph_noise=1.0, seed=42)
    null_result = train(cfg, null_data)
    null_report = evaluate(null_result.model, null_result.model.dataset, "test")
    assert 0.40 <= null_report.accuracy <= 0.60, f"null accuracy {null_report.accuracy:.4f}"

    with capsys.disabled():
        print(f"\nACCEPTANCE 4 PASS: separable acc {report.accuracy:.4f} in {elapsed:.0f}s "
              f"({cfg.epochs} epochs), signal-free acc {null_report.accuracy:.4f} in [0.40, 0.60]")


def test_criterion_5_social_ablation_direction(capsys):
    data = generate_synthetic(n=400, d=16, separation=0.0, graph_noise=0.0, seed=13)
    cfg = _synthetic_run_config(epochs=40, seed=9)
    result = train(cfg, data)
    intact = evaluate(result.model, result.model.dataset, "test")
    zeroed = evaluate(result.model, result.model.dataset, "test", zero_social=True)
    gap = intact.accuracy - zeroed.accuracy
    assert gap >= 0.25, (
        f"zeroing the social branch only dropped accuracy by {gap:.4f} "
        f"({intact.accuracy:.4f} -> {zeroed.accuracy:.4f})"
    )
    with capsys.disabled():
        print(f"\nACCEPTANCE 5 PASS: social-only data, intact {intact.accuracy:.4f} vs "
              f"social-zeroed {zeroed.accuracy:.4f} (drop {gap:.4f} >= 0.25)")


def test_criterion_6_split_arithmetic(capsys):
    posts = [
        PostRecord(f"p{i:05d}", [1, 2], np.zeros(2), "u0", 0 if i < 1428 else 1)
        for i in range(2018)
    ]
    split = assign_splits(posts, (0.7, 0.1, 0.2), seed=17)
    sizes = {s: sum(1 for v in split.values() if v == s) for s in ("train", "val", "test")}
    assert sizes == {"train": 1412, "val": 201, "test": 405}
    by_id = {p.id: p.label for p in posts}
    for name, frac in (("train", 0.7), ("val", 0.1), ("test", 0.2)):
        for label, total in ((0, 1428), (1, 590)):
            got = sum(1 for pid, s in split.items() if s == name and by_id[pid] == label)
            assert abs(got - frac * total) <= 1.0
    again = assign_splits(posts, (0.7, 0.1, 0.2), seed=17)
    assert split == again
    with capsys.disabled():
        print("\nACCEPTANCE 6 PASS: 2018 posts split 1412/201/405, stratified within "
              "one sample per label, bitwise reproducible")


def test_criterion_7_full_run_determinism(capsys):
    data = generate_synthetic(n=120, d=10, separation=3.0, graph_noise=0.25, seed=31)
    cfg = TrainConfig(
        d=20, heads=4, batch_size=16, epochs=4, token_len=4, theta=0.6, seed=3,
        kernel_sizes=(2, 3, 4),
    )
    runs = []
    for _ in range(2):
        result = train(cfg, data)
        report = evaluate(result.model, result.model.dataset, "test")
        runs.append((
            [s.losses.as_dict() for s in result.history],
            [s.val_accuracy for s in result.history],
            report,
        ))
    assert runs[0][0] == runs[1][0], "per-epoch loss breakdowns differ"
    assert runs[0][1] == runs[1][1], "validation traces differ"
    assert runs[0][2] == runs[1][2], "metrics reports differ"
    with capsys.disabled():
        print(f"\nACCEPTANCE 7 PASS: two identical runs agree on {len(runs[0][0])} epoch "
              f"breakdowns and final metrics (test acc {runs[0][2].accuracy:.4f})")


def test_criterion_8_sweep_harness(tmp_path, capsys):
    data = generate_synthetic(n=80, d=8, separation=3.0, seed=19)
    data_dir = tmp_path / "data"
    save_dataset(data, data_dir)
    cfg = TrainConfig(d=16, heads=2, batch_size=16, epochs=2, token_len=4,
                      theta=0.6, seed=2, kernel_sizes=(2, 3))
    cfg_path = tmp_path / "config.txt"
    save_config(cfg, cfg_path)

    rc = cli_main([
        "sweep", "--lambda-index", "2", "--range", "0:1:0.5",
        "--config", str(cfg_path), "--data", str(data_dir), "--epochs", "1",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 3, f"expected exactly 3 rows, got {len(rows)}"
    assert [r[0] for r in rows] == ["0", "0.5", "1"]
    for _, acc, f1 in rows:
        assert 0.0 <= float(acc) <= 1.0
        assert 0.0 <= float(f1) <= 1.0
    with capsys.disabled():
        print("\nACCEPTANCE 8 PASS: sweep over lambda2 in {0, 0.5, 1} emitted "
                  "exactly 3 rows with metrics inside [0, 1]")
