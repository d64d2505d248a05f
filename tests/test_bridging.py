import logging
import math

import numpy as np
import pytest

from ismaf import autodiff as ad
from ismaf.autodiff import ParamStore, Tape, Tensor
from ismaf.bridging import (
    cmca_loss,
    co_attention,
    create_attention_params,
    create_fusion_attention_params,
    create_mutual_params,
    intrinsic_rep,
    label_distributions,
    mutual_learning_loss,
    project_common,
    scl_loss,
    self_attention,
)
from ismaf.config import TrainConfig
from ismaf.fusion import fuse_alternate

import oracles


def _rng(seed):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# supervised contrastive loss


class TestSclLoss:
    def test_two_different_labels_skipped_with_warning(self, caplog):
        feats = _rng(0).normal(size=(2, 6))
        with caplog.at_level(logging.WARNING, logger="ismaf.bridging"):
            out = scl_loss(feats, [0, 1], tau=0.5)
        assert float(out.data) == 0.0
        assert any("no anchor has a positive" in rec.message for rec in caplog.records)

    def test_two_identical_samples_same_label_is_zero(self):
        row = _rng(1).normal(size=6)
        out = scl_loss(np.stack([row, row]), [1, 1], tau=0.5)
        assert float(out.data) == pytest.approx(0.0, abs=1e-12)

    def test_against_double_loop_oracle(self):
        feats = _rng(2).normal(size=(4, 9))
        labels = [0, 0, 1, 1]
        out = scl_loss(feats, labels, tau=0.5)
        expected = oracles.scl_double_loop(feats, labels, 0.5)
        assert abs(float(out.data) - expected) < 1e-6

    def test_uneven_labels_against_oracle(self):
        feats = _rng(3).normal(size=(5, 7))
        labels = [0, 1, 1, 1, 0]
        for tau in (0.2, 0.5, 1.0):
            out = scl_loss(feats, labels, tau=tau)
            assert abs(float(out.data) - oracles.scl_double_loop(feats, labels, tau)) < 1e-6

    def test_anchor_without_positive_is_skipped_not_poisoning(self):
        feats = _rng(4).normal(size=(3, 5))
        labels = [0, 0, 1]  # the lone label-1 anchor contributes nothing
        out = scl_loss(feats, labels, tau=0.5)
        assert abs(float(out.data) - oracles.scl_double_loop(feats, labels, 0.5)) < 1e-6

    def test_permutation_invariance(self):
        rng = _rng(5)
        feats = rng.normal(size=(6, 8))
        labels = np.array([0, 1, 0, 1, 1, 0])
        base = float(scl_loss(feats, labels, tau=0.5).data)
        for seed in range(3):
            perm = _rng(seed).permutation(6)
            assert float(scl_loss(feats[perm], labels[perm], tau=0.5).data) == pytest.approx(
                base, abs=1e-9
            )

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            scl_loss(np.ones((1, 4)), [0], tau=0.5)

    def test_grad_check(self):
        store = ParamStore(seed=6)
        store.create("feat", (4, 6))
        labels = [0, 0, 1, 1]
        err = ad.grad_check(lambda p: scl_loss(p["feat"], labels, 0.5), store)
        assert err < 1e-4


# ---------------------------------------------------------------------------
# attention


def _attn_setup(d=12, heads=2, token_len=6, seed=0):
    store = ParamStore(seed=seed)
    create_attention_params(store, d, heads, token_len)
    return store


class TestSelfAttention:
    def test_single_token_collapse_is_linear(self):
        store = _attn_setup(d=6, heads=2, token_len=1, seed=1)
        x = _rng(7).normal(size=(1, 6))
        out = self_attention(Tensor(x), "T", store.constants(), 2)
        expected = x @ store.value("attn.T.wv") @ store.value("attn.T.wo")
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_zero_input_gives_zero_output(self):
        store = _attn_setup(seed=2)
        out = self_attention(Tensor(np.zeros((1, 12))), "V", store.constants(), 2)
        np.testing.assert_allclose(out.data, np.zeros((1, 12)), atol=1e-15)

    def test_six_token_lift_matches_enumeration_oracle(self):
        store = _attn_setup(d=12, heads=2, token_len=6, seed=3)
        x = _rng(8).normal(size=12)
        out = self_attention(Tensor(x[None, :]), "T", store.constants(), 2)
        expected = oracles.attention_enumerated(
            x, x,
            store.value("attn.T.wq"), store.value("attn.T.wk"),
            store.value("attn.T.wv"), store.value("attn.T.wo"),
            6, 2,
        )
        assert np.abs(out.data[0] - expected).max() < 1e-10

    def test_uneven_head_split_projects_up(self):
        # token_dim 5 with 2 heads: internal width rounds up to 6.
        store = _attn_setup(d=10, heads=2, token_len=2, seed=4)
        assert store.value("attn.T.wq").shape == (5, 6)
        x = _rng(9).normal(size=10)
        out = self_attention(Tensor(x[None, :]), "T", store.constants(), 2)
        expected = oracles.attention_enumerated(
            x, x,
            store.value("attn.T.wq"), store.value("attn.T.wk"),
            store.value("attn.T.wv"), store.value("attn.T.wo"),
            2, 2,
        )
        assert np.abs(out.data[0] - expected).max() < 1e-10

    def test_unknown_modality_rejected(self):
        store = _attn_setup()
        with pytest.raises(ValueError, match="modality"):
            self_attention(Tensor(np.zeros((1, 12))), "G", store.constants(), 2)

    def test_grad_check(self):
        store = _attn_setup(d=6, heads=2, token_len=3, seed=5)
        store.create("x", (1, 6))
        probe = Tensor(_rng(10).normal(size=(1, 6)))

        def loss(params):
            out = self_attention(params["x"], "T", params, 2)
            return ad.sum_(ad.mul(out, probe))

        assert ad.grad_check(loss, store) < 1e-4


class TestCoAttention:
    def test_equal_inputs_shared_params_symmetric(self):
        store = _attn_setup(seed=6)
        # Share projections and output maps across modalities.
        for proj in ("wq", "wk", "wv", "wo"):
            store.assign(f"attn.V.{proj}", store.value(f"attn.T.{proj}").copy())
        store.assign("attn.TV.wo", store.value("attn.T.wo").copy())
        store.assign("attn.VT.wo", store.value("attn.T.wo").copy())
        x = Tensor(_rng(11).normal(size=(1, 12)))
        z_tv, z_vt = co_attention(x, x, store.constants(), 2)
        np.testing.assert_allclose(z_tv.data, z_vt.data, atol=1e-12)

    def test_zero_value_side_gives_zero(self):
        store = _attn_setup(seed=7)
        z_t = Tensor(_rng(12).normal(size=(1, 12)))
        z_v = Tensor(np.zeros((1, 12)))
        z_tv, _ = co_attention(z_t, z_v, store.constants(), 2)
        np.testing.assert_allclose(z_tv.data, np.zeros((1, 12)), atol=1e-15)

    def test_against_enumeration_oracle(self):
        store = _attn_setup(seed=8)
        rng = _rng(13)
        z_t, z_v = rng.normal(size=12), rng.normal(size=12)
        z_tv, z_vt = co_attention(Tensor(z_t[None, :]), Tensor(z_v[None, :]), store.constants(), 2)
        exp_tv = oracles.attention_enumerated(
            z_t, z_v,
            store.value("attn.T.wq"), store.value("attn.V.wk"),
            store.value("attn.V.wv"), store.value("attn.TV.wo"),
            6, 2,
        )
        exp_vt = oracles.attention_enumerated(
            z_v, z_t,
            store.value("attn.V.wq"), store.value("attn.T.wk"),
            store.value("attn.T.wv"), store.value("attn.VT.wo"),
            6, 2,
        )
        assert np.abs(z_tv.data[0] - exp_tv).max() < 1e-10
        assert np.abs(z_vt.data[0] - exp_vt).max() < 1e-10


# The paper point (d=300, 6 tokens of 50 entries, 8 heads padding the
# projection up to 56) and the CI point's width with one entry per head.
# Then one token (its softmax is 1), and 8 and 12 tokens: the softmax's row
# max runs as token_len - 1 slice maxima.
_BATCH_CONFIGS = {
    "d32": TrainConfig(d=32, heads=8, token_len=4),
    "d300": TrainConfig(d=300, heads=8, token_len=6),
    "L1": TrainConfig(d=16, heads=2, token_len=1),
    "L8": TrainConfig(d=40, heads=2, token_len=8),
    "L12": TrainConfig(d=36, heads=2, token_len=12),
}


def _self_pair(p, x, y, heads):
    return self_attention(x, "T", p, heads), self_attention(y, "V", p, heads)


def _self_then_co(p, x, y, heads):
    return co_attention(*_self_pair(p, x, y, heads), p, heads)


# case -> (batched path, plain per-post path); each maps (params, x, y,
# heads) to a tuple of [N, d] outputs.
_ATTENTION_PATHS = {
    "self": (_self_pair, lambda p, x, y, heads: oracles.attention_per_post(p, x, y, heads)[:2]),
    "co": (_self_then_co, lambda p, x, y, heads: oracles.attention_per_post(p, x, y, heads)[2:]),
    "is-att": (
        lambda p, x, y, heads: (fuse_alternate("is-att", x, y, p, heads),),
        lambda p, x, y, heads: (oracles.is_att_per_post(x, y, p, heads),),
    ),
}


def _oracle_paths(attend_fn):
    """case -> the same outputs with every attention through ``attend_fn``."""
    return {
        "self": lambda p, x, y, heads: oracles.attention_with(attend_fn, p, x, y, heads)[:2],
        "co": lambda p, x, y, heads: oracles.attention_with(attend_fn, p, x, y, heads)[2:],
        "is-att": lambda p, x, y, heads: (oracles.is_att_with(attend_fn, x, y, p, heads),),
    }


# oracles.attend_masked is the [L*H, L*H] masked softmax that the per-head
# batch replaced; oracles.attend_chain the chain of tape ops that
# ad.token_attention replaced.
_MASKED_PATHS = _oracle_paths(oracles.attend_masked)
_CHAIN_PATHS = _oracle_paths(oracles.attend_chain)


def _enumerated(store, case, x, y, cfg):
    """Expected outputs for one post from the per-head loop oracle."""

    def att(q, kv, wq, wk, wv, wo):
        w = [store.value(f"attn.{name}") for name in (wq, wk, wv, wo)]
        return oracles.attention_enumerated(q, kv, *w, cfg.token_len, cfg.heads)

    if case == "is-att":
        return (att(x, y, "F.wq", "F.wk", "F.wv", "F.wo"),)
    z_t = att(x, x, "T.wq", "T.wk", "T.wv", "T.wo")
    z_v = att(y, y, "V.wq", "V.wk", "V.wv", "V.wo")
    if case == "self":
        return z_t, z_v
    return (
        att(z_t, z_v, "T.wq", "V.wk", "V.wv", "TV.wo"),
        att(z_v, z_t, "V.wq", "T.wk", "T.wv", "VT.wo"),
    )


def _batch(n, d, seed):
    rng = _rng(seed)
    if n == "repeated":
        return np.stack([rng.normal(size=d)] * 2)
    return rng.normal(size=(n, d))


def _attention_store(cfg):
    store = ParamStore(seed=40)
    create_attention_params(store, cfg.d, cfg.heads, cfg.token_len)
    create_fusion_attention_params(store, cfg.d, cfg.heads, cfg.token_len)
    return store


def _outputs_and_grads(store, path, x, y, heads):
    """Outputs of ``path`` and the gradients of a fixed random contraction
    of them with respect to every parameter and both inputs.  The inputs
    also feed a later term of the loss, as r_t feeds SCL in the model, so
    their gradients are already partly summed when attention's arrive."""
    tape = Tape()
    params = store.watch(tape)
    tx, ty = tape.watch(x), tape.watch(y)
    outs = path(params, tx, ty, heads)
    probe = _rng(43)
    loss = ad.sum_(ad.concat(
        [ad.mul(o, Tensor(probe.normal(size=o.shape))) for o in outs + (tx, ty)], axis=1
    ))
    tape.backward(loss)
    grads = {name: tape.grad(t) for name, t in params.items()}
    grads["x"], grads["y"] = tape.grad(tx), tape.grad(ty)
    return [o.data for o in outs], grads


@pytest.mark.parametrize("n", [1, 2, 64, "repeated"])
@pytest.mark.parametrize("shape", sorted(_BATCH_CONFIGS))
@pytest.mark.parametrize("case", sorted(_ATTENTION_PATHS))
class TestBatchedAttention:
    """One attention call over a batch of rows against the per-post loop it
    replaced, and each row against the per-head enumeration oracle."""

    @staticmethod
    def _assert_match(case, shape, n, plain, bitwise=False):
        cfg = _BATCH_CONFIGS[shape]
        store = _attention_store(cfg)
        x, y = _batch(n, cfg.d, 41), _batch(n, cfg.d, 42)
        batched, _ = _ATTENTION_PATHS[case]
        outs, grads = _outputs_and_grads(store, batched, x, y, cfg.heads)
        want_outs, want_grads = _outputs_and_grads(store, plain, x, y, cfg.heads)

        def same(got, want, name=""):
            if bitwise:
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
            else:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)

        for out, want in zip(outs, want_outs, strict=True):
            assert out.shape == x.shape
            same(out, want)
        assert grads.keys() == want_grads.keys()
        for name, g in grads.items():
            same(g, want_grads[name], name)

    def test_rows_and_gradients_match_per_post_loop(self, case, shape, n):
        self._assert_match(case, shape, n, _ATTENTION_PATHS[case][1])

    def test_rows_and_gradients_match_masked_attend(self, case, shape, n):
        self._assert_match(case, shape, n, _MASKED_PATHS[case])

    def test_rows_and_gradients_equal_the_chain_bitwise(self, case, shape, n):
        self._assert_match(case, shape, n, _CHAIN_PATHS[case], bitwise=True)

    def test_rows_match_enumeration_oracle(self, case, shape, n):
        cfg = _BATCH_CONFIGS[shape]
        store = _attention_store(cfg)
        x, y = _batch(n, cfg.d, 41), _batch(n, cfg.d, 42)
        batched, _ = _ATTENTION_PATHS[case]
        outs = batched(store.constants(), Tensor(x), Tensor(y), cfg.heads)
        for i in range(x.shape[0]):
            expected = _enumerated(store, case, x[i], y[i], cfg)
            for out, want in zip(outs, expected, strict=True):
                assert np.abs(out.data[i] - want).max() < 1e-6


def _extreme_batch(d, token_len, seed):
    """Rows whose scores tie (row 0's key tokens are one token), are zeros
    of both signs (row 1's queries are -0.0; row 2's query and key
    products underflow), or are near 1e160 (row 3), then a plain row."""
    x, y = _batch(5, d, seed), _batch(5, d, seed + 1)
    y[0] = np.tile(y[0, : d // token_len], token_len)
    x[1] = -0.0
    x[2], y[2] = -1e-170, np.abs(y[2]) * 1e-170
    x[3] *= 1e80
    y[3] *= 1e80
    return x, y


@pytest.mark.parametrize("shape", sorted(_BATCH_CONFIGS))
def test_extreme_scores_equal_the_chain_bitwise(shape):
    # The op's row max is slice maxima and the chain's a max reduction; a
    # zero max's sign may differ, which exp(scores - max) cannot show.
    cfg = _BATCH_CONFIGS[shape]
    x, y = _extreme_batch(cfg.d, cfg.token_len, 48)

    def path(attend_fn):
        names = ("T.wq", "V.wk", "V.wv", "TV.wo")
        return lambda p, tx, ty, heads: (attend_fn(tx, ty, *(p[f"attn.{n}"] for n in names), heads),)

    store = _attention_store(cfg)
    (out,), grads = _outputs_and_grads(store, path(ad.token_attention), x, y, cfg.heads)
    (want,), want_grads = _outputs_and_grads(store, path(oracles.attend_chain), x, y, cfg.heads)
    assert np.isfinite(out).all()
    assert out.tobytes() == want.tobytes()
    assert grads.keys() == want_grads.keys()
    for name, g in grads.items():
        assert g.tobytes() == want_grads[name].tobytes(), name


# One token's softmax is 1 whatever its key, so L1 has nothing to show here.
@pytest.mark.parametrize("shape", sorted(s for s, c in _BATCH_CONFIGS.items() if c.token_len > 1))
def test_attention_softmax_runs_over_one_heads_tokens(shape):
    # Row 0 of wv is zero, so adding a to entry 0 of every token of a row
    # moves each of its keys by a * wk[0] and leaves its values alone: each
    # query's scores over the row's tokens move by one constant per head.
    # A softmax over one head's tokens cancels that; one across heads, rows
    # or queries would not, and moving one token's key changes the output.
    cfg = _BATCH_CONFIGS[shape]
    wq, wk, wv, wo = (
        _attention_store(cfg).value(f"attn.T.{proj}") for proj in ("wq", "wk", "wv", "wo")
    )
    wv = wv.copy()
    wv[0] = 0.0
    x, y = _batch(5, cfg.d, 44), _batch(5, cfg.d, 45)

    def attend_shifted(shift):  # [5, token_len], added to entry 0 of y's tokens
        tokens = y.reshape(5, cfg.token_len, -1).copy()
        tokens[:, :, 0] += shift
        kv = Tensor(tokens.reshape(y.shape))
        return ad.token_attention(Tensor(x), kv, wq, wk, wv, wo, cfg.heads).data

    base = attend_shifted(np.zeros((5, cfg.token_len)))
    per_row = np.repeat(_rng(47).normal(size=(5, 1)) * 3, cfg.token_len, axis=1)
    np.testing.assert_allclose(attend_shifted(per_row), base, rtol=0, atol=1e-10)
    one_token = np.zeros_like(per_row)
    one_token[:, 0] = per_row[:, 0]
    assert np.abs(attend_shifted(one_token) - base).max() > 1e-3


def test_attention_rejects_mismatched_batches():
    store = _attn_setup()
    with pytest.raises(ad.ShapeError, match=r"\(3, 12\).*\(2, 12\)"):
        co_attention(Tensor(np.zeros((3, 12))), Tensor(np.zeros((2, 12))), store.constants(), 2)


@pytest.mark.parametrize("path", ["self", "co", "is-att"])
def test_attention_rejects_a_single_vector(path):
    store = _attention_store(TrainConfig(d=12, heads=2, token_len=6))
    x = Tensor(np.zeros(12))
    call = {
        "self": lambda p: self_attention(x, "T", p, 2),
        "co": lambda p: co_attention(x, x, p, 2),
        "is-att": lambda p: fuse_alternate("is-att", x, x, p, 2),
    }[path]
    with pytest.raises(ad.ShapeError, match=r"\[N, 12\] batches, got \(12,\)"):
        call(store.constants())


def test_attend_tape_records(monkeypatch):
    # The whole attention is one token_attention record: its vjp writes out
    # the backward of the 22-record chain (oracles.attend_chain).
    cfg = TrainConfig(d=12, heads=2, token_len=6)
    tape = Tape()
    params = _attention_store(cfg).watch(tape)
    x = tape.watch(_batch(5, cfg.d, 46))
    emitted = []
    emit = ad.Tape.emit

    def counting_emit(tape, *args):
        emitted.append(1)
        return emit(tape, *args)

    monkeypatch.setattr(ad.Tape, "emit", counting_emit)
    out = self_attention(x, "T", params, cfg.heads)
    assert out.shape == (5, cfg.d)
    assert len(emitted) == 1


class TestIntrinsicRep:
    def test_equal_vectors_pass_through(self):
        v = _rng(14).normal(size=5)
        np.testing.assert_array_equal(intrinsic_rep(Tensor(v), Tensor(v)).data, v)

    def test_opposite_vectors_cancel(self):
        v = _rng(15).normal(size=5)
        np.testing.assert_allclose(
            intrinsic_rep(Tensor(v), Tensor(-v)).data, np.zeros(5), atol=1e-15
        )

    def test_elementwise_average(self):
        out = intrinsic_rep(Tensor([1.0, 3.0]), Tensor([3.0, 1.0]))
        np.testing.assert_array_equal(out.data, [2.0, 2.0])


# ---------------------------------------------------------------------------
# cross-modal consistency alignment


class TestCmcaLoss:
    def test_single_pair_collapses_to_zero(self):
        rng = _rng(16)
        out = cmca_loss(rng.normal(size=(1, 5)), rng.normal(size=(1, 5)), tau=0.5)
        assert abs(float(out.data)) < 1e-12

    def test_two_orthogonal_pairs_frozen_value(self):
        # All four vectors mutually orthogonal: every similarity is 0, so at
        # tau=1 each anchor sees numerator exp(0)=1 against denominator
        # 1 (same-side) + 2 (cross-side) = 3; the loss is log(3).
        z = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        r = np.array([[0, 0, 1.0, 0], [0, 0, 0, 1.0]])
        out = cmca_loss(z, r, tau=1.0)
        assert float(out.data) == pytest.approx(math.log(3.0), abs=1e-9)
        assert float(out.data) == pytest.approx(oracles.cmca_double_loop(z, r, 1.0), abs=1e-9)

    def test_against_double_loop_oracle(self):
        rng = _rng(17)
        z, r = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
        for tau in (0.3, 0.5, 1.0):
            out = cmca_loss(z, r, tau=tau)
            assert abs(float(out.data) - oracles.cmca_double_loop(z, r, tau)) < 1e-6

    def test_permutation_invariance(self):
        rng = _rng(18)
        z, r = rng.normal(size=(5, 6)), rng.normal(size=(5, 6))
        base = float(cmca_loss(z, r, tau=0.5).data)
        for seed in range(3):
            perm = _rng(seed).permutation(5)
            assert float(cmca_loss(z[perm], r[perm], tau=0.5).data) == pytest.approx(
                base, abs=1e-9
            )

    def test_decreases_as_matched_similarity_grows(self):
        # Rotate r_1 toward z_1 inside a plane orthogonal to everything else:
        # only sim(z_1, r_1) moves, every other pairwise similarity is fixed.
        z = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        losses = []
        for angle in (0.0, 0.3, 0.6):
            r = np.array(
                [[math.sin(angle), 0, math.cos(angle), 0], [0, 0, 0, 1.0]]
            )
            losses.append(float(cmca_loss(z, r, tau=0.5).data))
        assert losses[0] > losses[1] > losses[2]

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            cmca_loss(np.zeros((0, 4)), np.zeros((0, 4)), tau=0.5)

    def test_grad_check(self):
        store = ParamStore(seed=19)
        store.create("z", (3, 5))
        store.create("r", (3, 5))
        err = ad.grad_check(lambda p: cmca_loss(p["z"], p["r"], 0.5), store)
        assert err < 1e-4

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_is_scl_over_the_stacked_pairs(self, n):
        # Each row of [z; r] has its partner as its only positive, so the
        # contrastive denominator over the other 2N - 1 rows is CMCA's.
        rng = _rng(20 + n)
        z, r = rng.normal(size=(n, 6)), rng.normal(size=(n, 6))
        for tau in (0.3, 1.0):
            scl = oracles.scl_double_loop(np.vstack([z, r]), np.tile(np.arange(n), 2), tau)
            assert scl == pytest.approx(oracles.cmca_double_loop(z, r, tau), rel=1e-12, abs=1e-12)

    def test_tape_records(self, monkeypatch):
        # The stacking concat, then the contrastive loss's row normalize,
        # transpose, matmul, scale, shift, exp, mask, sum, log, reshape,
        # sub, weight, sum and scale.
        rng = _rng(21)
        tape = Tape()
        z, r = tape.watch(rng.normal(size=(5, 6))), tape.watch(rng.normal(size=(5, 6)))
        emitted = []
        emit = ad.Tape.emit

        def counting_emit(tape, *args):
            emitted.append(1)
            return emit(tape, *args)

        monkeypatch.setattr(ad.Tape, "emit", counting_emit)
        cmca_loss(z, r, tau=0.5)
        assert len(emitted) == 15


# A row's diagonal similarity is 1/tau, up to 2/tau above its off-diagonal
# max; at tau = 1e-3 its exp overflows, and an overflow masked by a 0 is a
# NaN loss and NaN gradients.
@pytest.mark.parametrize("loss", [
    lambda x: scl_loss(x, np.array([0, 1, 0, 1, 0, 1]), 1e-3),
    lambda x: cmca_loss(ad.gather_rows(x, [0, 1, 2]), ad.gather_rows(x, [3, 4, 5]), 1e-3),
], ids=["scl", "cmca"])
def test_contrastive_finite_at_small_temperature(loss):
    tape = Tape()
    x = tape.watch(_rng(22).normal(size=(6, 32)))
    out = loss(x)
    tape.backward(out)
    assert np.isfinite(out.data)
    assert np.isfinite(tape.grad(x)).all()


# ---------------------------------------------------------------------------
# mutual learning


class TestProjectionAndDistributions:
    def test_zero_weights_give_zero_then_uniform(self):
        store = ParamStore(seed=20)
        create_mutual_params(store, d=4)
        for name in store.names():
            store.assign(name, np.zeros_like(store.value(name)))
        z = Tensor(_rng(21).normal(size=(3, 4)))
        e_z, e_g = project_common(z, z, store.constants())
        np.testing.assert_array_equal(e_z.data, np.zeros((3, 4)))
        log_p_z, log_p_g = label_distributions(e_z, e_g, store.constants())
        np.testing.assert_allclose(np.exp(log_p_z.data), 0.5)
        np.testing.assert_allclose(np.exp(log_p_g.data), 0.5)

    def test_identity_projection_on_nonnegative_input(self):
        store = ParamStore(seed=22)
        create_mutual_params(store, d=3)
        store.assign("ml.z.proj_w", np.eye(3))
        store.assign("ml.z.proj_b", np.zeros(3))
        x = np.abs(_rng(23).normal(size=(2, 3)))
        e_z, _ = project_common(Tensor(x), Tensor(x), store.constants())
        np.testing.assert_allclose(e_z.data, x)

    def test_closed_form_logit_softmax(self):
        store = ParamStore(seed=24)
        create_mutual_params(store, d=2)
        store.assign("ml.z.proj_w", np.eye(2))
        store.assign("ml.z.fc_w", np.eye(2))
        e_z, _ = project_common(Tensor([[math.log(3.0), 0.0]]), Tensor([[0.0, 0.0]]), store.constants())
        log_p_z, _ = label_distributions(e_z, e_z, store.constants())
        np.testing.assert_allclose(log_p_z.data[0], np.log([0.75, 0.25]), atol=1e-12)

    def test_distributions_sum_to_one(self):
        store = ParamStore(seed=25)
        create_mutual_params(store, d=5)
        z = Tensor(_rng(26).normal(size=(4, 5)))
        g = Tensor(_rng(27).normal(size=(4, 5)))
        log_p_z, log_p_g = label_distributions(*project_common(z, g, store.constants()), store.constants())
        np.testing.assert_allclose(np.exp(log_p_z.data).sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(np.exp(log_p_g.data).sum(axis=1), 1.0, atol=1e-9)
        assert (log_p_z.data <= 0).all() and (log_p_g.data <= 0).all()

    def test_random_against_softmax_oracle(self):
        store = ParamStore(seed=28)
        create_mutual_params(store, d=4)
        z = _rng(29).normal(size=(3, 4))
        g = _rng(30).normal(size=(3, 4))
        e_z, e_g = project_common(Tensor(z), Tensor(g), store.constants())
        log_p_z, _ = label_distributions(e_z, e_g, store.constants())
        exp_ez = np.maximum(z @ store.value("ml.z.proj_w") + store.value("ml.z.proj_b"), 0)
        exp_pz = oracles.softmax_direct(exp_ez @ store.value("ml.z.fc_w") + store.value("ml.z.fc_b"))
        assert np.abs(log_p_z.data - np.log(exp_pz)).max() < 1e-12


def _normalized(raw):
    return raw / raw.sum(axis=-1, keepdims=True)


def _ml(p, q):
    """Mutual-learning loss of two probability batches, fed as logs."""
    return float(mutual_learning_loss(Tensor(np.log(p)), Tensor(np.log(q))).data)


class TestMutualLearningLoss:
    def test_equal_distributions_give_zero(self):
        p = np.array([[0.4, 0.6], [0.9, 0.1]])
        assert _ml(p, p.copy()) == 0.0

    def test_mirrored_pair_is_half_log3(self):
        # (0.5)(log 3) + (-0.5)(-log 3), halved.
        p, q = np.array([[0.75, 0.25]]), np.array([[0.25, 0.75]])
        assert _ml(p, q) == pytest.approx(0.5 * math.log(3.0), abs=1e-9)

    def test_symmetric_in_arguments(self):
        rng = _rng(33)
        p = _normalized(rng.random((3, 2)) + 0.05)
        q = _normalized(rng.random((3, 2)) + 0.05)
        assert _ml(p, q) == pytest.approx(_ml(q, p), abs=1e-15)

    def test_closed_form_single_pair(self):
        p, q = np.array([[0.9, 0.1]]), np.array([[0.5, 0.5]])
        expected = 0.5 * (oracles.kl_direct(p[0], q[0]) + oracles.kl_direct(q[0], p[0]))
        assert _ml(p, q) == pytest.approx(expected, abs=1e-10)

    def test_random_four_class_row_against_direct_sum(self):
        rng = _rng(31)
        p, q = _normalized(rng.random((1, 4)) + 0.1), _normalized(rng.random((1, 4)) + 0.1)
        expected = 0.5 * (oracles.kl_direct(p[0], q[0]) + oracles.kl_direct(q[0], p[0]))
        assert abs(_ml(p, q) - expected) < 1e-10

    def test_non_negative_over_three_classes(self):
        rng = _rng(32)
        for _ in range(10):
            p, q = _normalized(rng.random((1, 3)) + 0.01), _normalized(rng.random((1, 3)) + 0.01)
            assert _ml(p, q) >= 0.0

    def test_non_negative_and_zero_only_at_equality(self):
        rng = _rng(34)
        for _ in range(10):
            p = _normalized(rng.random((2, 2)) + 0.05)
            q = _normalized(rng.random((2, 2)) + 0.05)
            val = _ml(p, q)
            assert val >= 0.0
            if np.abs(p - q).max() > 1e-6:
                assert val > 0.0

    @pytest.mark.parametrize("shape_z, shape_g", [((2,), (2,)), ((3, 2), (2,)), ((3, 2), (3, 3))])
    def test_anything_but_matching_batches_rejected(self, shape_z, shape_g):
        with pytest.raises(ad.ShapeError, match=r"matching \[N, k\] distributions"):
            mutual_learning_loss(
                Tensor(np.full(shape_z, math.log(0.5))), Tensor(np.full(shape_g, math.log(0.5)))
            )

    def test_grad_check_through_full_branch(self):
        store = ParamStore(seed=35)
        create_mutual_params(store, d=3)
        store.create("z", (2, 3))
        store.create("g", (2, 3))

        def loss(params):
            e_z, e_g = project_common(params["z"], params["g"], params)
            log_p_z, log_p_g = label_distributions(e_z, e_g, params)
            return mutual_learning_loss(log_p_z, log_p_g)

        assert ad.grad_check(loss, store) < 1e-4

    def test_branch_probability_below_1e12_keeps_teaching(self):
        # Branch z's logits favour class 1 by 30, so p_z[0] = e^-30/(1 + e^-30)
        # sits below the 1e-12 that a clamped log would floor; branch g is
        # uniform.  Per row, d/dx_j = 0.5 (p_j - q_j + p_j (log p_j - log q_j
        # - KL(p || q))) for p = softmax(x).
        store = ParamStore(seed=36)
        create_mutual_params(store, d=2)
        for name in ("ml.z.fc_w", "ml.g.fc_w", "ml.g.fc_b"):
            store.assign(name, np.zeros_like(store.value(name)))
        store.assign("ml.z.fc_b", np.array([0.0, 30.0]))
        tape = Tape()
        params = store.watch(tape)
        e = Tensor(np.ones((1, 2)))
        loss = mutual_learning_loss(*label_distributions(e, e, params))
        tape.backward(loss)
        p = oracles.softmax_direct(np.array([0.0, 30.0]))
        log_ratio = np.log(p) - np.log(0.5)
        want = 0.5 * (p - 0.5 + p * (log_ratio - (p * log_ratio).sum()))
        assert p[0] < 1e-12
        np.testing.assert_allclose(tape.grad(params["ml.z.fc_b"]), want, rtol=1e-9)

    def test_matches_the_clamped_log_oracle(self):
        # Away from the clamp the two agree in value and gradient.
        rng = _rng(37)
        logits = rng.normal(size=(5, 2)) * 4, rng.normal(size=(5, 2)) * 4
        results = []
        for fn in (
            lambda x, y: mutual_learning_loss(ad.log_softmax_rows(x), ad.log_softmax_rows(y)),
            lambda x, y: oracles.ml_clamped(oracles.softmax_rows(x), oracles.softmax_rows(y)),
        ):
            tape = Tape()
            x, y = (tape.watch(v) for v in logits)
            loss = fn(x, y)
            tape.backward(loss)
            results.append((float(loss.data), np.concatenate([tape.grad(x), tape.grad(y)])))
        (value, grad), (want_value, want_grad) = results
        assert abs(value - want_value) <= 1e-12 * abs(want_value)
        assert np.abs(grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()


def test_contrastive_config_validation():
    with pytest.raises(ValueError, match="tau_scl must be > 0"):
        TrainConfig(tau_scl=0.0)
