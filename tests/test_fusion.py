import math

import numpy as np
import pytest

from ismaf import autodiff as ad
from ismaf.autodiff import ParamStore, Tape, Tensor
from ismaf.bridging import create_attention_params, create_fusion_attention_params, self_attention
from ismaf.config import TrainConfig
from ismaf.data import generate_synthetic
from ismaf.fusion import (
    adaptive_fuse,
    ce_loss,
    classify,
    create_classifier_params,
    create_concat_fusion_params,
    create_fusion_params,
    fuse_alternate,
    overall_loss,
    predict_labels,
)
from ismaf.model import IsmafModel

import oracles


def _rng(seed):
    return np.random.default_rng(seed)


def _summed_in_order(ce, scl, cmca, ml, af, lambdas):
    """ce + l1*scl + l2*cmca + l3*ml + l4*af, added left to right as
    ``overall_loss`` adds its terms."""
    l1, l2, l3, l4 = lambdas
    return (((ce + scl * l1) + cmca * l2) + ml * l3) + af * l4


def _fusion_store(d=4, seed=0):
    store = ParamStore(seed=seed)
    create_fusion_params(store, d)
    create_classifier_params(store, d)
    return store


class TestAdaptiveFuse:
    def test_perfect_reconstruction_gives_zero_loss(self):
        d = 3
        store = _fusion_store(d=d, seed=1)
        rng = _rng(2)
        z_tv, z_vt, r_g = (rng.normal(size=(1, d)) for _ in range(3))
        x = np.concatenate([z_tv, z_vt, r_g], axis=1)
        # Zero decoder weights with bias equal to x reproduce x exactly.
        store.assign("fuse.dec_w", np.zeros((d, 3 * d)))
        store.assign("fuse.dec_b", x[0])
        _, loss = adaptive_fuse(Tensor(z_tv), Tensor(z_vt), Tensor(r_g), store.constants())
        assert float(loss.data) == 0.0

    def test_zero_decoder_loss_is_squared_norm(self):
        d = 3
        store = _fusion_store(d=d, seed=3)
        store.assign("fuse.dec_w", np.zeros((d, 3 * d)))
        store.assign("fuse.dec_b", np.zeros(3 * d))
        rng = _rng(4)
        z_tv, z_vt, r_g = (rng.normal(size=(1, d)) for _ in range(3))
        x = np.concatenate([z_tv, z_vt, r_g], axis=1)
        _, loss = adaptive_fuse(Tensor(z_tv), Tensor(z_vt), Tensor(r_g), store.constants())
        assert float(loss.data) == pytest.approx(float((x * x).sum()), abs=1e-12)

    def test_against_direct_formula_oracle(self):
        d, n = 3, 4
        store = _fusion_store(d=d, seed=5)
        rng = _rng(6)
        z_tv, z_vt, r_g = (rng.normal(size=(n, d)) for _ in range(3))
        x_fuse, loss = adaptive_fuse(Tensor(z_tv), Tensor(z_vt), Tensor(r_g), store.constants())
        x = np.concatenate([z_tv, z_vt, r_g], axis=1)
        fuse_exp = np.tanh(x @ store.value("fuse.enc_w") + store.value("fuse.enc_b"))
        x_hat = fuse_exp @ store.value("fuse.dec_w") + store.value("fuse.dec_b")
        loss_exp = float(((x_hat - x) ** 2).sum()) / n
        assert np.abs(x_fuse.data - fuse_exp).max() < 1e-10
        assert float(loss.data) == pytest.approx(loss_exp, abs=1e-10)

    def test_loss_non_negative(self):
        d = 3
        store = _fusion_store(d=d, seed=7)
        rng = _rng(8)
        for _ in range(5):
            args = (Tensor(rng.normal(size=(2, d))) for _ in range(3))
            _, loss = adaptive_fuse(*args, store.constants())
            assert float(loss.data) >= 0.0

    def test_bottleneck_feeds_classifier_shape(self):
        d = 5
        store = _fusion_store(d=d, seed=9)
        rng = _rng(10)
        x_fuse, _ = adaptive_fuse(
            Tensor(rng.normal(size=(3, d))), Tensor(rng.normal(size=(3, d))),
            Tensor(rng.normal(size=(3, d))), store.constants(),
        )
        assert x_fuse.shape == (3, d)

    def test_dimension_mismatch_rejected(self):
        store = _fusion_store(d=3, seed=11)
        with pytest.raises(ad.ShapeError):
            adaptive_fuse(
                Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))),
                Tensor(np.zeros((2, 3))), store.constants(),
            )

    def test_grad_check(self):
        d = 3
        store = _fusion_store(d=d, seed=12)
        store.create("z_tv", (2, d))
        store.create("z_vt", (2, d))
        store.create("r_g", (2, d))

        def loss(params):
            _, l_af = adaptive_fuse(params["z_tv"], params["z_vt"], params["r_g"], params)
            return l_af

        assert ad.grad_check(loss, store) < 1e-4


class TestClassify:
    def test_zero_logits_give_half(self):
        store = _fusion_store(d=4, seed=13)
        store.assign("clf.w", np.zeros((4, 2)))
        log_probs = classify(Tensor(_rng(14).normal(size=(3, 4))), store.constants())
        np.testing.assert_allclose(np.exp(log_probs.data), 0.5)

    def test_logit_gap_closed_form(self):
        store = _fusion_store(d=2, seed=15)
        store.assign("clf.w", np.eye(2))
        log_probs = classify(Tensor([[0.0, math.log(9.0)]]), store.constants())
        assert log_probs.data[0, 1] == pytest.approx(math.log(0.9), abs=1e-12)

    def test_against_softmax_oracle(self):
        store = _fusion_store(d=4, seed=16)
        x = _rng(17).normal(size=(5, 4))
        log_probs = classify(Tensor(x), store.constants())
        expected = oracles.softmax_direct(x @ store.value("clf.w") + store.value("clf.b"))
        assert np.abs(log_probs.data - np.log(expected)).max() < 1e-12

    def test_valid_distribution(self):
        store = _fusion_store(d=4, seed=18)
        log_probs = classify(Tensor(_rng(19).normal(size=(6, 4)) * 10), store.constants())
        np.testing.assert_allclose(np.exp(log_probs.data).sum(axis=1), 1.0, atol=1e-9)
        assert (log_probs.data <= 0).all()

    def test_prediction_argmax_with_tie_to_zero(self):
        probs = np.array([[0.5, 0.5], [0.4, 0.6], [0.7, 0.3]])
        np.testing.assert_array_equal(predict_labels(probs), [0, 1, 0])

    def test_prediction_invariant_to_logit_shift(self):
        store = _fusion_store(d=2, seed=20)
        store.assign("clf.w", np.eye(2))
        logits = _rng(21).normal(size=(4, 2))
        base = predict_labels(np.exp(classify(Tensor(logits), store.constants()).data))
        shifted = predict_labels(np.exp(classify(Tensor(logits + 3.7), store.constants()).data))
        np.testing.assert_array_equal(base, shifted)


def _log_probs(y_hat):
    """Two-class log-probability rows whose column 1 is the log of the rumor
    probability ``y_hat``."""
    y_hat = np.asarray(y_hat, dtype=float)
    return Tensor(np.log(np.stack([1.0 - y_hat, y_hat], axis=1)))


class TestCeLoss:
    def test_confident_correct_is_zero(self):
        # A gap of 1000: the non-rumor column reads -1000, not log(0).
        assert float(ce_loss(Tensor([[-1000.0, 0.0]]), [1]).data) == pytest.approx(0.0, abs=1e-9)

    def test_half_probability_is_log2(self):
        for label in (0, 1):
            assert float(ce_loss(_log_probs([0.5]), [label]).data) == pytest.approx(
                math.log(2.0), abs=1e-12
            )

    def test_batch_against_scalar_loop(self):
        rng = _rng(22)
        y_hat = rng.uniform(0.05, 0.95, size=4)
        labels = [0, 1, 1, 0]
        expected = -sum(
            y * math.log(p) + (1 - y) * math.log(1 - p) for p, y in zip(y_hat, labels)
        ) / 4
        assert float(ce_loss(_log_probs(y_hat), labels).data) == pytest.approx(expected, abs=1e-10)

    def test_non_negative(self):
        rng = _rng(23)
        y_hat = rng.uniform(0.01, 0.99, size=6)
        labels = rng.integers(0, 2, size=6)
        assert float(ce_loss(_log_probs(y_hat), labels).data) >= 0.0

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            ce_loss(_log_probs([0.5]), [2])

    @pytest.mark.parametrize("shape", [(4,), (4, 1), (4, 3), (3, 2), (2, 4, 2)])
    def test_anything_but_one_two_class_row_per_label_rejected(self, shape):
        with pytest.raises(ad.ShapeError, match=r"\[4, 2\] output for 4 labels"):
            ce_loss(Tensor(np.full(shape, math.log(0.5))), [0, 1, 1, 0])

    def test_reads_only_the_label_column(self):
        y_hat = _rng(25).uniform(0.05, 0.95, size=4)
        labels = np.array([0, 1, 1, 0])
        log_probs = _log_probs(y_hat)
        want = float(ce_loss(log_probs, labels).data)
        other = log_probs.data.copy()
        other[np.arange(4), 1 - labels] = 7.0
        assert float(ce_loss(Tensor(other), labels).data) == want

    def test_grad_check(self):
        store = ParamStore(seed=24)
        store.create("logits", (4, 2))
        labels = [0, 1, 1, 0]

        def loss(params):
            return ce_loss(ad.log_softmax_rows(params["logits"]), labels)

        assert ad.grad_check(loss, store) < 1e-4

    def test_confidently_wrong_rumor_keeps_teaching(self):
        # Logits favour non-rumor by 30; the probability of the label is
        # e^-30 / (1 + e^-30), below the 1e-12 that a clamped log would floor.
        store = _fusion_store(d=2, seed=26)
        store.assign("clf.w", np.eye(2))
        tape = Tape()
        x = tape.watch(np.array([[30.0, 0.0]]))
        loss = ce_loss(classify(x, store.constants()), [1])
        tape.backward(loss)
        assert float(loss.data) == pytest.approx(30.0 + math.log1p(math.exp(-30.0)), rel=1e-15)
        np.testing.assert_allclose(tape.grad(x), [[1.0, -1.0]], rtol=1e-12)

    def test_matches_the_clamped_log_oracle(self):
        # Away from the clamp the two agree in value and gradient.
        labels = [0, 1, 1, 0, 1]
        logits = _rng(27).normal(size=(5, 2)) * 4
        results = []
        for fn in (
            lambda x: ce_loss(ad.log_softmax_rows(x), labels),
            lambda x: oracles.ce_clamped(oracles.softmax_rows(x), labels),
        ):
            tape = Tape()
            x = tape.watch(logits)
            loss = fn(x)
            tape.backward(loss)
            results.append((float(loss.data), tape.grad(x)))
        (value, grad), (want_value, want_grad) = results
        assert abs(value - want_value) <= 1e-12 * abs(want_value)
        assert np.abs(grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()


class TestOverallLoss:
    def test_zero_lambdas_reduce_to_ce_exactly(self):
        parts = [Tensor(float(x)) for x in (0.731, 1.2, 3.4, 0.9, 2.2)]
        total = overall_loss(*parts, lambdas=(0, 0, 0, 0))
        assert float(total.data) == float(parts[0].data)

    def test_unit_parts_reference_weights(self):
        # All components at 1 with weights (0.3, 0.7, 0.4, 0.4) total 2.8.
        ones = [Tensor(1.0) for _ in range(5)]
        total = overall_loss(*ones, lambdas=(0.3, 0.7, 0.4, 0.4))
        assert float(total.data) == pytest.approx(2.8, abs=1e-12)

    def test_against_direct_weighted_sum(self):
        rng = _rng(25)
        vals = rng.uniform(0, 2, size=5)
        lambdas = tuple(rng.uniform(0, 1, size=4))
        total = overall_loss(*[Tensor(v) for v in vals], lambdas=lambdas)
        expected = vals[0] + sum(l * v for l, v in zip(lambdas, vals[1:]))
        assert float(total.data) == pytest.approx(expected, abs=1e-12)

    def test_linear_in_each_lambda(self):
        vals = [Tensor(v) for v in (0.5, 1.1, 0.7, 0.3, 2.0)]
        for idx in range(4):
            lam_lo = [0.2] * 4
            lam_hi = list(lam_lo)
            lam_hi[idx] += 0.5
            lo = float(overall_loss(*vals, lambdas=lam_lo).data)
            hi = float(overall_loss(*vals, lambdas=lam_hi).data)
            slope = (hi - lo) / 0.5
            assert slope == pytest.approx(float(vals[idx + 1].data), abs=1e-9)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            overall_loss(Tensor(1.0), None, None, None, None, lambdas=(-0.1, 0, 0, 0))

    def test_none_components_count_as_zero(self):
        total = overall_loss(Tensor(0.4), None, None, None, None, lambdas=(0.3, 0.7, 0.4, 0.4))
        assert float(total.data) == 0.4

    def test_breakdown_invariant(self):
        # A step's breakdown holds the terms of the total it reports, and
        # that total is the weighted sum in overall_loss's order.
        cfg = TrainConfig(d=8, heads=2, token_len=4, kernel_sizes=(2, 3), theta=0.6, gat_layers=1)
        model = IsmafModel(cfg, generate_synthetic(n=24, d=6, separation=2.0, seed=4))
        ids = [p.id for p in model.dataset.posts[:8]]
        result = model.forward(model.store.constants(), ids, rng=_rng(5))
        bd = result.breakdown
        assert bd.total == float(result.total.data)
        assert bd.lambdas == (0.3, 0.7, 0.4, 0.4)
        assert min(bd.scl, bd.cmca, bd.ml, bd.af) > 0
        assert bd.total == _summed_in_order(bd.ce, bd.scl, bd.cmca, bd.ml, bd.af, bd.lambdas)

    def test_large_total_sums_in_order(self):
        # At 2e7 the weighted terms summed in another order than
        # overall_loss's differ from its total by more than 1e-9.
        vals = (0.1, 0.3, 1.1, 0.2, 5e7)
        lambdas = (0.3, 0.7, 0.4, 0.4)
        total = float(overall_loss(*[Tensor(v) for v in vals], lambdas=lambdas).data)
        assert total == _summed_in_order(*vals, lambdas)

    def test_total_sums_in_order(self):
        rng = _rng(28)
        for _ in range(200):
            vals = 10.0 ** rng.uniform(-3, 9, size=5)
            lambdas = tuple(rng.uniform(0, 1, size=4))
            total = overall_loss(*[Tensor(v) for v in vals], lambdas=lambdas)
            assert float(total.data) == _summed_in_order(*vals, lambdas)


class TestFuseAlternate:
    def test_is_concat_identity_halves_recover_input(self):
        d = 3
        store = ParamStore(seed=26)
        create_concat_fusion_params(store, d)
        store.assign("fuse.cat_w", np.vstack([np.eye(d), np.eye(d)]) / 2.0)
        store.assign("fuse.cat_b", np.zeros(d))
        x = _rng(27).normal(size=(2, d))
        out = fuse_alternate("is-concat", Tensor(x), Tensor(x), store.constants(), 1)
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_is_concat_against_matmul_oracle(self):
        d = 4
        store = ParamStore(seed=28)
        create_concat_fusion_params(store, d)
        rng = _rng(29)
        z, g = rng.normal(size=(3, d)), rng.normal(size=(3, d))
        out = fuse_alternate("is-concat", Tensor(z), Tensor(g), store.constants(), 2)
        expected = np.concatenate([z, g], axis=1) @ store.value("fuse.cat_w") + store.value("fuse.cat_b")
        assert np.abs(out.data - expected).max() < 1e-12

    def test_is_att_equal_inputs_shared_params_match_self_attention(self):
        store = ParamStore(seed=30)
        create_attention_params(store, 6, 2, 3)
        params = store.constants()
        # Route the fusion attention through the T projections.
        params["attn.F.wq"] = params["attn.T.wq"]
        params["attn.F.wk"] = params["attn.T.wk"]
        params["attn.F.wv"] = params["attn.T.wv"]
        params["attn.F.wo"] = params["attn.T.wo"]
        x = _rng(31).normal(size=6)
        fused = fuse_alternate("is-att", Tensor(x[None, :]), Tensor(x[None, :]), params, 2)
        direct = self_attention(Tensor(x[None, :]), "T", params, 2)
        np.testing.assert_allclose(fused.data, direct.data, atol=1e-12)

    def test_is_att_output_shape(self):
        store = ParamStore(seed=32)
        create_fusion_attention_params(store, 6, 2, 2)
        rng = _rng(33)
        out = fuse_alternate(
            "is-att", Tensor(rng.normal(size=(3, 6))), Tensor(rng.normal(size=(3, 6))),
            store.constants(), 2,
        )
        assert out.shape == (3, 6)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fusion kind"):
            fuse_alternate("is-co", Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4))), {}, 1)
