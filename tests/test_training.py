import dataclasses
import hashlib
import json
import re
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest

from ismaf import autodiff as ad
from ismaf import bridging, encoders, serialize, training
from ismaf.config import TrainConfig, load_config, save_config
from ismaf.data import CommentRecord, DatasetBundle, UserRecord, generate_synthetic, split_dataset
from ismaf.model import IsmafModel
from ismaf.serialize import ModelFileError, load_model, save_model
from ismaf.training import (
    ADAM_SLICE,
    Adam,
    MetricsReport,
    TrainingDiverged,
    evaluate,
    parse_sweep_range,
    sweep_lambda,
    train,
)
from ismaf.autodiff import ParamStore, Tape

import oracles


def _tiny_config(**overrides):
    base = dict(
        d=8, heads=2, batch_size=8, epochs=2, token_len=4,
        kernel_sizes=(2, 3), theta=0.6, seed=5, gat_layers=1,
    )
    base.update(overrides)
    return TrainConfig(**base)


def _plant_in_visual_gradient(monkeypatch, value):
    """Every step's gradient of the projected visual rows gets ``value`` in
    its first cell that the relu passes; no forward changes."""
    project = encoders.project_visual

    def planted(*args):
        out = project(*args)
        if out.tape is None:  # evaluation
            return out
        cell = np.argmax(out.data > 0)

        def vjp(g):
            g = g.copy()
            g.reshape(-1)[cell] = value
            return (g,)

        return out.tape.emit(out.data, (out,), vjp)

    monkeypatch.setattr(encoders, "project_visual", planted)


@pytest.fixture(scope="module")
def tiny_data():
    return generate_synthetic(n=40, d=6, separation=3.0, graph_noise=0.25, seed=21)


class TestTrainLoop:
    def test_zero_epochs_returns_initial_parameters(self, tiny_data):
        cfg = _tiny_config(epochs=0)
        result = train(cfg, tiny_data)
        ds = split_dataset(tiny_data, cfg.fractions, cfg.seed)
        fresh = IsmafModel(cfg, ds)
        for name in fresh.store.names():
            assert (
                result.model.store.value(name).tobytes()
                == fresh.store.value(name).tobytes()
            )
        assert result.history == []
        assert result.best_epoch == -1

    def test_zero_lambdas_isconcat_total_equals_ce(self, tiny_data):
        cfg = _tiny_config(
            lambda1=0, lambda2=0, lambda3=0, lambda4=0, fusion="is-concat", epochs=1
        )
        result = train(cfg, tiny_data)
        for stats in result.history:
            assert stats.losses.total == stats.losses.ce

    def test_zero_weights_zero_their_loss_columns(self, tiny_data):
        cfg = _tiny_config(lambda1=0, lambda2=0, lambda3=0, epochs=1)
        result = train(cfg, tiny_data)
        for stats in result.history:
            assert stats.losses.scl == 0.0
            assert stats.losses.cmca == 0.0
            assert stats.losses.ml == 0.0
            assert stats.losses.af > 0.0  # adaptive fusion still active

    # The paper's w/o MRE, w/o CMCA and w/o ML: the term is never computed.
    @pytest.mark.parametrize("weight, term, column", [
        ("lambda1", "scl_loss", "scl"),
        ("lambda2", "cmca_loss", "cmca"),
        ("lambda3", "mutual_learning_loss", "ml"),
    ])
    def test_zero_weight_skips_its_term(self, tiny_data, monkeypatch, weight, term, column):
        monkeypatch.setattr(bridging, term, mock.Mock(side_effect=AssertionError(f"{term} called")))
        result = train(_tiny_config(epochs=1, **{weight: 0.0}), tiny_data)
        for stats in result.history:
            assert getattr(stats.losses, column) == 0.0

    def test_zero_af_weight_keeps_fusion_and_zeroes_column(self, tiny_data):
        result = train(_tiny_config(lambda4=0, epochs=1), tiny_data)
        assert "fuse.dec_w" in result.model.store.names()
        for stats in result.history:
            assert stats.losses.af == 0.0
            assert stats.losses.scl > 0.0

    # The paper's w/o AF.
    def test_is_concat_fusion_has_no_af_column(self, tiny_data):
        result = train(_tiny_config(fusion="is-concat", epochs=1), tiny_data)
        assert "fuse.cat_w" in result.model.store.names()
        assert "fuse.enc_w" not in result.model.store.names()
        for stats in result.history:
            assert stats.losses.af == 0.0

    def test_determinism_same_seed_identical_history_and_metrics(self, tiny_data):
        cfg = _tiny_config(epochs=2)
        r1 = train(cfg, tiny_data)
        r2 = train(cfg, tiny_data)
        assert [s.losses.as_dict() for s in r1.history] == [
            s.losses.as_dict() for s in r2.history
        ]
        m1 = evaluate(r1.model, r1.model.dataset, "test")
        m2 = evaluate(r2.model, r2.model.dataset, "test")
        assert m1 == m2
        for name in r1.model.store.names():
            assert (
                r1.model.store.value(name).tobytes()
                == r2.model.store.value(name).tobytes()
            )

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence_aborts_with_checkpoint(self, tiny_data):
        cfg = _tiny_config(lr=1e18, epochs=3)
        with pytest.raises(TrainingDiverged) as info:
            train(cfg, tiny_data)
        assert isinstance(info.value.checkpoint, dict)
        assert "text.embed" in info.value.checkpoint
        # The first step's update makes the next step's gradient non-finite
        # before its loss is, and Adam never takes that gradient.
        assert re.fullmatch(
            r"non-finite gradient at epoch 0 step \d+ in parameter [\w.]+", str(info.value)
        ), str(info.value)

    # A non-finite loss term at epoch 0 step 2: the checkpoint holds the
    # parameters that step started from, and the message names exactly the
    # non-finite terms among those it lists.
    def test_epoch_zero_divergence_carries_the_pre_step_parameters(self, tiny_data, monkeypatch):
        cmca, forward = bridging.cmca_loss, IsmafModel.forward
        calls, starts = [], []

        def planted_cmca(*args):
            calls.append(1)
            out = cmca(*args)
            return ad.scale(out, np.nan) if len(calls) == 3 else out

        def recording_forward(model, *args, **kwargs):
            starts.append({name: value.copy() for name, value in model.store.items()})
            return forward(model, *args, **kwargs)

        monkeypatch.setattr(bridging, "cmca_loss", planted_cmca)
        monkeypatch.setattr(IsmafModel, "forward", recording_forward)
        with pytest.raises(TrainingDiverged) as info:
            train(_tiny_config(), tiny_data)
        assert len(starts) == 3 and info.value.history == []
        checkpoint = info.value.checkpoint
        assert {k: v.tobytes() for k, v in checkpoint.items()} == {k: v.tobytes() for k, v in starts[2].items()}
        assert checkpoint["text.embed"].tobytes() != starts[0]["text.embed"].tobytes()
        head, terms = str(info.value).split(": ", 1)
        values = {k: float(v) for k, v in re.findall(r"'(\w+)': ([^,}]+)", terms)}
        bad = [k for k in ("ce", "scl", "cmca", "ml", "af") if not np.isfinite(values[k])]
        assert bad == ["cmca"] and head == "non-finite loss at epoch 0 step 2 in cmca", str(info.value)

    # An inf planted in one cell of the visual rows' gradient, under a finite
    # loss: the run stops before Adam, naming the first parameter in store
    # order whose gradient is non-finite, with the parameters untouched.
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_gradient_stops_before_adam(self, tiny_data, monkeypatch):
        _plant_in_visual_gradient(monkeypatch, np.inf)
        cfg = _tiny_config()
        initial = IsmafModel(cfg, split_dataset(tiny_data, cfg.fractions, cfg.seed)).store
        with pytest.raises(TrainingDiverged, match=r"^non-finite gradient at epoch 0 step 0 in parameter visual\.w$") as info:
            train(cfg, tiny_data)
        assert info.value.history == []
        for name, value in info.value.checkpoint.items():
            assert value.tobytes() == initial.value(name).tobytes(), name

    # A finite gradient whose g.g overflows is not taken for a non-finite one.
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_huge_finite_gradient_trains_on(self, tiny_data, monkeypatch):
        _plant_in_visual_gradient(monkeypatch, 1e200)
        step, overflowed = Adam.step, []

        def recording_step(optimizer, grads, lr):
            g = grads["visual.w"].reshape(-1)
            overflowed.append(np.isfinite(g).all() and not np.isfinite(g @ g))
            return step(optimizer, grads, lr)

        monkeypatch.setattr(Adam, "step", recording_step)
        assert len(train(_tiny_config(), tiny_data).history) == 2
        assert overflowed and all(overflowed)

    # A step's tape, and with it its leaves and gradients, is freed before
    # the next step's forward and before validation.
    def test_no_tape_outlives_its_step(self, tiny_data, monkeypatch):
        init, forward = Tape.__init__, IsmafModel.forward
        tapes = []

        def recording_init(tape):
            init(tape)
            tapes.append(weakref.ref(tape))

        def checking_forward(model, params, *args, **kwargs):
            own = next(iter(params.values())).tape
            alive = sum(ref() is not None and ref() is not own for ref in tapes)
            assert alive == 0, f"{alive} earlier tapes alive at a forward"
            return forward(model, params, *args, **kwargs)

        monkeypatch.setattr(Tape, "__init__", recording_init)
        monkeypatch.setattr(IsmafModel, "forward", checking_forward)
        train(_tiny_config(epochs=2), tiny_data)
        assert len(tapes) >= 4

    # Live memory at a step's start holds nothing of the step before: from
    # one step's start to the next it rises by less than a quarter of the
    # parameters' bytes, where the previous step's old parameters or its
    # gradients, kept alive, would each add all of them.
    def test_live_memory_at_each_step_start_is_flat(self, monkeypatch):
        data = generate_synthetic(n=100, d=32, separation=2.0, seed=3)
        cfg = TrainConfig(d=32, heads=2, token_len=4, batch_size=8, epochs=1, seed=5)
        # The first run pays numpy's and Python's one-time set-up.
        param_bytes = sum(value.nbytes for _, value in train(cfg, data).model.store.items())
        forward = IsmafModel.forward
        starts = []

        def measuring_forward(model, params, *args, **kwargs):
            if next(iter(params.values())).tape is not None:
                starts.append(tracemalloc.get_traced_memory()[0])
            return forward(model, params, *args, **kwargs)

        monkeypatch.setattr(IsmafModel, "forward", measuring_forward)
        tracemalloc.start()
        try:
            train(cfg, data)
        finally:
            tracemalloc.stop()
        rises = np.diff(starts)
        assert len(starts) >= 5 and rises.max() < param_bytes / 4, (rises, param_bytes)

    # The parameters are copied after each validation that improves on the
    # best so far, and never before the first one.
    @pytest.mark.parametrize("epochs", [0, 4])
    def test_snapshot_only_after_an_improving_validation(self, tiny_data, monkeypatch, epochs):
        snapshot, validate = ParamStore.snapshot, training.evaluate
        validations, snapshots = [], []

        def counting_snapshot(store):
            snapshots.append(len(validations))
            return snapshot(store)

        def counting_evaluate(*args, **kwargs):
            validations.append(1)
            return validate(*args, **kwargs)

        monkeypatch.setattr(ParamStore, "snapshot", counting_snapshot)
        monkeypatch.setattr(training, "evaluate", counting_evaluate)
        result = train(_tiny_config(epochs=epochs), tiny_data)
        accs = [s.val_accuracy for s in result.history]
        improving = [e + 1 for e, acc in enumerate(accs) if acc > max(accs[:e], default=-1.0)]
        assert snapshots == improving

    def test_model_selection_keeps_best_validation_epoch(self, tiny_data):
        cfg = _tiny_config(epochs=3)
        result = train(cfg, tiny_data)
        accs = [s.val_accuracy for s in result.history]
        assert result.best_val_accuracy == max(accs)
        assert result.best_epoch == accs.index(max(accs))  # ties keep earlier

    def test_padding_row_stays_zero_through_training(self, tiny_data):
        cfg = _tiny_config(epochs=1)
        result = train(cfg, tiny_data)
        assert not result.model.store.value("text.embed")[0].any()

    def test_tiny_training_split_fails_before_the_graph_is_built(self, tiny_data):
        first = tiny_data.posts[0].id
        one = dataclasses.replace(
            tiny_data, split={p.id: "train" if p.id == first else "test" for p in tiny_data.posts}
        )
        unbuilt = mock.patch.object(
            encoders, "build_social_graph", side_effect=AssertionError("graph built")
        )
        with unbuilt, pytest.raises(ValueError, match="training split too small: 1 posts"):
            train(_tiny_config(), one)

    # The size of a step's design: the tape records (``Tape.emit`` calls) of
    # one training step of 64 posts, forward and backward, per fusion.
    @pytest.mark.parametrize("fusion, records", [("af", 94), ("is-concat", 85), ("is-att", 83)])
    def test_step_tape_records(self, monkeypatch, fusion, records):
        cfg = TrainConfig(d=32, token_len=4, fusion=fusion)
        data = split_dataset(generate_synthetic(n=100, d=32, separation=2.0, seed=3), cfg.fractions, cfg.seed)
        model = IsmafModel(cfg, data)
        emitted = []
        emit = Tape.emit

        def counting_emit(tape, *args):
            emitted.append(1)
            return emit(tape, *args)

        monkeypatch.setattr(Tape, "emit", counting_emit)
        tape = Tape()
        batch = data.split_ids("train")[:64]
        assert len(batch) == 64
        result = model.forward(model.store.watch(tape), batch, rng=np.random.default_rng(0))
        tape.backward(result.total)
        assert len(emitted) == records


class TestAdam:
    def test_single_step_matches_hand_computation(self):
        store = ParamStore(seed=0)
        store.create("w", (2,))
        store.assign("w", np.array([1.0, -2.0]))
        opt = Adam(store)
        g = np.array([0.5, -1.0])
        opt.step({"w": g}, lr=0.1)
        # First step with bias correction reduces to w - lr * g / (|g| + eps).
        expected = np.array([1.0, -2.0]) - 0.1 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(store.value("w"), expected, atol=1e-9)

    # Bitwise the whole-array formulas over 5 steps, with gradients from 1e-8
    # to 10 in size and some -0.0: a parameter of more than one slice, a
    # gradient that is a column view (as concat's vjp hands back through
    # np.split(axis=1)), and a stored parameter that is a strided,
    # column-major view (np.zeros_like moments would copy on reshape).  An
    # array that store.value returned before the steps keeps its bytes.
    def test_bitwise_the_allocating_step(self):
        rng = np.random.default_rng(9)
        values = {
            "big": rng.normal(size=(3, ADAM_SLICE + 77)),
            "split": rng.normal(size=(5, 9)),
            "strided": rng.normal(size=(6, 4)),
            "bias": rng.normal(size=(7,)),
        }

        def store_of():
            store = ParamStore(seed=0)
            for name, value in values.items():
                store.create(name, value.shape, init="zeros")
                # "strided": a column-major view of every other row of a copy.
                store.assign(name, np.repeat(value.T, 2, axis=0)[::2].T if name == "strided" else value.copy())
            return store

        def grad(shape):
            g = 10.0 ** rng.uniform(-8, 1, size=shape) * rng.choice([-1.0, 1.0], size=shape)
            g[rng.random(shape) < 0.05] = -0.0
            return g

        store, oracle_store = store_of(), store_of()
        assert not store.value("strided").flags.c_contiguous
        adam, oracle = Adam(store), oracles.AdamAllocating(oracle_store)
        held = {name: store.value(name) for name in values}
        held_bytes = {name: a.tobytes() for name, a in held.items()}
        for step in range(5):
            grads = {name: grad(v.shape) for name, v in values.items()}
            grads["split"] = np.split(grad((5, 20)), [9], axis=1)[0]
            assert not grads["split"].flags.c_contiguous
            adam.step(grads, lr=0.01 * (step + 1))
            oracle.step(grads, lr=0.01 * (step + 1))
            for name in values:
                assert adam._m[name].tobytes() == oracle._m[name].tobytes(), (step, name, "m")
                assert adam._v[name].tobytes() == oracle._v[name].tobytes(), (step, name, "v")
                assert store.value(name).tobytes() == oracle_store.value(name).tobytes(), (step, name)
        assert {name: a.tobytes() for name, a in held.items()} == held_bytes

    def test_decay_applied_per_epoch(self, tiny_data):
        # lr decay must make later epochs step shorter; probing indirectly:
        # training still runs and parameters change.
        cfg = _tiny_config(epochs=1, lr_decay=0.5)
        result = train(cfg, tiny_data)
        fresh = IsmafModel(cfg, split_dataset(tiny_data, cfg.fractions, cfg.seed))
        changed = any(
            result.model.store.value(n).tobytes() != fresh.store.value(n).tobytes()
            for n in fresh.store.names()
        )
        assert changed


class TestEvaluate:
    def test_all_correct_predictions(self):
        report = MetricsReport.from_predictions([1, 0, 1, 0], [1, 0, 1, 0])
        assert (report.accuracy, report.precision, report.recall, report.f1) == (1, 1, 1, 1)

    def test_confusion_matrix_arithmetic(self):
        # tp=3, fp=1, fn=1, tn=5 -> precision .75, recall .75, f1 .75, acc .8
        predicted = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
        actual = [1, 1, 1, 0, 1, 0, 0, 0, 0, 0]
        report = MetricsReport.from_predictions(predicted, actual)
        assert (report.tp, report.fp, report.fn, report.tn) == (3, 1, 1, 5)
        assert report.precision == pytest.approx(0.75)
        assert report.recall == pytest.approx(0.75)
        assert report.f1 == pytest.approx(0.75)
        assert report.accuracy == pytest.approx(0.8)

    def test_predict_all_negative_on_balanced_data(self):
        report = MetricsReport.from_predictions([0, 0, 0, 0], [1, 0, 1, 0])
        assert report.recall == 0.0
        assert report.f1 == 0.0
        assert report.accuracy == 0.5

    def test_matches_confusion_oracle(self):
        rng = np.random.default_rng(3)
        predicted = rng.integers(0, 2, size=50)
        actual = rng.integers(0, 2, size=50)
        report = MetricsReport.from_predictions(predicted, actual)
        acc, pre, rec, f1 = oracles.metrics_from_confusion(
            report.tp, report.fp, report.tn, report.fn
        )
        assert (report.accuracy, report.precision, report.recall, report.f1) == (
            acc, pre, rec, f1,
        )

    def test_empty_split_rejected(self, tiny_data):
        cfg = _tiny_config(epochs=0)
        result = train(cfg, tiny_data)
        ds = result.model.dataset
        with pytest.raises(ValueError, match="unknown split"):
            evaluate(result.model, ds, "nope")

    def test_whole_split_in_one_predict_call(self, monkeypatch):
        data = generate_synthetic(n=320, d=6, separation=3.0, seed=22)
        cfg = _tiny_config(gat_layers=2, train_frac=0.1, val_frac=0.05, test_frac=0.85)
        ds = split_dataset(data, cfg.fractions, cfg.seed)
        model = IsmafModel(cfg, ds)
        ids = ds.split_ids("test")
        assert len(ids) > 256
        plain_predict = model.predict
        chunked = np.concatenate([plain_predict(ids[i : i + 256]) for i in range(0, len(ids), 256)])
        calls = []

        def spy(post_ids, zero_social=False):
            calls.append(plain_predict(post_ids, zero_social=zero_social))
            return calls[-1]

        monkeypatch.setattr(model, "predict", spy)
        report = evaluate(model, ds, "test")
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], chunked)
        assert 0 < chunked.sum() < len(ids)
        label = {p.id: p.label for p in ds.posts}
        assert report == MetricsReport.from_predictions(chunked, [label[pid] for pid in ids])

    def test_report_format_four_decimals(self):
        report = MetricsReport.from_predictions([1, 0, 1], [1, 1, 1])
        text = report.format()
        assert "accuracy = 0.6667" in text
        assert "precision = 1.0000" in text
        assert "tp = 2" in text


class TestSerialization:
    def test_round_trip_bitwise_and_same_metrics(self, tmp_path, tiny_data):
        cfg = _tiny_config(epochs=1)
        result = train(cfg, tiny_data)
        path = tmp_path / "model.json"
        save_model(result.model, path)
        loaded = load_model(path, tiny_data)
        for name in result.model.store.names():
            assert (
                loaded.store.value(name).tobytes()
                == result.model.store.value(name).tobytes()
            )
        ds = split_dataset(tiny_data, cfg.fractions, cfg.seed)
        loaded.dataset = ds
        assert evaluate(loaded, ds, "test") == evaluate(result.model, result.model.dataset, "test")

    def test_fresh_store_round_trip(self, tmp_path, tiny_data):
        cfg = _tiny_config(epochs=0)
        result = train(cfg, tiny_data)
        path = tmp_path / "fresh.json"
        save_model(result.model, path)
        loaded = load_model(path, tiny_data)
        for name in result.model.store.names():
            np.testing.assert_array_equal(
                loaded.store.value(name), result.model.store.value(name)
            )

    def test_tampered_file_rejected(self, tmp_path, tiny_data):
        cfg = _tiny_config(epochs=0)
        result = train(cfg, tiny_data)
        path = tmp_path / "model.json"
        save_model(result.model, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01  # one bit of one parameter
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFileError, match="checksum"):
            load_model(path, tiny_data)

    def test_version_mismatch_rejected(self, tmp_path, tiny_data):
        cfg = _tiny_config(epochs=0)
        result = train(cfg, tiny_data)
        path = tmp_path / "model.json"
        save_model(result.model, path)
        header, body = _checkpoint_parts(path)
        header["format_version"] = 99
        _write_checkpoint(path, header, body)
        with pytest.raises(ModelFileError, match="version 99"):
            load_model(path, tiny_data)

    @pytest.mark.parametrize("change, name, shapes", [
        ("vocab", "text.embed", r"\(121, 8\) in the file but \(501, 8\)"),
        ("visual", "visual.w", r"\(6, 8\) in the file but \(5, 8\)"),
    ])
    def test_incompatible_dataset_rejected(self, tmp_path, tiny_data, change, name, shapes):
        result = train(_tiny_config(epochs=0), tiny_data)
        path = tmp_path / "model.json"
        save_model(result.model, path)
        if change == "vocab":
            first = tiny_data.posts[0]
            wider = dataclasses.replace(first, tokens=first.tokens + [500])
            other = DatasetBundle([wider] + tiny_data.posts[1:], tiny_data.comments, tiny_data.users)
        else:
            other = generate_synthetic(n=40, d=5, separation=3.0, graph_noise=0.25, seed=21)
        # The shapes are checked before the social graph is built.
        unbuilt = mock.patch.object(
            encoders, "build_social_graph", side_effect=AssertionError("graph built")
        )
        with unbuilt, pytest.raises(ModelFileError, match=f"parameter '{name}' has shape {shapes}"):
            load_model(path, other)

    def test_not_a_model_file_rejected(self, tmp_path, tiny_data):
        path = tmp_path / "junk.json"
        path.write_text("{}")
        with pytest.raises(ModelFileError, match="not a model file"):
            load_model(path, tiny_data)

    @pytest.fixture
    def saved(self, tmp_path, tiny_data):
        """The path of a checkpoint of the untrained tiny model."""
        path = tmp_path / "model.json"
        save_model(train(_tiny_config(epochs=0), tiny_data).model, path)
        return path

    def test_version_1_file_rejected(self, tmp_path, tiny_data):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "format_version": 1, "config": _tiny_config().to_dict(), "seed": 5,
            "params": {}, "checksum": "0" * 64,
        }))
        with pytest.raises(ModelFileError, match=r"version 1 .*re-run `ismaf train`"):
            load_model(path, tiny_data)

    # theta lies in (-1, 1); 0.999 stands for the top of the range: there
    # the edges are the structural ones and the similarity pairs of equal
    # texts.
    @pytest.mark.parametrize("overrides", [
        {}, {"connect_kinds": "same-kind"}, {"theta": 0.0}, {"theta": 0.999},
    ], ids=["all-kinds", "same-kind", "theta-0", "theta-0.999"])
    def test_stored_graph_equals_rebuilt_graph(self, tmp_path, tiny_data, overrides):
        # One user who wrote nothing (only its self-loop), one comment
        # without tokens (a zero feature, so no similarity edges) and one
        # comment that repeats another's tokens.
        post, comment = tiny_data.posts[0], tiny_data.comments[0]
        extra = [
            CommentRecord("c-empty", [], post.user_id, post.id),
            CommentRecord("c-repeat", comment.tokens, post.user_id, post.id),
        ]
        ds = split_dataset(DatasetBundle(
            tiny_data.posts, tiny_data.comments + extra, tiny_data.users + [UserRecord("lurker")],
        ), (0.6, 0.2, 0.2), 5)
        built = IsmafModel(_tiny_config(**overrides), ds)
        lurker = built.graph.index["lurker"]
        assert (built.graph.src == lurker).sum() == 1
        path = tmp_path / "model.json"
        save_model(built, path)
        spy = mock.patch.object(encoders, "build_social_graph", wraps=encoders.build_social_graph)
        with spy as build:
            loaded = load_model(path, ds)
        assert build.call_args.kwargs["edges"] is not None  # no similarity join
        for name in ("src", "dst", "token_weights"):
            got, want = getattr(loaded.graph, name), getattr(built.graph, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        for name in built.store.names():
            assert loaded.store.value(name).tobytes() == built.store.value(name).tobytes()
        ids = ds.split_ids("test")
        assert loaded.predict(ids).tobytes() == built.predict(ids).tobytes()

    @pytest.mark.parametrize("change, part", [
        ("comment-token", "tokens"),
        ("author-renamed", "ids"),
        ("comment-author", "links"),
    ])
    def test_other_records_rejected(self, saved, tiny_data, change, part):
        path = saved
        posts, comments, users = list(tiny_data.posts), list(tiny_data.comments), list(tiny_data.users)
        first = comments[0]
        if change == "comment-token":
            token = 1 if first.tokens[0] != 1 else 2
            comments[0] = dataclasses.replace(first, tokens=[token] + first.tokens[1:])
        elif change == "author-renamed":
            old, new = first.user_id, "renamed"
            users = [UserRecord(new) if u.id == old else u for u in users]
            posts = [dataclasses.replace(p, user_id=new) if p.user_id == old else p for p in posts]
            comments = [dataclasses.replace(c, user_id=new) if c.user_id == old else c for c in comments]
        else:
            other = next(u.id for u in users if u.id != first.user_id)
            comments[0] = dataclasses.replace(first, user_id=other)
        other = DatasetBundle(posts, comments, users)
        with pytest.raises(ModelFileError, match=f"record {part} differ .*fingerprint"):
            load_model(path, other)

    def test_truncated_file_rejected(self, saved, tiny_data):
        path = saved
        header, body = _checkpoint_parts(path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ModelFileError, match="checksum"):
            load_model(path, tiny_data)
        _write_checkpoint(path, header, body[:-8])  # under a valid checksum
        with pytest.raises(ModelFileError, match="truncated"):
            load_model(path, tiny_data)

    @pytest.mark.parametrize("key", ["config", "records", "arrays"])
    def test_header_missing_a_key_rejected(self, saved, tiny_data, key):
        path = saved
        header, body = _checkpoint_parts(path)
        del header[key]
        _write_checkpoint(path, header, body)
        with pytest.raises(ModelFileError, match=f"header has no {key}"):
            load_model(path, tiny_data)

    # A config key that TrainConfig no longer has, such as an ablation
    # switch of an older version.
    def test_unknown_config_key_rejected(self, saved, tiny_data):
        path = saved
        header, body = _checkpoint_parts(path)
        header["config"]["ablate_af"] = True
        _write_checkpoint(path, header, body)
        with pytest.raises(ModelFileError, match=re.escape("bad config: unknown config keys: ['ablate_af']")):
            load_model(path, tiny_data)

    # theta = 1, which older versions took and saved.
    def test_theta_one_config_rejected(self, saved, tiny_data):
        path = saved
        header, body = _checkpoint_parts(path)
        header["config"]["theta"] = 1.0
        _write_checkpoint(path, header, body)
        with pytest.raises(ModelFileError, match=re.escape("bad config: theta must lie in (-1, 1), got 1.0")):
            load_model(path, tiny_data)

    # JSON values that int() or Python's bool-is-int would let through.
    @pytest.mark.parametrize("key, value, message", [
        ("heads", True, "heads must be int, got True"),
        ("gat_layers", True, "gat_layers must be int, got True"),
        ("epochs", 2.5, "epochs must be int, got 2.5"),
        ("d", 8.0, "d must be int, got 8.0"),
        ("kernel_sizes", [2.7, 3], "kernel_sizes must be a tuple of ints, got (2.7, 3)"),
        ("lr", False, "lr must be float, got False"),
    ])
    def test_mistyped_config_value_rejected(self, saved, tiny_data, key, value, message):
        path = saved
        header, body = _checkpoint_parts(path)
        header["config"][key] = value
        _write_checkpoint(path, header, body)
        with pytest.raises(ModelFileError, match=re.escape(f"bad config: {message}")):
            load_model(path, tiny_data)

    # [true, n] would read as [1, n]: the same bytes, another shape.
    def test_boolean_array_dimension_rejected(self, saved, tiny_data):
        path = saved
        header, body = _checkpoint_parts(path)
        name, dtype, shape = header["arrays"][0]
        header["arrays"][0] = [name, dtype, [True] + shape]
        _write_checkpoint(path, header, body)
        with pytest.raises(ModelFileError, match="malformed array table entry"):
            load_model(path, tiny_data)

    # Edges crafted under a valid checksum.
    @pytest.mark.parametrize("craft, message", [
        ("short-out-degree", r"out_degree has shape \(\d+,\), expected"),
        ("negative-count", "negative count"),
        ("sum-mismatch", "sums to"),
        ("negative-dst", "outside"),
        ("dst-past-end", "outside"),
        ("repeated-edge", "not strictly increasing within a source"),
        ("unordered-dst", "not strictly increasing within a source"),
        ("stored-self-loop", "holds a self-loop"),
        ("one-way-edge", "holds a one-way edge"),
    ])
    def test_crafted_edges_rejected(self, saved, tiny_data, craft, message):
        path = saved
        header, body = _checkpoint_parts(path)
        arrays = _checkpoint_arrays(header, body)
        out, dst = arrays["graph.out_degree"].copy(), arrays["graph.dst"].copy()
        if craft == "short-out-degree":
            out = out[:-1]
        elif craft == "negative-count":  # the sum stays len(dst)
            out[1] += out[0] + 1
            out[0] = -1
        elif craft == "sum-mismatch":
            out[0] += 1
        elif craft == "negative-dst":
            dst[0] = -1
        elif craft in ("repeated-edge", "unordered-dst", "stored-self-loop", "one-way-edge"):
            # The last source with two stored edges; its first edge starts
            # at `at` and the sum stays len(dst).
            node = np.flatnonzero(out >= 2)[-1]
            at = out[:node].sum()
            if craft == "repeated-edge":
                out[node] += 1
                dst = np.insert(dst, at, dst[at])
            elif craft == "unordered-dst":
                dst[at], dst[at + 1] = dst[at + 1], dst[at]
            elif craft == "one-way-edge":  # its reverse stays stored
                out[node] -= 1
                dst = np.delete(dst, at)
            else:
                dst[at] = node
        else:
            dst[-1] = out.size  # one count per node
        arrays["graph.out_degree"], arrays["graph.dst"] = out, dst
        header["arrays"] = [[name, value.dtype.str, list(value.shape)] for name, value in arrays.items()]
        _write_checkpoint(path, header, b"".join(value.tobytes() for value in arrays.values()))
        with pytest.raises(ModelFileError, match=message):
            load_model(path, tiny_data)

    def test_failed_save_keeps_the_old_file(self, tmp_path, tiny_data, monkeypatch):
        old = train(_tiny_config(epochs=0), tiny_data).model
        path = tmp_path / "model.json"
        save_model(old, path)
        newer = train(_tiny_config(epochs=1), tiny_data).model

        def failing_open(*args, **kwargs):
            f = open(*args, **kwargs)
            write = f.write

            def write_then_fail(data):
                if f.tell() > 0:  # after the first part is on disk
                    raise OSError("No space left on device")
                return write(data)

            f.write = write_then_fail
            return f

        monkeypatch.setattr(serialize, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="No space"):
            save_model(newer, path)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
        loaded = load_model(path, tiny_data)
        for name in old.store.names():
            assert loaded.store.value(name).tobytes() == old.store.value(name).tobytes()

    def test_load_peak_stays_near_the_parameters(self, tmp_path):
        # At d=300 on 40 posts the parameters are nearly all of the file:
        # loading holds them once, in the model, and neither the whole file
        # nor a second copy of them besides.
        data = generate_synthetic(n=40, d=300, separation=2.0, seed=22)
        model = IsmafModel(TrainConfig(), data)
        path = tmp_path / "model.json"
        save_model(model, path)
        params = sum(value.nbytes for _, value in model.store.items())
        tracemalloc.start()
        try:
            load_model(path, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * params, (peak, params)


def _checkpoint_parts(path):
    """A format-2 checkpoint's header and the array bytes after it."""
    raw = path.read_bytes()
    start = len(serialize.MAGIC) + 65
    newline = raw.index(b"\n", start)
    return json.loads(raw[start:newline]), raw[newline + 1:]


def _checkpoint_arrays(header, body):
    arrays, offset = {}, 0
    for name, dtype, shape in header["arrays"]:
        arrays[name] = np.frombuffer(body, dtype=dtype, count=int(np.prod(shape)), offset=offset).reshape(shape)
        offset += arrays[name].nbytes
    return arrays


def _write_checkpoint(path, header, body):
    """Write a checkpoint with a valid checksum over any header and body."""
    rest = json.dumps(header).encode() + b"\n" + body
    path.write_bytes(serialize.MAGIC + hashlib.sha256(rest).hexdigest().encode() + b"\n" + rest)


class TestSweep:
    def test_single_point_equals_plain_train_evaluate(self, tiny_data):
        cfg = _tiny_config(epochs=1)
        rows = sweep_lambda(cfg, tiny_data, 2, [0.7], epochs=1)
        assert len(rows) == 1
        direct = train(dataclasses.replace(cfg, lambda2=0.7, epochs=1), tiny_data)
        report = evaluate(direct.model, direct.model.dataset, "test")
        assert rows[0].accuracy == report.accuracy
        assert rows[0].f1 == report.f1

    def test_three_point_range_gives_three_rows(self, tiny_data):
        cfg = _tiny_config(epochs=1)
        rows = sweep_lambda(cfg, tiny_data, 2, parse_sweep_range("0:1:0.5"), epochs=1)
        assert [r.lambda_value for r in rows] == [0.0, 0.5, 1.0]

    def test_metrics_within_unit_interval(self, tiny_data):
        cfg = _tiny_config(epochs=1)
        rows = sweep_lambda(cfg, tiny_data, 3, [0.0, 1.0], epochs=1)
        for row in rows:
            assert 0.0 <= row.accuracy <= 1.0
            assert 0.0 <= row.f1 <= 1.0

    def test_range_parsing(self):
        assert parse_sweep_range("0:1:0.1") == pytest.approx(
            [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        )
        assert parse_sweep_range("0:1:0.5") == [0.0, 0.5, 1.0]
        with pytest.raises(ValueError, match="start:stop:step"):
            parse_sweep_range("0:1")

    def test_bad_lambda_index_rejected(self, tiny_data):
        with pytest.raises(ValueError, match="1..4"):
            sweep_lambda(_tiny_config(), tiny_data, 5, [0.5])


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = _tiny_config(lambda2=0.55, lambda3=0, fusion="is-att")
        path = tmp_path / "config.txt"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text(
            "# comment line\n"
            "d = 12  # trailing comment\n"
            "token_len = 4\n"
            "kernel_sizes = 2, 3\n"
            "\n"
            "fusion = is-concat\n"
            "lambda1 = 0\n"
        )
        cfg = load_config(path)
        assert cfg.d == 12
        assert cfg.kernel_sizes == (2, 3)
        assert cfg.fusion == "is-concat"
        assert cfg.lambda1 == 0.0

    def test_values_take_their_field_types(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("seed = 3\nlr = 1\nconnect_kinds = same-kind\nkernel_sizes = 4\n")
        cfg = load_config(path)
        assert [type(v) for v in (cfg.seed, cfg.lr, cfg.connect_kinds)] == [int, float, str]
        assert cfg.kernel_sizes == (4,)
        path.write_text("token_len = 1\nd = 2.5\n")
        with pytest.raises(ValueError, match=r"config.txt:2: invalid literal for int"):
            load_config(path)

    # An unknown key is named before its value is parsed, whatever the value.
    @pytest.mark.parametrize("lines, keys", [
        ("banana = 7\n", "'banana'"),
        ("banana = yellow\n", "'banana'"),
        ("d = 8\nablate_af = true\nablate_ml = yes\n", "'ablate_af', 'ablate_ml'"),
    ], ids=["number", "word", "old-switches"])
    def test_unknown_key_rejected(self, tmp_path, lines, keys):
        path = tmp_path / "config.txt"
        path.write_text(lines)
        with pytest.raises(ValueError, match=re.escape(f"unknown config keys: [{keys}]")):
            load_config(path)

    # A bool is no number, an int is no float in an int field, and kernel
    # sizes are not rounded; an int is a float.
    @pytest.mark.parametrize("field, value", [
        ("heads", True), ("gat_layers", True), ("epochs", 2.5), ("d", 32.0),
        ("kernel_sizes", (2.7,)), ("lr", True), ("fusion", 1),
    ])
    def test_mistyped_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be "):
            TrainConfig(**{field: value})
        with pytest.raises(ValueError, match=f"{field} must be "):
            TrainConfig.from_dict({field: list(value) if isinstance(value, tuple) else value})

    def test_int_is_a_float(self):
        assert TrainConfig(lr=1, dropout=0).lr == 1.0

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=1)
        with pytest.raises(ValueError, match="sum to 1"):
            TrainConfig(train_frac=0.5, val_frac=0.1, test_frac=0.2)
        with pytest.raises(ValueError, match="fusion"):
            TrainConfig(fusion="nope")
        with pytest.raises(ValueError, match="token_len"):
            TrainConfig(d=10, token_len=3)
        with pytest.raises(ValueError, match="token_len"):
            TrainConfig(token_len=0)
        for kernels in [(0, 3), (-2, 3), (), (3, 3)]:
            with pytest.raises(ValueError, match="kernel_sizes"):
                TrainConfig(kernel_sizes=kernels)
        with pytest.raises(ValueError, match="connect_kinds"):
            TrainConfig(connect_kinds="nope")
        floats = ("lr", "lr_decay", "tau_scl", "tau_cmca", "lambda1", "lambda2",
                  "lambda3", "lambda4", "gat_leaky_slope")
        for name in floats:
            for bad in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ValueError, match=name):
                    TrainConfig(**{name: bad})
        for fractions, bad in [
            ((1.2, -0.1, -0.1), "train_frac"),
            ((-0.1, 1.2, -0.1), "train_frac"),
            ((0.6, 0.5, -0.1), "test_frac"),
            ((0.5, float("nan"), 0.5), "val_frac"),
        ]:
            with pytest.raises(ValueError, match=bad):
                TrainConfig(train_frac=fractions[0], val_frac=fractions[1], test_frac=fractions[2])
        with pytest.raises(ValueError, match="heads"):
            TrainConfig(heads=0)
        with pytest.raises(ValueError, match="d must be >= the number of kernel sizes 3, got 2"):
            TrainConfig(d=2, token_len=1)
