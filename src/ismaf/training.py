"""The training loop and evaluation harness: mini-batch epochs with Adam and
multiplicative learning-rate decay, best-validation model selection, metric
reports, and the lambda sweep driver."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import ParamStore, Tape
from .config import TrainConfig
from .data import DatasetBundle, split_dataset
from .fusion import LossBreakdown
from .model import IsmafModel

log = logging.getLogger(__name__)


class TrainingDiverged(RuntimeError):
    """Raised when the loss or a gradient leaves the finite range; carries
    the best parameter snapshot (before the first validation, the
    parameters the diverging step started from) and the loss history
    collected so far."""

    def __init__(self, message, checkpoint, history):
        super().__init__(message)
        self.checkpoint = checkpoint
        self.history = history


@dataclass
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    tn: int
    fn: int

    @classmethod
    def from_predictions(cls, predicted, actual) -> "MetricsReport":
        predicted = np.asarray(predicted)
        actual = np.asarray(actual)
        tp = int(((predicted == 1) & (actual == 1)).sum())
        fp = int(((predicted == 1) & (actual == 0)).sum())
        tn = int(((predicted == 0) & (actual == 0)).sum())
        fn = int(((predicted == 0) & (actual == 1)).sum())
        total = tp + fp + tn + fn
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return cls(
            accuracy=(tp + tn) / total if total else 0.0,
            precision=precision, recall=recall, f1=f1,
            tp=tp, fp=fp, tn=tn, fn=fn,
        )

    def format(self) -> str:
        lines = [
            f"accuracy = {self.accuracy:.4f}",
            f"precision = {self.precision:.4f}",
            f"recall = {self.recall:.4f}",
            f"f1 = {self.f1:.4f}",
            f"tp = {self.tp}",
            f"fp = {self.fp}",
            f"tn = {self.tn}",
            f"fn = {self.fn}",
        ]
        return "\n".join(lines) + "\n"


@dataclass
class EpochStats:
    epoch: int
    losses: LossBreakdown
    val_accuracy: float


@dataclass
class TrainResult:
    model: IsmafModel
    history: list[EpochStats] = field(default_factory=list)
    best_epoch: int = -1
    best_val_accuracy: float = 0.0


ADAM_SLICE = 65_536  # elements per slice of an Adam update, so its temporaries stay in cache
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction and the ``ADAM_BETA1``, ``ADAM_BETA2`` and
    ``ADAM_EPS`` constants; the learning rate is supplied per step so
    epoch-level decay stays outside the optimizer.

    A step updates the moments in place, over slices of at most
    ``ADAM_SLICE`` elements, with the textbook formula's elementwise ops on
    the same operands in the same order, so it is bitwise that formula.
    Each parameter's new value is a fresh array, so an array that
    ``store.value`` returned earlier is never changed."""

    def __init__(self, store: ParamStore):
        self.store = store
        self.t = 0
        # C-contiguous, so their flat views below are views, not copies.
        self._m = {name: np.zeros(val.shape) for name, val in store.items()}
        self._v = {name: np.zeros(val.shape) for name, val in store.items()}

    def step(self, grads: dict[str, np.ndarray], lr: float):
        self.t += 1
        b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
        correct1 = 1.0 - b1**self.t
        correct2 = 1.0 - b2**self.t
        buf = np.empty((2, min(ADAM_SLICE, max((g.size for g in grads.values()), default=0))))
        for name, g in grads.items():
            p = self.store.value(name)
            new = np.empty(p.shape)
            m, v, out = self._m[name].reshape(-1), self._v[name].reshape(-1), new.reshape(-1)
            g, p = np.ravel(g), np.ravel(p)
            for a in range(0, out.size, ADAM_SLICE):
                s = slice(a, a + ADAM_SLICE)
                t, u = buf[:, : out[s].size]
                # m = b1*m + (1-b1)*g and v = b2*v + (1-b2)*(g*g)
                np.multiply(g[s], 1 - b1, out=t)
                m[s] *= b1
                m[s] += t
                np.multiply(g[s], g[s], out=t)
                t *= 1 - b2
                v[s] *= b2
                v[s] += t
                # p - lr * ((m/correct1) / (sqrt(v/correct2) + eps))
                np.divide(m[s], correct1, out=u)
                np.divide(v[s], correct2, out=t)
                np.sqrt(t, out=t)
                t += eps
                u /= t
                u *= lr
                np.subtract(p[s], u, out=out[s])
            self.store.assign(name, new)


def _epoch_batches(ids, batch_size, rng):
    """Shuffled batches without replacement; a trailing singleton is folded
    into the previous batch so contrastive terms always see >= 2 samples."""
    order = list(ids)
    rng.shuffle(order)
    batches = [order[i : i + batch_size] for i in range(0, len(order), batch_size)]
    if len(batches) > 1 and len(batches[-1]) == 1:
        batches[-2].extend(batches.pop())
    return batches


def _mean_breakdown(parts: list[LossBreakdown]) -> LossBreakdown:
    n = len(parts)
    means = {key: sum(getattr(p, key) for p in parts) / n for key in parts[0].as_dict()}
    return LossBreakdown(**means, lambdas=parts[0].lambdas)


def train(config: TrainConfig, dataset: DatasetBundle) -> TrainResult:
    """Run the full objective for the configured number of epochs and return
    the parameter state with the best validation accuracy (ties keep the
    earlier epoch); with ``epochs=0`` the initial parameters.

    A step holds only what it still reads: its tape, leaves, gradients and
    forward result are the locals of ``step`` and are freed on its return,
    before the next step's forward, and ``Tape.backward`` keeps only the
    leaves' gradients.  The parameters are copied only after a validation
    that improves on the best so far.  A non-finite loss, or a non-finite
    gradient before Adam sees it, raises ``TrainingDiverged`` with the best
    snapshot, or with the current parameters before the first validation.
    """
    if dataset.split is None:
        dataset = split_dataset(dataset, config.fractions, config.seed)
    train_ids = dataset.split_ids("train")
    if len(train_ids) < 2:
        raise ValueError(f"training split too small: {len(train_ids)} posts")
    model = IsmafModel(config, dataset)

    optimizer = Adam(model.store)
    best_state = None
    best_val = -1.0
    best_epoch = -1
    history: list[EpochStats] = []

    def diverged(message: str) -> TrainingDiverged:
        checkpoint = model.store.snapshot() if best_state is None else best_state
        return TrainingDiverged(message, checkpoint=checkpoint, history=history)

    def step(batch, lr, rng, where: str) -> LossBreakdown:
        tape = Tape()
        params = model.store.watch(tape)
        result = model.forward(params, batch, rng=rng)
        if not np.isfinite(result.breakdown.total):
            terms = result.breakdown.as_dict()
            bad = [k for k, v in terms.items() if k != "total" and not np.isfinite(v)]
            raise diverged(f"non-finite loss at {where} in {', '.join(bad) or 'the weighted total'}: {terms}")
        tape.backward(result.total)
        grads = {name: tape.grad(t) for name, t in params.items()}
        for name, g in grads.items():
            # A non-finite entry makes g.g non-finite, and the exact check
            # tells apart a g.g that only overflows; the screen costs half
            # of isfinite's pass over every gradient.
            flat = g.ravel()
            if not np.isfinite(np.dot(flat, flat)) and not np.isfinite(g).all():
                raise diverged(f"non-finite gradient at {where} in parameter {name}")
        optimizer.step(grads, lr)
        model.pin_constants()
        return result.breakdown

    for epoch in range(config.epochs):
        lr = config.lr * (config.lr_decay**epoch)
        shuffle_rng = np.random.default_rng(
            np.random.SeedSequence([config.seed & 0xFFFFFFFF, 101, epoch])
        )
        step_parts: list[LossBreakdown] = []
        for i, batch in enumerate(_epoch_batches(train_ids, config.batch_size, shuffle_rng)):
            dropout_rng = np.random.default_rng(
                np.random.SeedSequence([config.seed & 0xFFFFFFFF, 202, epoch, i])
            )
            step_parts.append(step(batch, lr, dropout_rng, f"epoch {epoch} step {i}"))

        val_report = evaluate(model, dataset, "val")
        history.append(
            EpochStats(epoch=epoch, losses=_mean_breakdown(step_parts), val_accuracy=val_report.accuracy)
        )
        if val_report.accuracy > best_val:
            best_val = val_report.accuracy
            best_epoch = epoch
            best_state = model.store.snapshot()
        log.debug(
            "epoch %d: loss %.4f, val acc %.4f", epoch,
            history[-1].losses.total, val_report.accuracy,
        )

    if best_state is not None:
        model.store.load_state(best_state)
    return TrainResult(
        model=model, history=history,
        best_epoch=best_epoch, best_val_accuracy=max(best_val, 0.0),
    )


def evaluate(
    model: IsmafModel,
    dataset: DatasetBundle,
    split: str,
    zero_social: bool = False,
) -> MetricsReport:
    """Deterministic metrics over one split; rumor (label 1) is the positive
    class.  ``zero_social`` replaces the social vector with zeros at
    inference, isolating the contribution of the graph branch.  The split
    runs as one batch, so the GAT walks its receptive field once."""
    ids = dataset.split_ids(split)
    if not ids:
        raise ValueError(f"split {split!r} is empty")
    predicted = model.predict(ids, zero_social=zero_social)
    actual = model.labels[model.rows(ids)]
    return MetricsReport.from_predictions(predicted, actual)


@dataclass
class SweepRow:
    lambda_value: float
    accuracy: float
    f1: float


def sweep_lambda(
    config: TrainConfig,
    dataset: DatasetBundle,
    lambda_index: int,
    values,
    epochs: int | None = None,
) -> list[SweepRow]:
    """Train once per candidate weight and report test accuracy and F1.

    ``epochs`` defaults to a fifth of the configured budget (at least 1),
    keeping the sweep affordable."""
    if lambda_index not in (1, 2, 3, 4):
        raise ValueError(f"lambda index must be 1..4, got {lambda_index}")
    budget = epochs if epochs is not None else max(1, config.epochs // 5)
    rows = []
    for value in values:
        cfg = replace(config, **{f"lambda{lambda_index}": float(value), "epochs": budget})
        result = train(cfg, dataset)
        report = evaluate(result.model, result.model.dataset, "test")
        rows.append(SweepRow(lambda_value=float(value), accuracy=report.accuracy, f1=report.f1))
    return rows


def parse_sweep_range(text: str) -> list[float]:
    """Parse ``start:stop:step`` into an inclusive list of values."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must look like start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if step <= 0 or stop < start:
        raise ValueError(f"bad range {text!r}")
    count = int(round((stop - start) / step))
    values = [round(start + i * step, 10) for i in range(count + 1)]
    if values[-1] > stop + 1e-9:
        values.pop()
    return values
