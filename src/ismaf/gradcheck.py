"""Gradient integrity suite: central-difference checks for every loss term
and for the full composite objective on a small multimodal batch.

Each check builds a tiny, fully deterministic problem where the inputs of
interest are registered as parameters, then compares analytic gradients
against central differences entry by entry."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bridging, fusion
from .autodiff import ParamStore, grad_check
from .config import TrainConfig
from .data import CommentRecord, DatasetBundle, PostRecord, UserRecord
from .model import IsmafModel

TOLERANCE = 1e-4


@dataclass
class CheckResult:
    name: str
    max_rel_error: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < TOLERANCE


def check_scl(seed: int) -> CheckResult:
    store = ParamStore(seed=seed)
    store.create("features", (4, 9))
    labels = [0, 1, 0, 1]
    err = grad_check(lambda p: bridging.scl_loss(p["features"], labels, 0.5), store)
    return CheckResult("supervised-contrastive", err)


def check_cmca(seed: int) -> CheckResult:
    store = ParamStore(seed=seed)
    store.create("z", (4, 5))
    store.create("r_g", (4, 5))
    err = grad_check(lambda p: bridging.cmca_loss(p["z"], p["r_g"], 0.5), store)
    return CheckResult("cross-modal-alignment", err)


def check_ml(seed: int) -> CheckResult:
    store = ParamStore(seed=seed)
    bridging.create_mutual_params(store, d=4)
    store.create("z", (4, 4))
    store.create("r_g", (4, 4))

    def loss(params):
        e_z, e_g = bridging.project_common(params["z"], params["r_g"], params)
        log_p_z, log_p_g = bridging.label_distributions(e_z, e_g, params)
        return bridging.mutual_learning_loss(log_p_z, log_p_g)

    return CheckResult("mutual-learning", grad_check(loss, store))


def check_af(seed: int) -> CheckResult:
    store = ParamStore(seed=seed)
    fusion.create_fusion_params(store, d=4)
    store.create("z_tv", (4, 4))
    store.create("z_vt", (4, 4))
    store.create("r_g", (4, 4))

    def loss(params):
        _, l_af = fusion.adaptive_fuse(params["z_tv"], params["z_vt"], params["r_g"], params)
        return l_af

    return CheckResult("adaptive-fusion", grad_check(loss, store))


def check_ce(seed: int) -> CheckResult:
    store = ParamStore(seed=seed)
    fusion.create_classifier_params(store, d=5)
    store.create("x_fuse", (4, 5))
    labels = [1, 0, 1, 1]

    def loss(params):
        return fusion.ce_loss(fusion.classify(params["x_fuse"], params), labels)

    return CheckResult("cross-entropy", grad_check(loss, store))


def _tiny_dataset(seed: int) -> DatasetBundle:
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, 33]))
    users = [UserRecord("u0"), UserRecord("u1")]
    posts = []
    comments = []
    for i in range(4):
        pid = f"p{i}"
        posts.append(
            PostRecord(
                id=pid,
                tokens=[int(t) for t in rng.integers(1, 10, size=5)],
                visual_feat=rng.normal(size=3),
                user_id=users[i % 2].id,
                label=i % 2,
            )
        )
        comments.append(
            CommentRecord(
                id=f"c{i}",
                tokens=[int(t) for t in rng.integers(1, 10, size=4)],
                user_id=users[(i + 1) % 2].id,
                post_id=pid,
            )
        )
    return DatasetBundle(posts, comments, users)


def composite_config(seed: int) -> TrainConfig:
    return TrainConfig(
        d=6, heads=3, batch_size=4, epochs=1, token_len=2,
        kernel_sizes=(2, 3), gat_layers=1, theta=0.4, seed=seed,
        dropout=0.0,
    )


def check_composite(seed: int) -> CheckResult:
    """Full pipeline gradient check: every parameter of the model against the
    overall weighted loss on a 4-post batch."""
    dataset = _tiny_dataset(seed)
    model = IsmafModel(composite_config(seed), dataset)
    post_ids = [p.id for p in dataset.posts]

    def loss(params):
        return model.forward(params, post_ids).total

    return CheckResult("composite-objective", grad_check(loss, model.store))


def run_suite(seed: int) -> list[CheckResult]:
    return [
        check_scl(seed),
        check_cmca(seed),
        check_ml(seed),
        check_af(seed),
        check_ce(seed),
        check_composite(seed),
    ]
