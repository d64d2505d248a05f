"""Adaptive fusion through an encoder-decoder bottleneck, the classification
head, and the weighted overall objective, plus the IS-concat / IS-att fusion
alternates used by ablations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor

FUSION_KINDS = ("af", "is-concat", "is-att")


@dataclass
class LossBreakdown:
    """Scalar loss components of one step or epoch, with their weights."""

    ce: float
    scl: float
    cmca: float
    ml: float
    af: float
    total: float
    lambdas: tuple[float, float, float, float]

    def as_dict(self):
        return {
            "ce": self.ce, "scl": self.scl, "cmca": self.cmca,
            "ml": self.ml, "af": self.af, "total": self.total,
        }


def create_fusion_params(store: ParamStore, d: int):
    store.create("fuse.enc_w", (3 * d, d))
    store.create("fuse.enc_b", (d,), init="zeros")
    store.create("fuse.dec_w", (d, 3 * d))
    store.create("fuse.dec_b", (3 * d,), init="zeros")


def create_concat_fusion_params(store: ParamStore, d: int):
    store.create("fuse.cat_w", (2 * d, d))
    store.create("fuse.cat_b", (d,), init="zeros")


def create_classifier_params(store: ParamStore, d: int):
    store.create("clf.w", (d, 2))
    store.create("clf.b", (2,), init="zeros")


def adaptive_fuse(z_tv, z_vt, r_g, params) -> tuple[Tensor, Tensor]:
    """Compress the concatenated modality block through a tanh bottleneck.

    Returns the bottleneck (the fused representation) and the reconstruction
    loss, squared error summed over coordinates and averaged over the batch.
    """
    z_tv, z_vt, r_g = ad.as_tensor(z_tv), ad.as_tensor(z_vt), ad.as_tensor(r_g)
    if not (z_tv.shape == z_vt.shape == r_g.shape):
        raise ad.ShapeError(
            f"fusion inputs disagree: {z_tv.shape}, {z_vt.shape}, {r_g.shape}"
        )
    x = ad.concat([z_tv, z_vt, r_g], axis=1)
    x_fuse = ad.tanh(ad.linear(x, params["fuse.enc_w"], params["fuse.enc_b"]))
    x_hat = ad.linear(x_fuse, params["fuse.dec_w"], params["fuse.dec_b"])
    diff = ad.sub(x_hat, x)
    n = x.shape[0]
    loss = ad.scale(ad.sum_(ad.mul(diff, diff)), 1.0 / n)
    return x_fuse, loss


def fuse_alternate(kind: str, z, r_g, params, heads: int) -> Tensor:
    """Ablation fusion strategies over the intrinsic and social [N, d]
    batches.

    ``is-concat`` concatenates and linearly maps to d; ``is-att`` runs one
    cross-attention of z over the token-lifted r_g, pooled back to d.
    """
    if kind not in ("is-concat", "is-att"):
        raise ValueError(f"unknown fusion kind {kind!r}")
    z, r_g = ad.as_tensor(z), ad.as_tensor(r_g)
    if kind == "is-concat":
        joined = ad.concat([z, r_g], axis=1)
        return ad.linear(joined, params["fuse.cat_w"], params["fuse.cat_b"])
    return ad.token_attention(
        z, r_g, params["attn.F.wq"], params["attn.F.wk"],
        params["attn.F.wv"], params["attn.F.wo"], heads,
    )


def classify(x_fuse, params) -> Tensor:
    """Two-class log-probabilities per row, [N, 2]; column 1 is the log of
    the rumor probability."""
    return ad.log_softmax_rows(ad.linear(ad.as_tensor(x_fuse), params["clf.w"], params["clf.b"]))


def predict_labels(probs: np.ndarray) -> np.ndarray:
    """Argmax with ties resolved to class 0 (non-rumor)."""
    probs = np.asarray(probs)
    return (probs[:, 1] > probs[:, 0]).astype(np.int64)


def ce_loss(log_probs, labels) -> Tensor:
    """Cross-entropy of the N ``labels``, mean-reduced.

    ``log_probs`` is the classifier's [N, 2] output (``classify``); each
    row's loss is minus the log-probability of its label's column.
    """
    log_probs = ad.as_tensor(log_probs)
    labels = np.asarray(labels, dtype=np.float64)
    if not np.isin(labels, (0.0, 1.0)).all():
        raise ValueError(f"labels must be 0 or 1, got {sorted(set(labels.tolist()))}")
    n = labels.shape[0]
    if log_probs.shape != (n, 2):
        raise ad.ShapeError(
            f"ce_loss expects the classifier's [{n}, 2] output for {n} labels, "
            f"got {log_probs.shape}"
        )
    onehot = np.stack([1.0 - labels, labels], axis=1)
    return ad.scale(ad.sum_(ad.mul(Tensor(onehot), log_probs)), -1.0 / n)


def overall_loss(ce, scl, cmca, ml, af, lambdas) -> Tensor:
    """Weighted sum of the five components; a None component counts as 0."""
    lambdas = tuple(float(l) for l in lambdas)
    if len(lambdas) != 4 or any(l < 0 for l in lambdas):
        raise ValueError(f"need four non-negative weights, got {lambdas}")
    total = ad.as_tensor(ce)
    for weight, part in zip(lambdas, (scl, cmca, ml, af)):
        if part is not None:
            total = ad.add(total, ad.scale(part, weight))
    return total

