"""Bridging the intrinsic and social modalities: supervised contrastive
enhancement, self- and co-attention over token-lifted features, cross-modal
consistency alignment, and mutual learning between the two branch classifiers.

Attention operates on a token lift: each d-vector is reshaped into
``token_len`` tokens of d/token_len entries, attended, and mean-pooled back
to d.  It takes a batch of rows at once and attends within each row only,
as one tape op (``autodiff.token_attention``) whose softmax runs over one
(row, head) pair's ``token_len`` tokens.  Of the ``TrainConfig`` values,
attention takes only the head count: the token and inner widths are read
from the query projection, d from the output projection, and ``token_len``
is d over the token width.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor

log = logging.getLogger(__name__)


def _projection_shapes(d: int, heads: int, token_len: int) -> tuple[int, int]:
    """Token width and inner width of the attention projections.  The head
    count need not divide the token width (e.g. d=300, H=8); attention
    projects up to the next multiple internally."""
    token_dim = d // token_len
    return token_dim, heads * math.ceil(token_dim / heads)


def create_attention_params(store: ParamStore, d: int, heads: int, token_len: int):
    token_dim, inner = _projection_shapes(d, heads, token_len)
    for m in ("T", "V"):
        for proj in ("wq", "wk", "wv"):
            store.create(f"attn.{m}.{proj}", (token_dim, inner))
        store.create(f"attn.{m}.wo", (inner, d))
    store.create("attn.TV.wo", (inner, d))
    store.create("attn.VT.wo", (inner, d))


def create_fusion_attention_params(store: ParamStore, d: int, heads: int, token_len: int):
    """Extra projection set for the IS-att fusion alternate."""
    token_dim, inner = _projection_shapes(d, heads, token_len)
    for proj in ("wq", "wk", "wv"):
        store.create(f"attn.F.{proj}", (token_dim, inner))
    store.create("attn.F.wo", (inner, d))


def attend(x_query, x_kv, wq, wk, wv, wo, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention between token-lifted rows.

    ``x_query`` and ``x_kv`` are matching [N, d] batches; row i of the
    queries attends to the tokens of row i of ``x_kv`` only.  The token
    width and the inner width are the shape of ``wq``, d is the width of
    ``wo``, and the ``heads`` heads share the inner width equally.  Returns
    [N, d]: per row, the token mean of the projected head outputs.
    """
    x_query, x_kv = ad.as_tensor(x_query), ad.as_tensor(x_kv)
    d = wo.shape[1]
    if x_query.ndim != 2 or x_query.shape != x_kv.shape or x_query.shape[1] != d:
        raise ad.ShapeError(
            f"attention expects two matching [N, {d}] batches, "
            f"got {x_query.shape} and {x_kv.shape}"
        )
    return ad.token_attention(x_query, x_kv, wq, wk, wv, wo, heads)


def self_attention(r_m, modality: str, params, heads: int) -> Tensor:
    """Augment a batch of unimodal features [N, d] with multi-head
    self-attention."""
    if modality not in ("T", "V"):
        raise ValueError(f"modality must be 'T' or 'V', got {modality!r}")
    p = f"attn.{modality}"
    return attend(
        r_m, r_m, params[f"{p}.wq"], params[f"{p}.wk"], params[f"{p}.wv"],
        params[f"{p}.wo"], heads,
    )


def co_attention(z_t, z_v, params, heads: int) -> tuple[Tensor, Tensor]:
    """Paired cross-attention over two [N, d] batches: text queries against
    visual keys/values and vice versa, each with its own output
    projection."""
    z_tv = attend(
        z_t, z_v, params["attn.T.wq"], params["attn.V.wk"],
        params["attn.V.wv"], params["attn.TV.wo"], heads,
    )
    z_vt = attend(
        z_v, z_t, params["attn.V.wq"], params["attn.T.wk"],
        params["attn.T.wv"], params["attn.VT.wo"], heads,
    )
    return z_tv, z_vt


def intrinsic_rep(z_tv, z_vt) -> Tensor:
    """Average the two co-attention vectors."""
    return ad.scale(ad.add(z_tv, z_vt), 0.5)


# ---------------------------------------------------------------------------
# supervised contrastive enhancement


def scl_loss(features, labels, tau: float) -> Tensor:
    """Supervised contrastive loss over row-normalized fused features.

    Positives share the anchor's label (anchor excluded); the denominator
    runs over all non-anchor samples.  Anchors without positives are
    skipped; if every anchor is skipped the loss is 0 and a warning is
    logged.
    """
    features = ad.as_tensor(features)
    labels = np.asarray(labels)
    n = features.shape[0]
    if n < 2:
        raise ValueError(f"supervised contrastive loss needs a batch of >= 2, got {n}")
    if features.ndim != 2 or len(labels) != n:
        raise ad.ShapeError(
            f"features [{features.shape}] and labels [{len(labels)}] disagree"
        )
    return _contrastive(features, labels, tau)


def _contrastive(features: Tensor, labels: np.ndarray, tau: float) -> Tensor:
    """The body of ``scl_loss`` past its input checks; ``cmca_loss`` runs it
    on the stacked pairs."""
    n = features.shape[0]
    offdiag = ~np.eye(n, dtype=bool)
    pos = (labels[:, None] == labels[None, :]) & offdiag
    pos_counts = pos.sum(axis=1)
    active = pos_counts > 0
    if not active.any():
        log.warning("supervised contrastive loss skipped: no anchor has a positive")
        return Tensor(0.0)

    f = ad.row_l2_normalize(features)
    sim = ad.scale(ad.matmul(f, ad.transpose(f)), 1.0 / tau)
    # Shift by the off-diagonal row max, exact for the ratio; a diagonal of 0 cannot overflow exp.
    shift = np.where(offdiag, sim.data, -np.inf).max(axis=1, keepdims=True)
    shifted = ad.sub(sim, Tensor(np.where(offdiag, shift, sim.data)))
    expvals = ad.mul(ad.exp(shifted), Tensor(offdiag.astype(float)))
    # [n], each >= 1: a row's largest off-diagonal term is exp(0).
    log_denom = ad.log(ad.sum_(expvals, axis=1))
    log_prob = ad.sub(shifted, ad.reshape(log_denom, (n, 1)))

    weights = np.zeros((n, n))
    weights[active] = pos[active] / pos_counts[active, None]
    return ad.scale(ad.sum_(ad.mul(log_prob, Tensor(weights))), -1.0 / active.sum())


# ---------------------------------------------------------------------------
# cross-modal consistency alignment


def cmca_loss(z, r_g, tau: float) -> Tensor:
    """Contrastive alignment between intrinsic and social representations.

    This is the supervised contrastive loss over the 2N stacked rows
    ``[z; r_g]`` with each row's partner as its only positive: for each
    anchor the matched pair is the numerator, and the denominator sums
    same-side similarities over k != i plus cross-side similarities over
    all k.  Both directions are averaged over 2N.
    """
    z, r_g = ad.as_tensor(z), ad.as_tensor(r_g)
    n = z.shape[0]
    if n == 0:
        raise ValueError("cross-modal alignment needs a non-empty batch")
    if z.shape != r_g.shape:
        raise ad.ShapeError(f"batch shapes disagree: {z.shape} vs {r_g.shape}")
    return _contrastive(ad.concat([z, r_g], axis=0), np.tile(np.arange(n), 2), tau)


# ---------------------------------------------------------------------------
# mutual learning


def create_mutual_params(store: ParamStore, d: int):
    # Each branch owns its projection and classifier head; the KL term
    # couples the two predictive distributions.
    store.create("ml.z.proj_w", (d, d))
    store.create("ml.z.proj_b", (d,), init="zeros")
    store.create("ml.g.proj_w", (d, d))
    store.create("ml.g.proj_b", (d,), init="zeros")
    store.create("ml.z.fc_w", (d, 2))
    store.create("ml.z.fc_b", (2,), init="zeros")
    store.create("ml.g.fc_w", (d, 2))
    store.create("ml.g.fc_b", (2,), init="zeros")


def project_common(z, r_g, params) -> tuple[Tensor, Tensor]:
    """Project both branches into the shared latent space with relu."""
    e_z = ad.relu(ad.linear(ad.as_tensor(z), params["ml.z.proj_w"], params["ml.z.proj_b"]))
    e_g = ad.relu(ad.linear(ad.as_tensor(r_g), params["ml.g.proj_w"], params["ml.g.proj_b"]))
    return e_z, e_g


def label_distributions(e_z, e_g, params) -> tuple[Tensor, Tensor]:
    """Per-branch class log-probabilities, two [N, 2] batches, from the
    common-space embeddings."""
    log_p_z = ad.log_softmax_rows(ad.linear(e_z, params["ml.z.fc_w"], params["ml.z.fc_b"]))
    log_p_g = ad.log_softmax_rows(ad.linear(e_g, params["ml.g.fc_w"], params["ml.g.fc_b"]))
    return log_p_z, log_p_g


def mutual_learning_loss(log_p_z, log_p_g) -> Tensor:
    """Symmetric KL between the two branch distributions, averaged over the
    N rows: ``0.5/N * sum((p_z - p_g) * (log p_z - log p_g))``.  Takes the
    two matching [N, k] batches of log-probabilities (``label_distributions``)."""
    log_p_z, log_p_g = ad.as_tensor(log_p_z), ad.as_tensor(log_p_g)
    if log_p_z.ndim != 2 or log_p_z.shape != log_p_g.shape:
        raise ad.ShapeError(
            f"mutual learning expects two matching [N, k] distributions, "
            f"got {log_p_z.shape} and {log_p_g.shape}"
        )
    n = log_p_z.shape[0]
    gap = ad.mul(ad.sub(ad.exp(log_p_z), ad.exp(log_p_g)), ad.sub(log_p_z, log_p_g))
    return ad.scale(ad.sum_(gap), 0.5 / n)
