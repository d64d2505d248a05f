"""End-to-end model assembly: parameter creation, per-batch forward pass over
all five loss components, and the classification-only path used at eval time.

A batch maps its post ids to graph rows once (``IsmafModel.rows``); posts
fill the graph's first rows, so every stage indexes the post arrays built
with the model by those rows.

The social graph's structure is frozen: it is built from the initial
token-embedding means when a model is created, and a loaded model takes the
edges its checkpoint stored (``serialize``); node features are recomputed
from the current embedding table every step so gradients reach it through
the GAT stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import bridging, encoders, fusion
from .autodiff import ParamStore, Tensor
from .config import TrainConfig
from .data import DatasetBundle


@dataclass
class ForwardResult:
    probs: np.ndarray  # [N, 2] class distribution per post
    total: Tensor | None
    breakdown: fusion.LossBreakdown | None


class IsmafModel:
    """Parameters plus the fixed graph/context needed to run the pipeline.
    ``tokens``, ``visual`` and ``labels`` hold the posts in dataset order;
    the tokens are padded with 0 to max(longest post, largest kernel)."""

    def __init__(self, config: TrainConfig, dataset: DatasetBundle, edges=None):
        """``edges``: the ``(src, dst)`` of a graph built before for this
        config and these records, taken in place of the similarity join."""
        if not dataset.posts:
            raise ValueError("dataset has no posts")
        self.config = config
        self.dataset = dataset
        # The posts are the first texts of the records' graph inputs.
        inputs = dataset.graph_inputs
        lengths = inputs.lengths[: len(dataset.posts)]
        self.tokens = np.zeros((lengths.size, max(lengths.max(), *config.kernel_sizes)), dtype=np.int64)
        self.tokens[np.arange(self.tokens.shape[1]) < lengths[:, None]] = inputs.tokens[: lengths.sum()]
        self.visual = np.stack([p.visual_feat for p in dataset.posts])
        self.labels = np.array([p.label for p in dataset.posts])

        self.store = ParamStore(seed=config.seed)
        encoders.create_text_params(self.store, dataset.vocab_size, config.d, config.kernel_sizes)
        encoders.create_visual_params(self.store, self.visual.shape[1], config.d)
        encoders.create_gat_params(self.store, config.d, config.heads, config.gat_layers)
        bridging.create_attention_params(self.store, config.d, config.heads, config.token_len)
        bridging.create_mutual_params(self.store, config.d)
        fusion.create_classifier_params(self.store, config.d)
        if config.fusion == "af":
            fusion.create_fusion_params(self.store, config.d)
        elif config.fusion == "is-concat":
            fusion.create_concat_fusion_params(self.store, config.d)
        else:
            bridging.create_fusion_attention_params(self.store, config.d, config.heads, config.token_len)

        self.graph = encoders.build_social_graph(
            inputs,
            self.store.value("text.embed"),
            theta=config.theta,
            connect_kinds=config.connect_kinds,
            edges=edges,
        )

    # -- graph plumbing ----------------------------------------------------

    def rows(self, post_ids) -> np.ndarray:
        """Graph rows of ``post_ids``, which index the post arrays too; the
        id of a comment, a user or nothing raises ``KeyError``."""
        n_posts = self.labels.size
        rows = np.array([self.graph.index.get(pid, n_posts) for pid in post_ids], dtype=np.int64)
        outside = rows >= n_posts
        if outside.any():
            raise KeyError(f"unknown post id {post_ids[int(np.argmax(outside))]!r}")
        return rows

    def social_batch(self, params, rows) -> Tensor:
        """Social vectors [N, d] of the given graph rows after the GAT stack.

        The layers run only over the edges whose messages can reach these
        rows, which gives the same rows as running them over every edge.
        The first layer takes its input rows as the pair of their token
        weights and the embedding table, whose product they are.
        """
        outputs, positions = np.unique(rows, return_inverse=True)
        cfg = self.config
        inputs, blocks = encoders.receptive_blocks(self.graph, outputs, cfg.gat_layers)
        weights = Tensor(self.graph.token_weights[inputs])
        if not blocks:
            return ad.gather_rows(ad.matmul(weights, params["text.embed"]), positions)
        out = (weights, params["text.embed"])
        for layer, block in enumerate(blocks):
            out = encoders.signed_gat_layer(
                out, block, params, cfg.heads, cfg.gat_leaky_slope, layer=layer
            )
        return ad.gather_rows(out, positions)

    # -- forward passes ------------------------------------------------------

    def _unimodal(self, params, rows, rng, zero_social):
        cfg = self.config
        r_t = encoders.encode_text_batch(self.tokens[rows], params, cfg.kernel_sizes)
        r_v = encoders.project_visual(Tensor(self.visual[rows]), params["visual.w"], params["visual.b"])
        if zero_social:
            r_g = Tensor(np.zeros((rows.size, cfg.d)))
        else:
            r_g = self.social_batch(params, rows)
        if rng is not None:
            r_t = ad.dropout(r_t, cfg.dropout, rng)
            r_v = ad.dropout(r_v, cfg.dropout, rng)
            r_g = ad.dropout(r_g, cfg.dropout, rng)
        return r_t, r_v, r_g

    def forward(
        self,
        params,
        post_ids,
        rng: np.random.Generator | None = None,
        zero_social: bool = False,
        with_losses: bool = True,
    ) -> ForwardResult:
        """Run the pipeline on a batch of posts, given by id.  Dropout runs,
        drawing from ``rng``, only when an ``rng`` is given."""
        cfg = self.config
        rows = self.rows(post_ids)
        r_t, r_v, r_g = self._unimodal(params, rows, rng, zero_social)
        z_t = bridging.self_attention(r_t, "T", params, cfg.heads)
        z_v = bridging.self_attention(r_v, "V", params, cfg.heads)
        z_tv_b, z_vt_b = bridging.co_attention(z_t, z_v, params, cfg.heads)
        z_b = bridging.intrinsic_rep(z_tv_b, z_vt_b)

        if cfg.fusion == "af":
            x_fuse, l_af = fusion.adaptive_fuse(z_tv_b, z_vt_b, r_g, params)
        else:
            x_fuse = fusion.fuse_alternate(cfg.fusion, z_b, r_g, params, cfg.heads)
            l_af = None
        if rng is not None:
            x_fuse = ad.dropout(x_fuse, cfg.dropout, rng)
        log_probs = fusion.classify(x_fuse, params)
        probs = np.exp(log_probs.data)

        if not with_losses:
            return ForwardResult(probs=probs, total=None, breakdown=None)

        labels = self.labels[rows]
        l_ce = fusion.ce_loss(log_probs, labels)
        # A term of weight 0 is left out of the objective and its column
        # reads 0; scl, cmca and ml are then not computed at all.
        l_scl = l_cmca = l_ml = None
        if cfg.lambda1:
            fused_initial = ad.concat([r_t, r_v, r_g], axis=1)
            l_scl = bridging.scl_loss(fused_initial, labels, cfg.tau_scl)
        if cfg.lambda2:
            l_cmca = bridging.cmca_loss(z_b, r_g, cfg.tau_cmca)
        if cfg.lambda3:
            e_z, e_g = bridging.project_common(z_b, r_g, params)
            log_p_z, log_p_g = bridging.label_distributions(e_z, e_g, params)
            l_ml = bridging.mutual_learning_loss(log_p_z, log_p_g)
        if not cfg.lambda4:
            l_af = None

        lambdas = (cfg.lambda1, cfg.lambda2, cfg.lambda3, cfg.lambda4)
        total = fusion.overall_loss(l_ce, l_scl, l_cmca, l_ml, l_af, lambdas)
        # A non-finite term passes through, so training can report it.
        breakdown = fusion.LossBreakdown(
            *(0.0 if t is None else float(t.data) for t in (l_ce, l_scl, l_cmca, l_ml, l_af, total)),
            lambdas=tuple(float(l) for l in lambdas),
        )
        return ForwardResult(probs=probs, total=total, breakdown=breakdown)

    def predict(self, post_ids, zero_social: bool = False) -> np.ndarray:
        """Deterministic class predictions from the current parameters."""
        result = self.forward(
            self.store.constants(), post_ids,
            zero_social=zero_social, with_losses=False,
        )
        return fusion.predict_labels(result.probs)

    def pin_constants(self):
        """Re-zero the padding embedding row after an optimizer step."""
        embed = self.store.value("text.embed")
        if embed[0].any():
            embed = embed.copy()
            embed[0] = 0.0
            self.store.assign("text.embed", embed)
