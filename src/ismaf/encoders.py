"""Unimodal encoders: text CNN, visual projection, and the social graph with
signed graph attention.

All encoders emit vectors of the shared feature dimension d.  Each takes
only the ``TrainConfig`` values its parameters cannot carry (the kernel
sizes, the head count, the leaky relu slope), checked once when the config
is built, and reads every shape from its parameters and inputs.  Graph
construction is a pure numpy function of the records and a token-embedding
table; the graph keeps each node's token weights, so a node's feature under
any table is its row of ``token_weights @ embed``.  Similarity edges come
from a row-tiled join that keeps only the pairs at or above the threshold,
so building never holds an [n_nodes, n_nodes] matrix.  The join screens
every pair with float32 cosines and settles in float64 only the pairs
whose float32 cosine lies in a band around the threshold, twice as wide
as float32's error bound, so it keeps a float64 join's edges while
nearly all of its arithmetic runs in float32.  Each GAT layer is one
tape op, ``ad.signed_gat``, so gradients reach the embedding table, and
runs over an edge block: the edges whose messages can reach the rows the
caller needs (``receptive_blocks``).  The first layer can take its input as its
rows' token weights and the embedding table, and then multiplies only the
table by its weights; every layer folds its attention vectors into W, so
each score is one product with the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, ShapeError, Tensor
from .data import text_tokens


# ---------------------------------------------------------------------------
# text CNN


def create_text_params(store: ParamStore, vocab_size: int, d: int, kernel_sizes):
    store.create("text.embed", (vocab_size, d))
    # Token id 0 is padding; its embedding row stays pinned at zero.
    embed = store.value("text.embed")
    embed[0] = 0.0
    # The d filters are spread over the kernel sizes as evenly as possible.
    base, extra = divmod(d, len(kernel_sizes))
    for i, k in enumerate(kernel_sizes):
        f = base + (1 if i < extra else 0)
        store.create(f"text.conv{k}.w", (k * d, f), fan=(k * d, f))
        store.create(f"text.conv{k}.b", (f,), init="zeros")


def encode_text_batch(tokens, params, kernel_sizes) -> Tensor:
    """Encode padded token rows [N, seq_len] into text features [N, d].

    The vocabulary and d are the shape of ``text.embed``, each kernel
    size's filter count is the width of its ``text.conv{k}.w``, and
    ``seq_len`` is the batch's width, at least the largest kernel size.
    Per kernel size k, ``ad.conv_max_pool`` convolves the batch's distinct
    tokens with the [k*d, f] conv weight and max-pools each post's windows;
    the pooled maps are concatenated across kernel sizes.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 2:
        raise ShapeError(f"token batch must be [N, seq_len], got {tokens.shape}")
    if tokens.size == 0:
        raise ValueError("empty token sequence")
    seq_len = tokens.shape[1]
    embed = params["text.embed"]
    vocab_size = embed.shape[0]
    if tokens.min() < 0 or tokens.max() >= vocab_size:
        raise ValueError(
            f"token id out of vocabulary range [0, {vocab_size}): "
            f"saw {tokens.min()}..{tokens.max()}"
        )
    if seq_len < max(kernel_sizes):
        raise ShapeError(
            f"token batch of width {seq_len} is narrower than the largest "
            f"kernel size {max(kernel_sizes)}"
        )
    vocab, inv = np.unique(tokens, return_inverse=True)
    inv = inv.reshape(tokens.shape)  # flat on numpy 1.x, shaped on 2.x
    emb = ad.gather_rows(embed, vocab)  # [U, d]
    pooled = [
        ad.conv_max_pool(emb, inv, params[f"text.conv{k}.w"], params[f"text.conv{k}.b"])
        for k in kernel_sizes
    ]
    return ad.concat(pooled, axis=1)


# ---------------------------------------------------------------------------
# visual projection


def create_visual_params(store: ParamStore, visual_dim: int, d: int):
    store.create("visual.w", (visual_dim, d))
    store.create("visual.b", (d,), init="zeros")


def project_visual(visual_feat, w, b) -> Tensor:
    """Fully connected projection of backbone features to d, with relu."""
    return ad.relu(ad.linear(ad.as_tensor(visual_feat), w, b))


# ---------------------------------------------------------------------------
# social graph


@dataclass
class SocialGraph:
    """Typed interaction graph over posts, comments and users.

    Edges are stored directed (each undirected pair in both directions, plus
    one self-loop per node).  The GAT layers run over ``EdgeBlock``s cut
    from these edges by ``receptive_blocks``.
    ``token_weights`` defines the node features: a text's row holds its
    token counts over its length, a user's row is the mean of the rows of
    the texts it wrote (zero when it wrote nothing), and the features under
    an embedding table are ``token_weights @ embed``.  The table is dense,
    but ``build_social_graph`` writes only its nonzero entries: one per
    distinct (text, token) pair, added again into the text's author's row.
    """

    node_ids: list[str]
    node_kinds: list[str]
    token_weights: np.ndarray  # [n_nodes, vocab]
    src: np.ndarray  # directed edge sources
    dst: np.ndarray  # directed edge destinations
    index: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.index:
            self.index = {nid: i for i, nid in enumerate(self.node_ids)}

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    def validate(self):
        """The invariants the GAT relies on, whichever way the edges came
        (the join, ``edges=`` or a checkpoint): endpoints name nodes, every
        node carries a self-loop, and every edge has its reverse."""
        n = self.n_nodes
        if self.src.shape != self.dst.shape or self.src.ndim != 1:
            raise ValueError(
                f"edge sources {self.src.shape} and destinations {self.dst.shape} "
                "must be 1-D arrays of one length"
            )
        if self.src.size and (
            min(self.src.min(), self.dst.min()) < 0 or max(self.src.max(), self.dst.max()) >= n
        ):
            raise ValueError("edge endpoint references a missing node")
        loops = set(self.src[self.src == self.dst].tolist())
        if loops != set(range(n)):
            raise ValueError("every node must carry a self-loop")
        # The keys src*n + dst sort to those of the reversed edges; at the
        # first difference the smaller key is an edge without its reverse.
        src, dst = np.asarray(self.src, dtype=np.int64), np.asarray(self.dst, dtype=np.int64)
        keys, reverse = np.sort(src * n + dst), np.sort(dst * n + src)
        if not np.array_equal(keys, reverse):
            at = np.argmax(keys != reverse)
            a, b = divmod(int(min(keys[at], reverse[at])), n)
            s, d = (a, b) if keys[at] < reverse[at] else (b, a)
            raise ValueError(
                f"the graph holds a one-way edge {s} -> {d} ({self.node_ids[s]} -> "
                f"{self.node_ids[d]}); every edge must have its reverse"
            )


SIM_TILE = 512  # rows per block of build_social_graph's similarity join
CONNECT_KINDS = ("all", "same-kind")


def check_theta(theta: float) -> None:
    """The similarity threshold lies in (-1, 1): at -1 every pair is an edge,
    and at 1 even identical features join only by rounding, as the 1e-12 in
    the join's unit rows keeps their dot below 1 unless the norm is ~1e4."""
    if not -1.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (-1, 1), got {theta}")


def _token_table(lengths, tokens, authors, n_nodes: int, vocab: int) -> np.ndarray:
    """``SocialGraph.token_weights``: ``n_nodes`` rows, the texts' first.  A
    text's row is its token counts over its length (``lengths`` per text,
    ``tokens`` all texts' tokens in order), and its author's row (``authors``
    per text) collects the mean of those rows.

    Only the nonzero (text, token) entries are written: the sorted flat keys
    text * vocab + token give each distinct entry and its count, and the
    entries go into their authors' rows in text order, so each author cell
    sums the terms of a row-wise add in its order, less its exact +0.0s.
    The entries are freed on return, before the similarity join.
    """
    n_texts = lengths.size
    cells = np.sort(np.repeat(np.arange(n_texts) * vocab, lengths) + tokens)
    first = np.flatnonzero(np.diff(cells, prepend=-1))
    cells = cells[first]
    entry_text, entry_token = np.divmod(cells, vocab)
    entries = np.diff(np.r_[first, tokens.size]) / lengths[entry_text]
    token_weights = np.zeros((n_nodes, vocab))
    flat = token_weights.reshape(-1)
    flat[cells] = entries
    np.add.at(flat, authors[entry_text] * vocab + entry_token, entries)
    token_weights[n_texts:] /= np.maximum(np.bincount(authors, minlength=n_nodes)[n_texts:], 1)[:, None]
    return token_weights


def build_social_graph(
    posts,
    comments,
    users,
    embed: np.ndarray,
    theta: float = 0.5,
    connect_kinds: str = "all",
    edges: tuple[np.ndarray, np.ndarray] | None = None,
) -> SocialGraph:
    """Build the interaction graph.

    Node features are ``token_weights @ embed`` (see ``SocialGraph``):
    post and comment nodes take the mean embedding of their tokens, user
    nodes the mean of their authored posts and comments (zero vector when a
    user authored nothing).  Undirected edges exist where cosine similarity
    of the features >= theta or a structural relation holds (authorship,
    comment-on-post), and every node gets a self-loop.  A node whose feature
    is zero (a text without tokens, a user who wrote nothing) has no
    similarity edges: its cosine is undefined, not 0.  Edges are ordered
    by source, then destination, with the self-loops last.

    ``theta`` must lie in (-1, 1) (``check_theta``).
    ``connect_kinds`` is "all" (similarity edges may join any node kinds) or
    "same-kind" (similarity edges only within one kind).

    The token table is written from its nonzero (text, token) entries,
    found by one sort of their flat keys, so no temporary the size of the
    table is made; a token id outside ``[0, embed.shape[0])`` raises
    ``ValueError`` naming its text.  The similarity join runs over blocks of
    ``SIM_TILE`` rows, reads each block's candidate pairs with one flat
    nonzero, and the pairs are deduplicated by one sort of their keys, so
    memory beside the table is O(SIM_TILE * n_nodes + edges).

    The join's cosines are dots of unit rows (each feature over its norm
    plus 1e-12).  Each block's cosines are one float32 product of the unit
    rows rounded to float32, which is within gamma_(d+2) ~ (d + 2) * 2**-24
    of the exact dot of the float64 unit rows in any summation order
    (Higham, *Accuracy and Stability of Numerical Algorithms*, section 3.1,
    plus one rounding of each component).  The band is more than twice
    that, (d + 4) * 2**-23 either side of theta: a pair above it is an
    edge, a pair below it is not, and a pair inside it is settled by the
    float64 dot of its two unit rows.  So every pair whose float64 cosine
    is more than a few float64 ulps from theta gets a float64 join's
    verdict.  The few closer to theta are decided by how that dot rounds,
    where a float64 GEMM would decide them by how the GEMM rounds, and the
    edges depend on neither the BLAS nor its thread count.  Each block's
    float32 product is freed before the next is made, so the join holds one
    product at a time beside the float64 unit rows and their float32 copy.
    A product kept alive across blocks moves glibc's dynamic mmap
    threshold, which changes how the arrays made after it are served: it
    slowed a small graph's whole setup by up to a fifth (ROADMAP, "Checked
    and rejected").

    ``edges``, a ``(src, dst)`` pair of a graph built before from the same
    records and inputs (a checkpoint stores it), replaces the structural
    pairs and the similarity join; every record check, the token table and
    ``SocialGraph.validate`` still run.
    """
    check_theta(theta)
    if connect_kinds not in CONNECT_KINDS:
        raise ValueError(f"unknown connect_kinds {connect_kinds!r}")
    node_ids = [p.id for p in posts] + [c.id for c in comments] + [u.id for u in users]
    node_kinds = ["post"] * len(posts) + ["comment"] * len(comments) + ["user"] * len(users)
    index: dict[str, int] = {}
    for row, nid in enumerate(node_ids):
        if index.setdefault(nid, row) != row:
            raise ValueError(f"node id {nid!r} is used by more than one post, comment or user")

    def check_ref(what: str, ref: str, kind: str):
        if ref not in index or node_kinds[index[ref]] != kind:
            raise ValueError(f"{what} references unknown {kind} {ref}")

    for p in posts:
        check_ref(f"post {p.id}", p.user_id, "user")
    for c in comments:
        check_ref(f"comment {c.id}", c.user_id, "user")
        check_ref(f"comment {c.id}", c.post_id, "post")

    # Texts fill the first rows (see _token_table).
    texts = list(posts) + list(comments)
    n, n_texts, vocab = len(node_ids), len(texts), embed.shape[0]
    lengths, tokens = text_tokens(texts)
    authors = np.array([index[rec.user_id] for rec in texts], dtype=np.int64)
    outside = (tokens < 0) | (tokens >= vocab)
    if outside.any():
        at = np.argmax(outside)
        text = np.searchsorted(np.cumsum(lengths), at, side="right")
        raise ValueError(
            f"{node_kinds[text]} {node_ids[text]}: token id {tokens[at]} "
            f"outside the embedding table [0, {vocab})"
        )
    token_weights = _token_table(lengths, tokens, authors, n, vocab)
    if edges is not None:
        graph = SocialGraph(node_ids, node_kinds, token_weights, *edges, index)
        graph.validate()
        return graph

    # Structural pairs: each text with its author, each comment with its post.
    rows = [np.arange(n_texts), np.arange(len(posts), n_texts)]
    cols = [authors, np.array([index[c.post_id] for c in comments], dtype=np.int64)]

    # Similarity pairs i < j, one block of rows at a time against the
    # columns from the block's first row on.  The float32 cosines screen
    # every pair; those within ``band`` of theta are settled in float64.
    unit = token_weights @ embed
    norms = np.sqrt((unit * unit).sum(axis=1, keepdims=True))
    unit /= norms + 1e-12
    unit32 = unit.astype(np.float32)
    zero = norms[:, 0] == 0
    if connect_kinds == "same-kind":
        kinds = np.repeat(np.arange(3), [len(posts), len(comments), len(users)])
    band = (embed.shape[1] + 4) * 2.0**-23
    low, high = np.float32(theta - band), np.float32(theta + band)
    for a in range(0, n, SIM_TILE):
        b = min(a + SIM_TILE, n)
        cos = unit32[a:b] @ unit32[a:].T  # column k is node a + k
        at = np.flatnonzero(cos >= low)
        near = cos.reshape(-1)[at] <= high
        del cos  # before the next block's product is made (see the docstring)
        r, c = np.divmod(at, n - a)
        r += a
        c += a
        # Each pair once; a zero feature has no direction, so no similarity edges.
        keep = (r < c) & ~zero[r] & ~zero[c]
        if connect_kinds == "same-kind":
            keep &= kinds[r] == kinds[c]
        near &= keep
        keep[near] = np.einsum("ij,ij->i", unit[r[near]], unit[c[near]]) >= theta
        rows.append(r[keep])
        cols.append(c[keep])

    # Both directions of every pair, sorted into row-major order (by source,
    # then destination) and deduplicated, then one self-loop per node.
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    keys = np.sort(np.concatenate([rows * n + cols, cols * n + rows]))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    loop = np.arange(n)
    src = np.concatenate([keys // n, loop])
    dst = np.concatenate([keys % n, loop])

    graph = SocialGraph(node_ids, node_kinds, token_weights, src, dst, index)
    graph.validate()
    return graph


# ---------------------------------------------------------------------------
# signed graph attention


def create_gat_params(store: ParamStore, d: int, heads: int, layers: int):
    # The head count need not divide d; each head is ceil(d / heads) wide.
    head_dim = math.ceil(d / heads)
    width = heads * head_dim
    for layer in range(layers):
        store.create(f"gat.l{layer}.w", (d, width))
        store.create(f"gat.l{layer}.a_src", (width,), fan=(head_dim, 1))
        store.create(f"gat.l{layer}.a_dst", (width,), fan=(head_dim, 1))
        store.create(f"gat.l{layer}.wo", (width, d))


@dataclass(frozen=True)
class EdgeBlock:
    """The edges one GAT layer runs over.

    ``src`` indexes the layer's input rows and ``dst`` its output rows;
    output row i is the node of input row ``targets[i]``.  The block of a
    whole ``SocialGraph`` is ``EdgeBlock(graph.src, graph.dst,
    arange(graph.n_nodes))``.
    """

    src: np.ndarray
    dst: np.ndarray
    targets: np.ndarray


def receptive_blocks(graph: SocialGraph, rows: np.ndarray, layers: int) -> tuple[np.ndarray, list[EdgeBlock]]:
    """Edge blocks of a ``layers``-deep GAT stack whose last layer outputs
    the graph rows ``rows`` (unique; output row i is ``rows[i]``).

    Walks back one layer at a time: a layer keeps the in-edges of its output
    rows, in graph order, so each per-node sum adds its terms in the same
    order as over the whole graph; their sources (and the output rows
    themselves) are the layer's input rows, in graph order, and the outputs
    of the layer below.  Nodes map to input positions through a running
    count of the input mask and to output positions through a rank array,
    so a layer sorts nothing and costs O(nodes + edges).  Returns the first
    layer's input rows and the blocks, first layer first.
    """
    blocks = []
    outputs = np.asarray(rows, dtype=np.int64)
    wanted = np.zeros(graph.n_nodes, dtype=bool)
    out_rank = np.zeros(graph.n_nodes, dtype=np.int64)
    for _ in range(layers):
        wanted[:] = False
        wanted[outputs] = True
        keep = wanted[graph.dst]
        src, dst = graph.src[keep], graph.dst[keep]
        out_rank[outputs] = np.arange(outputs.size)
        wanted[src] = True  # now the input rows
        in_rank = np.cumsum(wanted, dtype=np.int64) - 1
        blocks.append(EdgeBlock(src=in_rank[src], dst=out_rank[dst], targets=in_rank[outputs]))
        outputs = np.flatnonzero(wanted).astype(np.int64, copy=False)
    return outputs, blocks[::-1]


def signed_gat_layer(
    feats: Tensor | tuple[Tensor, Tensor],
    graph: EdgeBlock,
    params,
    heads: int,
    leaky_slope: float,
    layer: int = 0,
) -> Tensor:
    """One signed multi-head GAT layer over the edges of the ``EdgeBlock``
    ``graph``, as one tape record (``ad.signed_gat``).

    ``feats`` holds the block's input rows, or is a pair ``(weights,
    table)`` whose product they are: on the first layer, the constant
    [n_in, vocab] token weights of the input rows and the [vocab, d]
    embedding table, and then no [n_in, d] array is formed.  The result
    holds the block's output rows.
    Per head: e_ij = LeakyReLU(a_src.Wh_j + a_dst.Wh_i) over directed edges
    j -> i; alpha_ij = sign(e_ij) * softmax_j(|e_ij|); output row i
    aggregates alpha-weighted Wh_j, heads are concatenated, projected back to
    d, tanh.  The ``heads`` heads share W's width equally; ``leaky_slope``
    is the leaky relu's slope on negative scores.
    """
    if not isinstance(graph, EdgeBlock):
        raise ShapeError(
            f"signed_gat_layer expects an EdgeBlock (src, dst, targets), "
            f"got {type(graph).__name__}"
        )
    covered = np.zeros(graph.targets.size, dtype=bool)
    covered[graph.dst] = True
    if not covered.all():
        raise ValueError("node without any in-edge; self-loops are required")
    return ad.signed_gat(
        feats, *(params[f"gat.l{layer}.{name}"] for name in ("w", "a_src", "a_dst", "wo")),
        graph.src, graph.dst, graph.targets, heads, leaky_slope,
    )
