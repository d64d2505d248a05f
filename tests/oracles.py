"""Independent brute-force reference implementations used to freeze expected
values.  Everything here is deliberately scalar-loop / direct-formula numpy,
sharing no code with the package under test, except the plain versions of
optimised paths (``text_cnn_per_offset``, ``social_graph_dense``,
``signed_gat_layer_plain`` and ``social_batch_full_graph``, ``attention_per_post``, ``is_att_per_post``,
``attend_masked`` and the paths built on it, ``edge_aggregate_unfused``,
and ``signed_softmax_chain``: ``abs_``, ``sub``, ``exp``, ``segment_sum``,
``gather_rows``, ``div`` and ``mul``, with a detached ``np.maximum.at``
shift and sign), which reuse the package's building blocks and differ from
the optimised path only in what it skips or batches; the tape ops that left
the package for them (``abs_``, ``div``, ``segment_sum``); and the plain
``ufunc.at`` scatters (``scatter_at``, the ``*_at`` ops built on it, and
``segment_max``)."""

import math

import numpy as np

from ismaf import autodiff as ad
from ismaf.bridging import attend, co_attention, self_attention


def matmul_triple_loop(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def softmax_direct(x):
    x = np.asarray(x, dtype=float)
    e = np.exp(x)
    return e / e.sum(axis=-1, keepdims=True)


def cosine(a, b):
    na = math.sqrt(float(np.dot(a, a)))
    nb = math.sqrt(float(np.dot(b, b)))
    if na == 0.0 and nb == 0.0:
        return 0.0
    return float(np.dot(a, b)) / (na * nb + 1e-12)


def text_cnn_sliding(tokens, embed, kernels):
    """Direct sliding-window text CNN: per (weight, bias) pair with kernel
    size k, conv + relu + global max-pool; outputs concatenated.

    ``kernels`` is a list of (w, b) with w shaped [k*d, f]."""
    emb = embed[np.asarray(tokens)]
    seq_len, d = emb.shape
    pooled = []
    for w, b in kernels:
        k = w.shape[0] // d
        f = w.shape[1]
        n_windows = seq_len - k + 1
        acts = np.zeros((n_windows, f))
        for p in range(n_windows):
            window = emb[p : p + k].reshape(-1)
            acts[p] = np.maximum(window @ w + b, 0.0)
        pooled.append(acts.max(axis=0))
    return np.concatenate(pooled)


def text_cnn_per_offset(tokens, params, cfg):
    """``encode_text_batch`` as a sum of per-offset matmuls on tape tensors.

    Per kernel size k: embed every token slot of the flattened batch, add up
    k matmuls of its rows shifted by j against weight rows j*d:(j+1)*d, add
    the bias and relu, then drop the windows that cross a post boundary
    before max-pooling each post with ``segment_max``."""
    tokens = np.asarray(tokens, dtype=np.int64)
    n, d = tokens.shape[0], cfg.embed_dim
    total = n * cfg.seq_len
    emb = ad.gather_rows(params["text.embed"], tokens.reshape(-1))
    pooled = []
    for k in cfg.kernel_sizes:
        w, b = params[f"text.conv{k}.w"], params[f"text.conv{k}.b"]
        n_windows = total - k + 1
        pre = None
        for j in range(k):
            rows = ad.slice_rows(emb, j, j + n_windows)
            term = ad.matmul(rows, ad.slice_rows(w, j * d, (j + 1) * d))
            pre = term if pre is None else ad.add(pre, term)
        acts = ad.relu(ad.add(pre, b))
        starts = np.arange(n_windows)
        valid = starts[(starts % cfg.seq_len) <= cfg.seq_len - k]
        pooled.append(segment_max(ad.gather_rows(acts, valid), valid // cfg.seq_len, n))
    return ad.concat(pooled, axis=1)


def attention_enumerated(x_q, x_kv, wq, wk, wv, wo, token_len, heads):
    """Per-head loop attention oracle: lift both vectors into token_len rows,
    project, scaled dot-product per head, concat heads, output-project, then
    mean-pool over tokens."""
    d = x_q.shape[0]
    d_tok = d // token_len
    tq = x_q.reshape(token_len, d_tok)
    tkv = x_kv.reshape(token_len, d_tok)
    q = tq @ wq
    k = tkv @ wk
    v = tkv @ wv
    d_inner = q.shape[1]
    d_head = d_inner // heads
    per_head = []
    for h in range(heads):
        cols = slice(h * d_head, (h + 1) * d_head)
        scores = q[:, cols] @ k[:, cols].T / math.sqrt(d_head)
        attn = softmax_direct(scores)
        per_head.append(attn @ v[:, cols])
    ctx = np.concatenate(per_head, axis=1)
    out_tokens = ctx @ wo
    return out_tokens.mean(axis=0)


def signed_gat_enumerated(feats, neighbors, w, a_src, a_dst, w_out, heads, slope):
    """Dense per-node signed GAT oracle.

    ``neighbors[i]`` lists the neighbor indices of node i (self included).
    ``w`` is [d, heads*d_gat]; ``a_src``/``a_dst`` are [heads*d_gat];
    ``w_out`` is [heads*d_gat, d].  Per head, with i the aggregation center
    and j its neighbor: e_ij = leaky(a_dst.Wh_i + a_src.Wh_j), alpha =
    sign(e) * softmax(|e|), aggregate alpha-weighted Wh_j, concat heads,
    project, tanh."""
    n, d = feats.shape
    hw = feats @ w
    d_gat = w.shape[1] // heads
    out_pre = np.zeros((n, heads * d_gat))
    for i in range(n):
        for h in range(heads):
            cols = slice(h * d_gat, (h + 1) * d_gat)
            e = []
            for j in neighbors[i]:
                raw = float(hw[i, cols] @ a_dst[cols] + hw[j, cols] @ a_src[cols])
                e.append(raw if raw > 0 else slope * raw)
            e = np.array(e)
            mags = softmax_direct(np.abs(e))
            alphas = np.sign(e) * mags
            agg = np.zeros(d_gat)
            for alpha, j in zip(alphas, neighbors[i]):
                agg += alpha * hw[j, cols]
            out_pre[i, cols] = agg
    return np.tanh(out_pre @ w_out)


def scl_double_loop(features, labels, tau):
    """Supervised contrastive loss: scalar double loop over anchors and
    positives, row-normalized features, anchor excluded from the denominator,
    mean over anchors that have at least one positive."""
    f = np.asarray(features, dtype=float)
    f = f / (np.sqrt((f * f).sum(axis=1, keepdims=True)) + 1e-12)
    n = len(labels)
    per_anchor = []
    for i in range(n):
        positives = [p for p in range(n) if p != i and labels[p] == labels[i]]
        if not positives:
            continue
        denom = sum(math.exp(float(f[i] @ f[a]) / tau) for a in range(n) if a != i)
        total = 0.0
        for p in positives:
            total += math.log(math.exp(float(f[i] @ f[p]) / tau) / denom)
        per_anchor.append(-total / len(positives))
    if not per_anchor:
        return 0.0
    return sum(per_anchor) / len(per_anchor)


def cmca_double_loop(z, r, tau):
    """Cross-modal alignment loss, direct double loop: for each anchor,
    numerator is the matched pair, denominator sums same-side terms over
    k != i plus cross-side terms over all k; symmetrized and averaged."""
    n = z.shape[0]

    def one_side(src, other):
        total = 0.0
        for i in range(n):
            num = math.exp(cosine(src[i], other[i]) / tau)
            denom = 0.0
            for k in range(n):
                if k != i:
                    denom += math.exp(cosine(src[i], src[k]) / tau)
                denom += math.exp(cosine(src[i], other[k]) / tau)
            total += -math.log(num / denom)
        return total

    return (one_side(z, r) + one_side(r, z)) / (2.0 * n)


def kl_direct(p, q, eps=1e-12):
    p = np.clip(np.asarray(p, dtype=float), eps, 1.0)
    q = np.clip(np.asarray(q, dtype=float), eps, 1.0)
    return float((np.asarray(p) * (np.log(p) - np.log(q))).sum())


def metrics_from_confusion(tp, fp, tn, fn):
    total = tp + fp + tn + fn
    acc = (tp + tn) / total if total else 0.0
    pre = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * pre * rec / (pre + rec) if pre + rec else 0.0
    return acc, pre, rec, f1


def central_diff(f, x, h=1e-4):
    """Central-difference gradient of a scalar function of a flat array."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def scatter_at(ufunc, out, idx, vals):
    """``ufunc.at`` on a copy of ``out``: the plain row-wise scatter that
    ``ad._scatter`` runs as one ``ufunc.at`` over flat keys."""
    out = out.copy()
    ufunc.at(out, idx, vals)
    return out


def segment_sum_at(x, seg, num_segments):
    return scatter_at(np.add, np.zeros((num_segments, x.shape[1])), seg, x)


def gather_rows_grad_at(g, idx, n_rows):
    """Gradient of ``x[idx]`` w.r.t. an ``[n_rows, ...]`` x, given the output's."""
    return scatter_at(np.add, np.zeros((n_rows,) + g.shape[1:]), idx, g)


def segment_max_at(x, seg, num_segments):
    """Per-segment max and, as a 0/1 array shaped like ``x``, the gradient
    mask that picks the first attaining row of each segment and column."""
    n_rows = x.shape[0]
    out = scatter_at(np.maximum, np.full((num_segments, x.shape[1]), -np.inf), seg, x)
    rows = np.arange(n_rows)[:, None]
    cand = np.where(x == out[seg], rows, n_rows)
    first = scatter_at(np.minimum, np.full(out.shape, n_rows), seg, cand)
    return out, (rows == first[seg]).astype(float)


def segment_max(a, segment_ids, num_segments):
    """Per-segment max over the rows of a tape tensor, through
    ``segment_max_at``; the gradient flows to the first attaining row of each
    segment and column.  Segment ids are checked as ``segment_sum`` checks
    them."""
    a = ad.as_tensor(a)
    seg = ad._segment_ids(segment_ids, a.shape[0], num_segments)
    out, mask = segment_max_at(a.data, seg, num_segments)

    def vjp(g):
        return (g[seg] * mask,)

    return ad.Tensor(out) if a.tape is None else a.tape.emit(out, (a,), vjp)


def abs_(a):
    a = ad.as_tensor(a)
    s = np.sign(a.data)

    def vjp(g):
        return (g * s,)

    return ad._emit(a.tape, np.abs(a.data), (a,), vjp)


def div(a, b):
    """Elementwise a / b with a sign-preserving 1e-12 guard on b."""
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    num, bsafe = a.data, np.where(b.data >= 0, b.data + ad.EPS, b.data - ad.EPS)
    b_shape = b.data.shape

    def vjp(g):
        ga = ad._unbroadcast(g / bsafe, num.shape)
        gb = ad._unbroadcast(-g * num / (bsafe * bsafe), b_shape)
        return ga, gb

    return ad._emit(ad._tape_of(a, b), num / bsafe, (a, b), vjp)


def segment_sum(a, segment_ids, num_segments):
    """Sum the rows of a 2-D tape tensor into ``num_segments`` groups, with
    ``ad._scatter``."""
    a = ad.as_tensor(a)
    seg = ad._segment_ids(segment_ids, a.data.shape[0], num_segments)
    out = np.zeros((num_segments, a.data.shape[1]))
    ad._scatter(out, seg, a.data)

    def vjp(g):
        return (g[seg],)

    return ad._emit(a.tape, out, (a,), vjp)


def signed_softmax_chain(e, dst, n_out):
    """What ``ad.signed_segment_softmax`` computes, as the chain of tape ops
    it replaces: ``sign(e) * softmax(|e|)`` per destination, with the shift
    and the sign detached."""
    e = ad.as_tensor(e)
    sign = np.sign(e.data)
    mag = abs_(e)
    shift = np.full((n_out, e.shape[1]), -np.inf)
    np.maximum.at(shift, dst, mag.data)
    ex = ad.exp(ad.sub(mag, ad.Tensor(shift[dst])))
    denom = segment_sum(ex, dst, n_out)
    return ad.mul(div(ex, ad.gather_rows(denom, dst)), ad.Tensor(sign))


def edge_aggregate_unfused(h, alpha, src, dst, n_out):
    """What ``ad.edge_aggregate`` computes, the plain way: every edge's source
    row gathered whole, each head's slice weighted by its alpha, and the
    [E, heads*head_dim] messages summed per destination."""
    n_edges, heads = alpha.shape
    width = h.shape[1]
    msg = ad.mul(
        ad.reshape(ad.gather_rows(h, src), (n_edges, heads, width // heads)),
        ad.reshape(alpha, (n_edges, heads, 1)),
    )
    return segment_sum(ad.reshape(msg, (n_edges, width)), dst, n_out)


def node_features_direct(posts, comments, users, embed):
    """Node features in graph order (posts, comments, users), one node at a
    time: a text is the mean of its token embedding rows, repeats included
    (zero without tokens); a user is the mean of the features of the texts it
    wrote, zero when it wrote nothing."""
    texts = list(posts) + list(comments)
    feats = {}
    for rec in texts:
        total = np.zeros(embed.shape[1])
        for tok in rec.tokens:
            total += embed[tok]
        feats[rec.id] = total / max(len(rec.tokens), 1)
    rows = [feats[rec.id] for rec in texts]
    for user in users:
        own = [feats[rec.id] for rec in texts if rec.user_id == user.id]
        rows.append(sum(own) / len(own) if own else np.zeros(embed.shape[1]))
    return np.array(rows)


def social_graph_dense(graph, posts, comments, embed, theta, connect_kinds):
    """The edges ``build_social_graph`` emits, the plain way: the dense
    [n, n] cosine matrix of the graph's node features, thresholded into a
    bool adjacency without the rows and columns of zero features, the
    structural pairs set, symmetrised with its transpose and read out in
    row-major order, then one self-loop per node.  Returns (src, dst)."""
    feats = graph.token_weights @ embed
    norms = np.sqrt((feats * feats).sum(axis=1, keepdims=True))
    unit = feats / (norms + 1e-12)
    sim = np.clip(unit @ unit.T, -1.0, 1.0)
    adj = (sim >= theta) & (norms > 0) & (norms > 0).T
    if connect_kinds == "same-kind":
        kinds = np.array(graph.node_kinds)
        adj &= kinds[:, None] == kinds[None, :]
    np.fill_diagonal(adj, False)
    for rec in list(posts) + list(comments):
        adj[graph.index[rec.id], graph.index[rec.user_id]] = True
    for c in comments:
        adj[graph.index[c.id], graph.index[c.post_id]] = True
    adj |= adj.T
    pair_src, pair_dst = np.nonzero(adj)
    loop = np.arange(graph.n_nodes)
    return np.concatenate([pair_src, loop]), np.concatenate([pair_dst, loop])


def signed_gat_layer_plain(feats, graph, params, cfg, layer=0):
    """What ``encoders.signed_gat_layer`` computes, the plain way: the input
    rows times W, each head's scores as the sum of ``Wh * a`` over its
    columns, then the same signed softmax and edge aggregate."""
    d = feats.shape[1]
    n_out = graph.targets.size
    heads, head_dim = cfg.heads, cfg.head_dim(d)
    w = params[f"gat.l{layer}.w"]
    a_src = params[f"gat.l{layer}.a_src"]
    a_dst = params[f"gat.l{layer}.a_dst"]
    wo = params[f"gat.l{layer}.wo"]

    def per_head_sum(x):  # [rows, heads*head_dim] -> [rows, heads]
        return ad.sum_(ad.reshape(x, (x.shape[0], heads, head_dim)), axis=2)

    hw = ad.matmul(feats, w)
    s_src = per_head_sum(ad.mul(hw, a_src))
    s_dst = per_head_sum(ad.mul(hw, a_dst))
    e = ad.leaky_relu(
        ad.add(
            ad.gather_rows(s_src, graph.src),
            ad.gather_rows(s_dst, graph.targets[graph.dst]),
        ),
        cfg.leaky_slope,
    )
    alpha = ad.signed_segment_softmax(e, graph.dst, n_out)
    agg = ad.edge_aggregate(hw, alpha, graph.src, graph.dst, n_out)
    return ad.tanh(ad.matmul(agg, wo))


def social_batch_full_graph(model, params, post_ids):
    """What ``IsmafModel.social_batch`` computes, the plain way: every node's
    features as ``token_weights @ embed``, every plain GAT layer
    (``signed_gat_layer_plain``) over every edge of the graph, then the batch
    rows gathered."""
    graph = model.graph
    out = ad.matmul(ad.Tensor(graph.token_weights), params["text.embed"])
    for layer in range(model.gat_cfg.layers):
        out = signed_gat_layer_plain(out, graph, params, model.gat_cfg, layer=layer)
    return ad.gather_rows(out, [graph.index[pid] for pid in post_ids])


def _row(batch, i):
    return ad.reshape(ad.slice_rows(batch, i, i + 1), (batch.shape[1],))


def attention_per_post(params, r_t, r_v, cfg):
    """What ``IsmafModel.forward`` computes with self- and co-attention, the
    plain way: one post at a time, restacked into [N, d] matrices.  Returns
    (z_t, z_v, z_tv, z_vt)."""
    outs = ([], [], [], [])
    for i in range(r_t.shape[0]):
        z_t = self_attention(_row(r_t, i), "T", params, cfg)
        z_v = self_attention(_row(r_v, i), "V", params, cfg)
        z_tv, z_vt = co_attention(z_t, z_v, params, cfg)
        for rows, z in zip(outs, (z_t, z_v, z_tv, z_vt)):
            rows.append(ad.reshape(z, (1, cfg.d)))
    return tuple(ad.concat(rows, axis=0) for rows in outs)


def is_att_per_post(z, r_g, params, cfg):
    """What ``fuse_alternate("is-att")`` computes, one post at a time."""
    rows = []
    for i in range(z.shape[0]):
        out = attend(
            _row(z, i), _row(r_g, i), params["attn.F.wq"], params["attn.F.wk"],
            params["attn.F.wv"], params["attn.F.wo"], cfg,
        )
        rows.append(ad.reshape(out, (1, cfg.d)))
    return ad.concat(rows, axis=0)


# Additive mask value for the cross-head slots of ``attend_masked``; large
# enough that exp(x - rowmax) underflows to exactly 0, small enough to stay
# finite.
NEG_MASK = -1e30


def attend_masked(x_query, x_kv, wq, wk, wv, wo, cfg):
    """What ``bridging.attend`` computes, the plain way: all heads of a post
    as one [L*H, L*H] softmax, with a block-diagonal mask that keeps each
    head's slots, and the output projection applied per token before the
    token mean."""
    x_query, x_kv = ad.as_tensor(x_query), ad.as_tensor(x_kv)
    L, dt, H, dh = cfg.token_len, cfg.token_dim, cfg.heads, cfg.head_dim
    n = x_query.size // cfg.d
    tq = ad.reshape(x_query, (n * L, dt))
    tkv = ad.reshape(x_kv, (n * L, dt))
    # [N*L, inner] -> [N, L*H, dh]: row t*H+h of post i holds token t's
    # head-h block, so a same-head mask turns one softmax into H per post.
    q = ad.reshape(ad.matmul(tq, wq), (n, L * H, dh))
    k = ad.reshape(ad.matmul(tkv, wk), (n, L * H, dh))
    v = ad.reshape(ad.matmul(tkv, wv), (n, L * H, dh))
    scores = ad.scale(ad.batched_matmul(q, ad.transpose(k)), 1.0 / math.sqrt(dh))
    head = np.arange(L * H) % H
    mask = ad.Tensor(np.where(head[:, None] == head[None, :], 0.0, NEG_MASK))
    attn = ad.softmax_rows(ad.reshape(ad.add(scores, mask), (n * L * H, L * H)))
    ctx = ad.batched_matmul(ad.reshape(attn, (n, L * H, L * H)), v)
    out_tokens = ad.matmul(ad.reshape(ctx, (n * L, cfg.inner_dim)), wo)
    return ad.mean(ad.reshape(out_tokens, x_query.shape[:-1] + (L, cfg.d)), axis=-2)


def _attend_masked_named(params, x_query, x_kv, names, cfg):
    wq, wk, wv, wo = (params[f"attn.{name}"] for name in names)
    return attend_masked(x_query, x_kv, wq, wk, wv, wo, cfg)


def attention_masked(params, r_t, r_v, cfg):
    """``attention_per_post``'s outputs from one batched ``attend_masked``
    call per attention.  Returns (z_t, z_v, z_tv, z_vt)."""
    z_t = _attend_masked_named(params, r_t, r_t, ("T.wq", "T.wk", "T.wv", "T.wo"), cfg)
    z_v = _attend_masked_named(params, r_v, r_v, ("V.wq", "V.wk", "V.wv", "V.wo"), cfg)
    z_tv = _attend_masked_named(params, z_t, z_v, ("T.wq", "V.wk", "V.wv", "TV.wo"), cfg)
    z_vt = _attend_masked_named(params, z_v, z_t, ("V.wq", "T.wk", "T.wv", "VT.wo"), cfg)
    return z_t, z_v, z_tv, z_vt


def is_att_masked(z, r_g, params, cfg):
    """What ``fuse_alternate("is-att")`` computes, with ``attend_masked``."""
    return _attend_masked_named(params, z, r_g, ("F.wq", "F.wk", "F.wv", "F.wo"), cfg)
