"""Independent brute-force reference implementations used to freeze expected
values.  Everything here is deliberately scalar-loop / direct-formula numpy,
sharing no code with the package under test, except the plain versions of
optimised paths (``text_cnn_per_offset``, ``text_cnn_chain``,
``token_weights_at``, ``social_graph_dense``, the record derivations
that ``data.GraphInputs`` replaced (``vocab_size_scan``,
``post_token_rows``, ``graph_records_checked``,
``record_fingerprint_scan``),
``signed_gat_layer_plain`` and ``social_batch_full_graph`` with ``whole_graph_block``,
``receptive_blocks_sorted``,
``attention_per_post``, ``is_att_per_post``,
``attend_masked`` and ``attend_chain`` with the paths built on them
(``attention_with``, ``is_att_with``), ``gat_layer_chain`` with
``edge_aggregate_unfused`` and ``signed_softmax_chain`` (``abs_``,
``sub``, ``exp``, ``segment_sum``, ``gather_rows``, ``div`` and ``mul``,
with a detached ``np.maximum.at`` shift and sign), ``ce_clamped`` and
``ml_clamped`` (the losses from probabilities through clamped logs) and
``AdamAllocating`` (the Adam step as whole-array formulas), which reuse the
package's building blocks and differ from the optimised path only in what
it skips or batches; the tape ops that left the package for them
(``leaky_relu``, ``abs_``, ``div``, ``segment_sum``, ``log_clamped``,
``batched_matmul``, ``transpose_axes``, ``softmax_rows``, ``mean`` and
``group_max``); and the plain
``ufunc.at`` scatters (``scatter_at``, the ``*_at`` ops built on it, and
``segment_max``); and ``grad_check_entries``, ``ad.grad_check`` with
every entry reported."""

import hashlib
import json
import math
from typing import NamedTuple

import numpy as np

from ismaf import autodiff as ad
from ismaf.bridging import co_attention, self_attention
from ismaf.encoders import EdgeBlock
from ismaf.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, Adam


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


def text_cnn_per_offset(tokens, params, kernel_sizes):
    """``encode_text_batch`` as a sum of per-offset matmuls on tape tensors.

    Per kernel size k: embed every token slot of the flattened batch, add up
    k matmuls of its rows shifted by j against weight rows j*d:(j+1)*d, add
    the bias and relu, then drop the windows that cross a post boundary
    before max-pooling each post with ``segment_max``."""
    tokens = np.asarray(tokens, dtype=np.int64)
    (n, seq_len), d = tokens.shape, params["text.embed"].shape[1]
    total = n * seq_len
    emb = ad.gather_rows(params["text.embed"], tokens.reshape(-1))
    pooled = []
    for k in kernel_sizes:
        w, b = params[f"text.conv{k}.w"], params[f"text.conv{k}.b"]
        n_windows = total - k + 1
        pre = None
        for j in range(k):
            rows = ad.gather_rows(emb, np.arange(j, j + n_windows))
            term = ad.matmul(rows, ad.gather_rows(w, np.arange(j * d, (j + 1) * d)))
            pre = term if pre is None else ad.add(pre, term)
        acts = ad.relu(ad.add(pre, b))
        starts = np.arange(n_windows)
        valid = starts[(starts % seq_len) <= seq_len - k]
        pooled.append(segment_max(ad.gather_rows(acts, valid), valid // seq_len, n))
    return ad.concat(pooled, axis=1)


def text_cnn_chain(tokens, params, kernel_sizes):
    """What ``ad.conv_max_pool`` computes per kernel size in
    ``encode_text_batch``, as the chain of tape ops it replaces: per kernel
    size four weight layout ops, the distinct tokens' matmul with the weight
    blocks, reshape, the offset-major window gather, reshape, the sum over
    offsets, ``group_max``, the bias add and relu."""
    tokens = np.asarray(tokens, dtype=np.int64)
    n, seq_len = tokens.shape
    vocab, inv = np.unique(tokens, return_inverse=True)
    inv = inv.reshape(tokens.shape)
    d = params["text.embed"].shape[1]
    emb = ad.gather_rows(params["text.embed"], vocab)  # [U, d]
    pooled = []
    for k in kernel_sizes:
        w = params[f"text.conv{k}.w"]
        f = w.shape[1]
        # [d, k*f], column j*f + c is column c of weight block j, so row
        # u*k + j of proj is distinct token u times block j.
        blocks = ad.transpose(ad.reshape(transpose_axes(ad.reshape(w, (k, d, f)), (0, 2, 1)), (k * f, d)))
        proj = ad.reshape(ad.matmul(emb, blocks), (vocab.size * k, f))
        n_windows = seq_len - k + 1
        # Offset j of every window, for j = 0..k-1: [k, n, n_windows] rows of proj.
        ids = np.stack([inv[:, j:j + n_windows] * k + j for j in range(k)])
        terms = ad.reshape(ad.gather_rows(proj, ids.reshape(-1)), (k, n * n_windows, f))
        pre = group_max(ad.sum_(terms, axis=0), n)
        pooled.append(ad.relu(ad.add(pre, params[f"text.conv{k}.b"])))
    return ad.concat(pooled, axis=1)


def group_max(a, n_groups):
    """Max over each of ``n_groups`` runs of equally many consecutive rows,
    [n_groups*m, f] -> [n_groups, f]; the gradient flows to the first
    attaining row of each group and column."""
    a = ad.as_tensor(a)
    x = a.data
    if x.ndim != 2 or n_groups < 1 or x.shape[0] == 0 or x.shape[0] % n_groups:
        raise ad.ShapeError(
            f"group_max needs 2-D rows in {n_groups} equal non-empty groups, got {x.shape}"
        )
    groups = x.reshape(n_groups, -1, x.shape[1])
    first = groups.argmax(axis=1)[:, None, :]  # [n_groups, 1, f]
    out = np.take_along_axis(groups, first, axis=1)[:, 0]
    shape, group_shape = x.shape, groups.shape

    def vjp(g):
        buf = np.zeros(group_shape)
        np.put_along_axis(buf, first, g[:, None, :], axis=1)
        return (buf.reshape(shape),)

    return ad._emit(a.tape, out, (a,), vjp)


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


def log_clamped(a):
    """Natural log clamped below at 1e-12, with gradient 0 inside the clamp:
    the log that ``ce_clamped`` and ``ml_clamped`` take of probabilities."""
    a = ad.as_tensor(a)
    xs = np.maximum(a.data, ad.EPS)
    inside = a.data > ad.EPS

    def vjp(g):
        return (g * np.where(inside, 1.0 / xs, 0.0),)

    return ad._emit(a.tape, np.log(xs), (a,), vjp)


def ce_clamped(probs, labels):
    """What ``fusion.ce_loss`` computes, the plain way, from the [N, 2]
    class probabilities: binary cross-entropy on the rumor column through
    clamped logs, mean-reduced."""
    probs = ad.as_tensor(probs)
    labels = np.asarray(labels, dtype=np.float64)
    n = labels.shape[0]
    y_hat = ad.reshape(ad.gather_rows(ad.transpose(probs), [1]), (n,))
    pos = ad.mul(ad.Tensor(labels), log_clamped(y_hat))
    neg = ad.mul(ad.Tensor(1.0 - labels), log_clamped(ad.sub(ad.Tensor(np.ones(n)), y_hat)))
    return ad.scale(ad.sum_(ad.add(pos, neg)), -1.0 / n)


def ml_clamped(p_z, p_g):
    """What ``bridging.mutual_learning_loss`` computes, the plain way, from
    two [N, k] batches of probabilities: the two KL sums through clamped
    logs, averaged and divided by N."""
    p_z, p_g = ad.as_tensor(p_z), ad.as_tensor(p_g)

    def kl(p, q):
        return ad.sum_(ad.mul(p, ad.sub(log_clamped(p), log_clamped(q))))

    return ad.scale(ad.add(kl(p_z, p_g), kl(p_g, p_z)), 0.5 / p_z.shape[0])


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


class GradEntry(NamedTuple):
    name: str
    index: tuple
    analytic: float
    numeric: float
    rel_error: float


def grad_check_entries(f, store, h=1e-4):
    """``ad.grad_check`` entry by entry: one ``GradEntry`` per parameter
    entry, in store order, with the same arithmetic, so the largest
    ``rel_error`` is ``grad_check``'s result and its entry names where."""
    tape = ad.Tape()
    leaves = store.watch(tape)
    tape.backward(f(leaves))
    consts = store.constants()
    entries = []
    for name in store.names():
        base = store.value(name)
        analytic = tape.grad(leaves[name])
        for index in np.ndindex(base.shape):
            work = base.copy()
            consts[name] = ad.Tensor(work)
            work[index] = base[index] + h
            f_plus = float(f(consts).data)
            work[index] = base[index] - h
            f_minus = float(f(consts).data)
            numeric = (f_plus - f_minus) / (2.0 * h)
            denom = max(abs(analytic[index]), abs(numeric), 1e-8)
            entries.append(GradEntry(
                name, index, float(analytic[index]), numeric,
                float(abs(analytic[index] - numeric) / denom),
            ))
        consts[name] = ad.Tensor(base)
    return entries


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


def _segment_ids(segment_ids, n_rows, num_segments):
    seg = np.asarray(segment_ids, dtype=np.int64)
    if seg.shape != (n_rows,):
        raise ad.ShapeError(
            f"segment ids must be one per row, shape ({n_rows},), got {seg.shape}"
        )
    if seg.size and (seg.min() < 0 or seg.max() >= num_segments):
        raise IndexError(
            f"segment id out of range [0, {num_segments}): "
            f"min {seg.min()}, max {seg.max()}"
        )
    return seg


def segment_max(a, segment_ids, num_segments):
    """Per-segment max over the rows of a tape tensor, through
    ``segment_max_at``; the gradient flows to the first attaining row of each
    segment and column.  Segment ids are checked as ``segment_sum`` checks
    them."""
    a = ad.as_tensor(a)
    seg = _segment_ids(segment_ids, a.shape[0], num_segments)
    out, mask = segment_max_at(a.data, seg, num_segments)

    def vjp(g):
        return (g[seg] * mask,)

    return ad.Tensor(out) if a.tape is None else a.tape.emit(out, (a,), vjp)


def leaky_relu(a, slope):
    a = ad.as_tensor(a)
    pos = a.data > 0

    def vjp(g):
        return (g * np.where(pos, 1.0, slope),)

    return ad._emit(a.tape, np.where(pos, a.data, slope * a.data), (a,), vjp)


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
    seg = _segment_ids(segment_ids, a.data.shape[0], num_segments)
    out = np.zeros((num_segments, a.data.shape[1]))
    ad._scatter(out, seg, a.data)

    def vjp(g):
        return (g[seg],)

    return ad._emit(a.tape, out, (a,), vjp)


def signed_softmax_chain(e, dst, n_out):
    """The signed softmax of ``ad.signed_gat``, as a chain of tape ops:
    ``sign(e) * softmax(|e|)`` per destination, with the shift and the sign
    detached."""
    e = ad.as_tensor(e)
    sign = np.sign(e.data)
    mag = abs_(e)
    shift = np.full((n_out, e.shape[1]), -np.inf)
    np.maximum.at(shift, dst, mag.data)
    ex = ad.exp(ad.sub(mag, ad.Tensor(shift[dst])))
    denom = segment_sum(ex, dst, n_out)
    return ad.mul(div(ex, ad.gather_rows(denom, dst)), ad.Tensor(sign))


def edge_aggregate_unfused(h, alpha, src, dst, n_out):
    """The message sum of ``ad.signed_gat``, the plain way: every edge's
    source row gathered whole, each head's slice weighted by its alpha, and
    the [E, heads*head_dim] messages summed per destination."""
    n_edges, heads = alpha.shape
    width = h.shape[1]
    msg = ad.mul(
        ad.reshape(ad.gather_rows(h, src), (n_edges, heads, width // heads)),
        ad.reshape(alpha, (n_edges, heads, 1)),
    )
    return segment_sum(ad.reshape(msg, (n_edges, width)), dst, n_out)


def gat_layer_chain(feats, graph, params, heads, leaky_slope, layer=0):
    """What ``encoders.signed_gat_layer`` computes, as the chain of tape ops
    that ``ad.signed_gat`` replaces: the scores folded into W (each one
    product of the input rows with the per-head sums of ``W * a``), the
    leaky relu, ``signed_softmax_chain``, ``edge_aggregate_unfused``, ``wo``
    and tanh.  ``feats`` is a tensor or a ``(weights, table)`` pair."""
    n_out = graph.targets.size
    w = params[f"gat.l{layer}.w"]
    head_dim = w.shape[1] // heads

    def per_head_sum(x):  # [rows, heads*head_dim] -> [rows, heads]
        return ad.sum_(ad.reshape(x, (x.shape[0], heads, head_dim)), axis=2)

    def project(m):  # the input rows times m
        if isinstance(feats, tuple):
            weights, table = feats
            return ad.matmul(weights, ad.matmul(table, m))
        return ad.matmul(feats, m)

    hw = project(w)
    s_src = project(per_head_sum(ad.mul(w, params[f"gat.l{layer}.a_src"])))
    s_dst = project(per_head_sum(ad.mul(w, params[f"gat.l{layer}.a_dst"])))
    e = leaky_relu(
        ad.add(
            ad.gather_rows(s_src, graph.src),
            ad.gather_rows(s_dst, graph.targets[graph.dst]),
        ),
        leaky_slope,
    )
    alpha = signed_softmax_chain(e, graph.dst, n_out)
    agg = edge_aggregate_unfused(hw, alpha, graph.src, graph.dst, n_out)
    return ad.tanh(ad.matmul(agg, params[f"gat.l{layer}.wo"]))


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


def text_tokens_listed(texts):
    """Each text's token count and all texts' tokens in order, as int64
    arrays built from Python lists."""
    lengths = np.array([len(rec.tokens) for rec in texts], dtype=np.int64)
    tokens = np.array([tok for rec in texts for tok in rec.tokens], dtype=np.int64)
    return lengths, tokens


# What each consumer of a record set derived on its own before
# ``data.GraphInputs`` held it for all of them: the vocabulary scan of
# ``DatasetBundle.vocab_size``, ``IsmafModel``'s post-token rows,
# ``build_social_graph``'s node table, checks and links, and the checkpoint
# fingerprint's scan.


def vocab_size_scan(posts, comments):
    """One more than the largest token id of every text, at least 2."""
    _, tokens = text_tokens_listed(list(posts) + list(comments))
    return max(int(tokens.max(initial=0)) + 1, 2)


def post_token_rows(posts, kernel_sizes):
    """The posts' tokens padded with 0 to max(longest post, largest kernel)."""
    lengths, flat = text_tokens_listed(posts)
    tokens = np.zeros((lengths.size, max(lengths.max(), *kernel_sizes)), dtype=np.int64)
    tokens[np.arange(tokens.shape[1]) < lengths[:, None]] = flat
    return tokens


def graph_records_checked(posts, comments, users):
    """``(node_ids, node_kinds, index, authors, commented)`` in row order
    (posts, comments, users): each text's author row and each comment's
    post row.  A node id used twice, then a reference to an unknown user or
    post (each post's user, then each comment's user and post), raises
    ``ValueError``."""
    node_ids = [p.id for p in posts] + [c.id for c in comments] + [u.id for u in users]
    node_kinds = ["post"] * len(posts) + ["comment"] * len(comments) + ["user"] * len(users)
    index = {}
    for row, nid in enumerate(node_ids):
        if index.setdefault(nid, row) != row:
            raise ValueError(f"node id {nid!r} is used by more than one post, comment or user")

    def check_ref(what, ref, kind):
        if ref not in index or node_kinds[index[ref]] != kind:
            raise ValueError(f"{what} references unknown {kind} {ref}")

    for p in posts:
        check_ref(f"post {p.id}", p.user_id, "user")
    for c in comments:
        check_ref(f"comment {c.id}", c.user_id, "user")
        check_ref(f"comment {c.id}", c.post_id, "post")
    texts = list(posts) + list(comments)
    authors = np.array([index[rec.user_id] for rec in texts], dtype=np.int64)
    commented = np.array([index[c.post_id] for c in comments], dtype=np.int64)
    return node_ids, node_kinds, index, authors, commented


def record_fingerprint_scan(posts, comments, users):
    """The checkpoint's record fingerprint, from the records: sha256 of the
    ids by kind, of every text's tokens and of the links (each text's
    author id, each comment's post id)."""
    texts = list(posts) + list(comments)
    lengths, tokens = text_tokens_listed(texts)
    ids = [[rec.id for rec in records] for records in (posts, comments, users)]
    links = [[rec.user_id for rec in texts], [c.post_id for c in comments]]
    parts = {
        "ids": json.dumps(ids).encode("utf-8"),
        "tokens": lengths.astype("<i8").tobytes() + tokens.astype("<i8").tobytes(),
        "links": json.dumps(links).encode("utf-8"),
    }
    return {part: hashlib.sha256(data).hexdigest() for part, data in parts.items()}


def token_weights_at(posts, comments, users, vocab):
    """The ``[n_nodes, vocab]`` token table ``build_social_graph`` stores, the
    plain way: each text's tokens counted into its full row with a 2-D
    ``np.add.at``, the rows divided by their lengths, every text row added
    whole into its author's row with a second 2-D ``np.add.at``, and the user
    rows divided by the number of texts they wrote."""
    texts = list(posts) + list(comments)
    n, n_texts = len(texts) + len(users), len(texts)
    index = {rec.id: row for row, rec in enumerate(texts + list(users))}
    lengths = np.array([len(rec.tokens) for rec in texts], dtype=np.int64)
    tokens = np.array([tok for rec in texts for tok in rec.tokens], dtype=np.int64)
    authors = np.array([index[rec.user_id] for rec in texts], dtype=np.int64)
    token_weights = np.zeros((n, vocab))
    np.add.at(token_weights, (np.repeat(np.arange(n_texts), lengths), tokens), 1.0)
    token_weights[:n_texts] /= np.maximum(lengths, 1)[:, None]
    np.add.at(token_weights, authors, token_weights[:n_texts])
    token_weights[n_texts:] /= np.maximum(np.bincount(authors, minlength=n)[n_texts:], 1)[:, None]
    return token_weights


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


def whole_graph_block(graph):
    """The ``EdgeBlock`` of every edge of a ``SocialGraph``: output row i is
    input row i."""
    return EdgeBlock(graph.src, graph.dst, np.arange(graph.n_nodes))


def receptive_blocks_sorted(graph, rows, layers):
    """What ``encoders.receptive_blocks`` computes for sorted unique
    ``rows``, the sorting way: each layer's input rows as the ``np.union1d``
    of its kept sources and its outputs, and every position found by
    ``np.searchsorted``."""
    blocks = []
    outputs = np.asarray(rows, dtype=np.int64)
    wanted = np.zeros(graph.n_nodes, dtype=bool)
    for _ in range(layers):
        wanted[:] = False
        wanted[outputs] = True
        keep = wanted[graph.dst]
        src, dst = graph.src[keep], graph.dst[keep]
        inputs = np.union1d(src, outputs)
        blocks.append(
            EdgeBlock(
                src=np.searchsorted(inputs, src),
                dst=np.searchsorted(outputs, dst),
                targets=np.searchsorted(inputs, outputs),
            )
        )
        outputs = inputs
    return outputs, blocks[::-1]


def signed_gat_layer_plain(feats, graph, params, heads, leaky_slope, layer=0):
    """What ``encoders.signed_gat_layer`` computes over the ``EdgeBlock``
    ``graph``, the plain way: the input rows times W, each head's scores as
    the sum of ``Wh * a`` over its columns, then the signed softmax and
    message sum of ``gat_layer_chain``."""
    n_out = graph.targets.size
    w = params[f"gat.l{layer}.w"]
    head_dim = w.shape[1] // heads
    a_src = params[f"gat.l{layer}.a_src"]
    a_dst = params[f"gat.l{layer}.a_dst"]
    wo = params[f"gat.l{layer}.wo"]

    def per_head_sum(x):  # [rows, heads*head_dim] -> [rows, heads]
        return ad.sum_(ad.reshape(x, (x.shape[0], heads, head_dim)), axis=2)

    hw = ad.matmul(feats, w)
    s_src = per_head_sum(ad.mul(hw, a_src))
    s_dst = per_head_sum(ad.mul(hw, a_dst))
    e = leaky_relu(
        ad.add(
            ad.gather_rows(s_src, graph.src),
            ad.gather_rows(s_dst, graph.targets[graph.dst]),
        ),
        leaky_slope,
    )
    alpha = signed_softmax_chain(e, graph.dst, n_out)
    agg = edge_aggregate_unfused(hw, alpha, graph.src, graph.dst, n_out)
    return ad.tanh(ad.matmul(agg, wo))


def social_batch_full_graph(model, params, rows):
    """What ``IsmafModel.social_batch`` computes, the plain way: every node's
    features as ``token_weights @ embed``, every plain GAT layer
    (``signed_gat_layer_plain``) over every edge of the graph, then the
    graph rows ``rows`` gathered."""
    graph = model.graph
    block = whole_graph_block(graph)
    out = ad.matmul(ad.Tensor(graph.token_weights), params["text.embed"])
    cfg = model.config
    for layer in range(cfg.gat_layers):
        out = signed_gat_layer_plain(out, block, params, cfg.heads, cfg.gat_leaky_slope, layer=layer)
    return ad.gather_rows(out, rows)


def batched_matmul(a, b):
    """Matrix product of matching 3-D stacks: [B, m, k] x [B, k, n] -> [B, m, n]."""
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    if a.data.ndim != 3 or b.data.ndim != 3:
        raise ad.ShapeError(
            f"batched_matmul expects 3-D operands, got {a.data.shape} x {b.data.shape}"
        )
    if a.data.shape[0] != b.data.shape[0] or a.data.shape[2] != b.data.shape[1]:
        raise ad.ShapeError(
            f"batched_matmul batch or inner dimensions disagree: "
            f"{a.data.shape} x {b.data.shape}"
        )
    keep_a = a.data if b.tape is not None else None
    keep_b = b.data if a.tape is not None else None

    def vjp(g):
        return (
            g @ keep_b.swapaxes(1, 2) if keep_b is not None else None,
            keep_a.swapaxes(1, 2) @ g if keep_a is not None else None,
        )

    return ad._emit(ad._tape_of(a, b), a.data @ b.data, (a, b), vjp)


def transpose_axes(a, axes):
    """Permute the axes of a tensor as ``np.transpose`` does."""
    a = ad.as_tensor(a)
    if sorted(axes) != list(range(a.data.ndim)):
        raise ad.ShapeError(f"transpose axes {tuple(axes)} do not permute {a.data.shape}")
    inverse = np.argsort(axes)

    def vjp(g):
        return (g.transpose(inverse),)

    return ad._emit(a.tape, a.data.transpose(axes), (a,), vjp)


def softmax_rows(a):
    """Softmax over the last axis (the rows of a matrix), stabilized by
    row-max subtraction."""
    a = ad.as_tensor(a)
    x = a.data
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        return (s * (g - (g * s).sum(axis=-1, keepdims=True)),)

    return ad._emit(a.tape, s, (a,), vjp)


def mean(a, axis=None):
    a = ad.as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return ad.scale(ad.sum_(a, axis=axis), 1.0 / n)


def attention_per_post(params, r_t, r_v, heads):
    """What ``IsmafModel.forward`` computes with self- and co-attention, the
    plain way: one post at a time, each a [1, d] row, restacked into [N, d]
    matrices.  Returns (z_t, z_v, z_tv, z_vt)."""
    outs = ([], [], [], [])
    for i in range(r_t.shape[0]):
        z_t = self_attention(ad.gather_rows(r_t, [i]), "T", params, heads)
        z_v = self_attention(ad.gather_rows(r_v, [i]), "V", params, heads)
        z_tv, z_vt = co_attention(z_t, z_v, params, heads)
        for rows, z in zip(outs, (z_t, z_v, z_tv, z_vt)):
            rows.append(z)
    return tuple(ad.concat(rows, axis=0) for rows in outs)


def is_att_per_post(z, r_g, params, heads):
    """What ``fuse_alternate("is-att")`` computes, one [1, d] row at a time."""
    rows = [
        ad.token_attention(
            ad.gather_rows(z, [i]), ad.gather_rows(r_g, [i]), params["attn.F.wq"],
            params["attn.F.wk"], params["attn.F.wv"], params["attn.F.wo"], heads,
        )
        for i in range(z.shape[0])
    ]
    return ad.concat(rows, axis=0)


# Additive mask value for the cross-head slots of ``attend_masked``; large
# enough that exp(x - rowmax) underflows to exactly 0, small enough to stay
# finite.
NEG_MASK = -1e30


def attend_masked(x_query, x_kv, wq, wk, wv, wo, heads):
    """What ``ad.token_attention`` computes, the plain way: all heads of a post
    as one [L*H, L*H] softmax, with a block-diagonal mask that keeps each
    head's slots, and the output projection applied per token before the
    token mean."""
    x_query, x_kv = ad.as_tensor(x_query), ad.as_tensor(x_kv)
    (dt, inner), d = wq.shape, wo.shape[1]
    L, H, dh = d // dt, heads, inner // heads
    n = x_query.shape[0]
    tq = ad.reshape(x_query, (n * L, dt))
    tkv = ad.reshape(x_kv, (n * L, dt))
    # [N*L, inner] -> [N, L*H, dh]: row t*H+h of post i holds token t's
    # head-h block, so a same-head mask turns one softmax into H per post.
    q = ad.reshape(ad.matmul(tq, wq), (n, L * H, dh))
    k = ad.reshape(ad.matmul(tkv, wk), (n, L * H, dh))
    v = ad.reshape(ad.matmul(tkv, wv), (n, L * H, dh))
    scores = ad.scale(batched_matmul(q, transpose_axes(k, (0, 2, 1))), 1.0 / math.sqrt(dh))
    head = np.arange(L * H) % H
    mask = ad.Tensor(np.where(head[:, None] == head[None, :], 0.0, NEG_MASK))
    attn = softmax_rows(ad.reshape(ad.add(scores, mask), (n * L * H, L * H)))
    ctx = batched_matmul(ad.reshape(attn, (n, L * H, L * H)), v)
    out_tokens = ad.matmul(ad.reshape(ctx, (n * L, inner)), wo)
    return mean(ad.reshape(out_tokens, (n, L, d)), axis=1)


def attend_chain(x_query, x_kv, wq, wk, wv, wo, heads):
    """What ``ad.token_attention`` computes, as the chain of tape ops it
    replaces: the token lifts, per projection a matmul, reshape, transpose
    and reshape into (row, head) pairs, the scores' batched matmul and
    scale, the softmax, the context's batched matmul, the token mean and
    the output projection."""
    x_query, x_kv = ad.as_tensor(x_query), ad.as_tensor(x_kv)
    (dt, inner), d = wq.shape, wo.shape[1]
    L, H, dh = d // dt, heads, inner // heads
    n = x_query.shape[0]
    tq = ad.reshape(x_query, (n * L, dt))
    tkv = ad.reshape(x_kv, (n * L, dt))

    def per_head(tokens, w, axes):
        # [N*L, H*dh] -> [N, L, H, dh] -> (row, head) pairs as the batch axis.
        split = transpose_axes(ad.reshape(ad.matmul(tokens, w), (n, L, H, dh)), axes)
        return ad.reshape(split, (n * H,) + split.shape[2:])

    q = per_head(tq, wq, (0, 2, 1, 3))  # [N*H, L, dh]
    k = per_head(tkv, wk, (0, 2, 3, 1))  # [N*H, dh, L]
    v = per_head(tkv, wv, (0, 2, 1, 3))  # [N*H, L, dh]
    scores = ad.scale(batched_matmul(q, k), 1.0 / math.sqrt(dh))
    ctx = batched_matmul(softmax_rows(scores), v)
    pooled = ad.reshape(mean(ctx, axis=1), (n, inner))
    return ad.matmul(pooled, wo)


def attention_with(attend_fn, params, r_t, r_v, heads):
    """``attention_per_post``'s outputs from one batched call of
    ``attend_fn`` (``attend_masked`` or ``attend_chain``) per attention.
    Returns (z_t, z_v, z_tv, z_vt)."""

    def att(x_query, x_kv, names):
        wq, wk, wv, wo = (params[f"attn.{name}"] for name in names)
        return attend_fn(x_query, x_kv, wq, wk, wv, wo, heads)

    z_t = att(r_t, r_t, ("T.wq", "T.wk", "T.wv", "T.wo"))
    z_v = att(r_v, r_v, ("V.wq", "V.wk", "V.wv", "V.wo"))
    z_tv = att(z_t, z_v, ("T.wq", "V.wk", "V.wv", "TV.wo"))
    z_vt = att(z_v, z_t, ("V.wq", "T.wk", "T.wv", "VT.wo"))
    return z_t, z_v, z_tv, z_vt


def is_att_with(attend_fn, z, r_g, params, heads):
    """What ``fuse_alternate("is-att")`` computes, with ``attend_fn``."""
    wq, wk, wv, wo = (params[f"attn.F.{proj}"] for proj in ("wq", "wk", "wv", "wo"))
    return attend_fn(z, r_g, wq, wk, wv, wo, heads)


class AdamAllocating(Adam):
    """``training.Adam`` with the step that its in-place sliced one replaced:
    the textbook formulas over whole arrays, each making new moment and
    parameter arrays."""

    def step(self, grads, lr):
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        correct1 = 1.0 - b1**self.t
        correct2 = 1.0 - b2**self.t
        for name, g in grads.items():
            m = self._m[name] = b1 * self._m[name] + (1 - b1) * g
            v = self._v[name] = b2 * self._v[name] + (1 - b2) * (g * g)
            update = (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS)
            self.store.assign(name, self.store.value(name) - lr * update)
