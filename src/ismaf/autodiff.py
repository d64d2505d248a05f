"""Minimal reverse-mode automatic differentiation over dense numpy arrays.

A ``Tape`` records every differentiable operation in execution order.  A
``Tensor`` is an immutable value wrapper: either a constant (``tape is None``)
or bound to the tape that produced it.  ``Tape.backward`` walks the record
list in reverse, accumulating vector-Jacobian products into per-node gradient
buffers keyed by node id, and consumes the records as it goes, so a tape
runs backward once.  It drops each node's gradient once the record that
produced the node has run, so only the leaves (``Tape.watch``) keep
gradients after the pass and a step holds no gradient it has finished
with.  A record's vector-Jacobian product keeps only the arrays
it reads (an input's shape, not its values, where the shape is enough), since
the tape holds every record until backward.  ``matmul`` and ``mul`` compute
no gradient for a constant operand (known when the op is recorded) and
return None for it, so a record keeps an operand's values only when the
other operand is on the tape.  A composite op such as ``token_attention``
is one record whose vjp is its chain's backward, written out.

Sums over index lists add the values that land in each output slot in
index order from zero, as ``np.add.at`` does, so their results are
bitwise equal to it.  Every sum over the edges of ``signed_gat`` (its
softmax's max and sums, their gradient, the score gathers' gradients and
the message sum and its gradient) lists the edges slot by slot over rows
sorted by degree (``_jagged``) and runs no ``ufunc.at``; the messages are
gathered in blocks sized by bytes (``EDGE_BLOCK_BYTES``), so a block's
buffers stay in a core's L2 cache at any width.  ``_scatter`` runs the
gradient of a row gather as one ``np.add.at`` over the flattened output.
``conv_max_pool``'s forward pools with a plain max over the windows; only
its vjp finds each row's first maximal window, and its gradient is one
``np.add.at`` over that window's flat keys.

Single-threaded by design: one tape per training context.  Tensors are safe
to share read-only across threads; a tape must never be mutated concurrently.
The edge sums stay on one thread too: split over two, they lose inside a
step, because OpenBLAS's worker thread keeps the second core spinning for
50-200 ms after every matrix product, and one always comes a few ms
before them.
"""

from __future__ import annotations

import logging
import math
import zlib

import numpy as np

log = logging.getLogger(__name__)

EPS = 1e-12


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class Tensor:
    """Dense float64 array, optionally bound to a tape node."""

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, data, tape=None, node_id=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        tag = "const" if self.tape is None else f"node {self.node_id}"
        return f"Tensor(shape={self.data.shape}, {tag})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class Tape:
    """Ordered record of operations plus gradient buffers for backward."""

    def __init__(self):
        self._records = []  # (out_id, parent_ids, vjp)
        self._grads: dict[int, np.ndarray] = {}
        self._leaves: set[int] = set()
        self._next_id = 0

    def _new_id(self) -> int:
        nid = self._next_id
        self._next_id += 1
        return nid

    def watch(self, value) -> Tensor:
        """Register a leaf (trainable input) on this tape."""
        leaf = Tensor(value, tape=self, node_id=self._new_id())
        self._leaves.add(leaf.node_id)
        return leaf

    def emit(self, data, parents, vjp) -> Tensor:
        """Record one op over its parent Tensors (a constant's node_id is
        None).  ``vjp(grad_out)`` must return one gradient (or None) per
        parent, aligned with ``parents``."""
        if self._records is None:
            raise ValueError("backward already ran on this tape; record a new tape")
        out = Tensor(data, tape=self, node_id=self._new_id())
        self._records.append((out.node_id, tuple(p.node_id for p in parents), vjp))
        return out

    def backward(self, loss: Tensor) -> dict[int, np.ndarray]:
        """Accumulate gradients of a scalar loss w.r.t. every reachable leaf,
        returned by node id.

        A tape runs backward once: its records are dropped by the pass, and
        so is each node's gradient once the record that produced the node
        has run, as autograd frees a graph's buffers and its non-leaf
        gradients (``retain_graph=False``).  Only the leaves (``watch``)
        keep their gradients.
        """
        if loss.tape is not self:
            raise ValueError("loss tensor was not recorded on this tape")
        if loss.data.size != 1:
            raise ValueError(
                f"backward requires a scalar loss, got shape {loss.data.shape}"
            )
        records = self._records
        if records is None:
            raise ValueError("backward already ran on this tape; record a new tape")
        # The vjp closures hold the forward tensors, which point back to this
        # tape; dropping each record as the reverse pass consumes it breaks
        # that cycle, so the step's graph is freed without the cyclic GC.
        self._records = None
        grads = self._grads
        grads[loss.node_id] = np.ones_like(loss.data)
        # First stores keep the vjp output without copying; such buffers may
        # alias another node's gradient, so they are never mutated in place.
        borrowed: set[int] = set()
        while records:
            out_id, parent_ids, vjp = records.pop()
            # Every record that reads this node ran before the one that
            # produced it, so its gradient is complete and read only here.
            g = grads.pop(out_id, None)
            if g is None:
                continue
            for pid, pg in zip(parent_ids, vjp(g)):
                if pid is None or pg is None:
                    continue
                buf = grads.get(pid)
                if buf is None:
                    # asarray: 0-d numpy scalars must become writable arrays
                    # or later in-place accumulation would silently rebind.
                    grads[pid] = np.asarray(pg)
                    borrowed.add(pid)
                elif pid in borrowed:
                    grads[pid] = np.asarray(buf + pg)
                    borrowed.discard(pid)
                else:
                    buf += pg
        return grads

    def grad(self, t: Tensor) -> np.ndarray:
        """Gradient buffer for a leaf; zeros if the loss never reached it.
        ``backward`` keeps no other node's gradient, so any other tensor
        raises ``ValueError``.

        Buffers may share memory with one another; treat them as read-only.
        """
        if t.tape is not self:
            raise ValueError("tensor does not belong to this tape")
        if t.node_id not in self._leaves:
            raise ValueError(
                f"node {t.node_id} is not a leaf of this tape; only watched leaves keep gradients"
            )
        g = self._grads.get(t.node_id)
        return np.zeros_like(t.data) if g is None else g


def _tape_of(*tensors):
    tape = None
    for t in tensors:
        if t.tape is None:
            continue
        if tape is None:
            tape = t.tape
        elif tape is not t.tape:
            raise ValueError("operands were recorded on different tapes")
    return tape


def _emit(tape, data, parents, vjp) -> Tensor:
    if tape is None:
        return Tensor(data)
    return tape.emit(data, parents, vjp)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    tape = _tape_of(a, b)
    out = a.data + b.data
    a_shape, b_shape = a.data.shape, b.data.shape

    def vjp(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _emit(tape, out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    tape = _tape_of(a, b)
    out = a.data - b.data
    a_shape, b_shape = a.data.shape, b.data.shape

    def vjp(g):
        return _unbroadcast(g, a_shape), _unbroadcast(-g, b_shape)

    return _emit(tape, out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    tape = _tape_of(a, b)
    out = a.data * b.data
    a_shape, b_shape = a.data.shape, b.data.shape
    # Each gradient reads the other operand's values.
    keep_a = a.data if b.tape is not None else None
    keep_b = b.data if a.tape is not None else None

    def vjp(g):
        return (
            _unbroadcast(g * keep_b, a_shape) if keep_b is not None else None,
            _unbroadcast(g * keep_a, b_shape) if keep_a is not None else None,
        )

    return _emit(tape, out, (a, b), vjp)


def scale(a, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)

    def vjp(g):
        return (g * c,)

    return _emit(a.tape, a.data * c, (a,), vjp)


# ---------------------------------------------------------------------------
# linear algebra and layout


def matmul(a, b) -> Tensor:
    """Matrix product of two 2-D operands: [m, k] x [k, n] -> [m, n]."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(
            f"matmul expects [m, k] x [k, n] operands, got {a.data.shape} x {b.data.shape}"
        )
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {a.data.shape} x {b.data.shape}"
        )
    tape = _tape_of(a, b)
    keep_a = a.data if b.tape is not None else None
    keep_b = b.data if a.tape is not None else None

    def vjp(g):
        return (
            g @ keep_b.T if keep_b is not None else None,
            keep_a.T @ g if keep_a is not None else None,
        )

    return _emit(tape, a.data @ b.data, (a, b), vjp)


def token_attention(x_query, x_kv, wq, wk, wv, wo, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention within token-lifted rows.

    ``x_query`` and ``x_kv`` are [N, d] batches, each row lifted into L
    tokens of width dt, where ``wq``, ``wk`` and ``wv`` are [dt, inner] and
    ``wo`` is [inner, d]; other batch shapes raise ``ShapeError``.  Per row
    and head, the query tokens attend over the row's L key/value tokens; the
    head outputs are mean-pooled over the tokens and projected by ``wo``,
    [N, d].  The result and every gradient
    are bitwise those of the chain of reshapes, transposes, matmuls, softmax
    and token mean that the op replaces: the forward makes the chain's numpy
    calls on the same layouts, except that the softmax's row max is L-1
    ``np.maximum`` passes over the key slices (it may differ only in the
    sign of a zero, which ``exp(scores - max)`` cannot see), and the vjp
    its backward, with the softmax's as ``P * (dP - rowsum(dP * P))``.  The
    record keeps the token rows, the per-head q, k and v, the weights P and
    the pooled rows.
    """
    # Key/value before query: a tensor passed as both takes its gradients in
    # the chain's order.
    parents = tuple(as_tensor(t) for t in (x_kv, x_query, wq, wk, wv, wo))
    wq, wk, wv, wo = (t.data for t in parents[2:])
    x_shape, (dt, inner), d = parents[0].data.shape, wq.shape, wo.shape[1]
    if len(x_shape) != 2 or parents[1].data.shape != x_shape or x_shape[1] != d:
        raise ShapeError(
            f"attention expects two matching [N, {d}] batches, "
            f"got {parents[1].data.shape} and {x_shape}"
        )
    n, L = x_shape[0], d // dt
    dh = inner // heads
    tkv, tq = (t.data.reshape(n * L, dt) for t in parents[:2])
    qv_axes, k_axes = (0, 2, 1, 3), (0, 2, 3, 1)

    def per_head(tokens, w, axes):
        # [N*L, inner] -> [N, L, H, dh] -> (row, head) pairs as the batch axis.
        split = (tokens @ w).reshape(n, L, heads, dh).transpose(axes)
        return split.reshape((n * heads,) + split.shape[2:])

    def merged(g, axes):  # per-head gradient -> [N*L, inner]
        return g.reshape((n, heads) + g.shape[1:]).transpose(np.argsort(axes)).reshape(n * L, inner)

    q, k, v = per_head(tq, wq, qv_axes), per_head(tkv, wk, k_axes), per_head(tkv, wv, qv_axes)
    scale_qk = 1.0 / math.sqrt(dh)
    scores = (q @ k) * scale_qk
    # numpy's max over a short last axis pays per row; slice maxima do not.
    top = scores[..., :1].copy()
    for j in range(1, L):
        np.maximum(top, scores[..., j:j + 1], out=top)
    ex = np.exp(scores - top)
    p = ex / ex.sum(axis=-1, keepdims=True)
    # The token mean commutes with the output projection, so pool first;
    # row i then holds its H pooled heads side by side, as wo expects.
    pooled = ((p @ v).sum(axis=1) * (1.0 / L)).reshape(n, inner)

    def vjp(g):
        g_sum = (g @ wo.T).reshape(n * heads, dh) * (1.0 / L)
        g_ctx = np.broadcast_to(g_sum[:, None, :], (n * heads, L, dh)).copy()
        g_p = g_ctx @ v.swapaxes(1, 2)
        g_scores = p * (g_p - (g_p * p).sum(axis=-1, keepdims=True)) * scale_qk
        gq = merged(g_scores @ k.swapaxes(1, 2), qv_axes)
        gk = merged(q.swapaxes(1, 2) @ g_scores, k_axes)
        gv = merged(p.swapaxes(1, 2) @ g_ctx, qv_axes)
        g_kv = gv @ wv.T
        g_kv += gk @ wk.T
        return (
            g_kv.reshape(x_shape), (gq @ wq.T).reshape(x_shape),
            tq.T @ gq, tkv.T @ gk, tkv.T @ gv, pooled.T @ g,
        )

    return _emit(_tape_of(*parents), pooled @ wo, parents, vjp)


def conv_max_pool(emb, inv, w, b) -> Tensor:
    """One kernel size of the text CNN: relu of the bias plus each token
    row's max over its windows, [N, f].  ``emb`` is the [U, d] embeddings of
    a batch's distinct tokens, the int array ``inv`` its [N, seq_len] token
    rows as rows of ``emb``, and ``w`` [k*d, f], block j for window offset j.
    Bitwise the chain of tape ops it replaces, whose pool keeps each row's
    first maximal window: the forward makes the chain's numpy calls on the
    same layouts up to the windows and pools with their max, which differs
    from the first maximal window at most in the sign of a zero or the bits
    of a NaN, both of which ``relu(max + bias)`` maps to 0.0.  The vjp finds
    the first maximal window in the windows its record keeps and runs the
    chain's backward without the +0.0 terms of the other windows, one
    ``np.add.at`` of k*N*f entries instead of k*N*W*f."""
    parents = tuple(as_tensor(t) for t in (emb, w, b))
    e, wd, bias = (t.data for t in parents)
    (u, d), f = e.shape, wd.shape[1]
    k = wd.shape[0] // d
    n, n_windows = inv.shape[0], inv.shape[1] - k + 1
    # [k*f, d], row j*f + c is column c of block j, so row u*k + j of proj
    # is distinct token u times block j.
    blocks = wd.reshape(k, d, f).swapaxes(-1, -2).reshape(k * f, d)
    proj = (e @ blocks.swapaxes(-1, -2)).reshape(u * k, f)
    # Offset j of every window, for j = 0..k-1: [k, n, n_windows] rows of proj.
    ids = np.stack([inv[:, j:j + n_windows] * k + j for j in range(k)]).reshape(-1)
    windows = proj[ids].reshape(k, n * n_windows, f).sum(axis=0).reshape(n, n_windows, f)
    pre = windows.max(axis=1) + bias
    mask = pre > 0

    def vjp(g):
        g = g * mask
        # Only each row's first maximal window takes a gradient: the chain's
        # other windows add +0.0, which changes no cell of a sum from +0.0.
        # Keys ids[j, n, first[n, c]]*f + c, in (j, n, c) order.
        first = windows.argmax(axis=1)[:, None, :]  # [n, 1, f]
        hit = np.take_along_axis(ids.reshape(k, n, n_windows), first.reshape(1, n, f), axis=2)
        g_proj = np.zeros((u, k * f))  # row u*k + j of its [U*k, f] view: token u, block j
        np.add.at(g_proj.reshape(-1), (hit * f + np.arange(f)).reshape(-1),
                  np.broadcast_to(g, (k, n, f)).reshape(-1))
        g_w = (e.T @ g_proj).reshape(d, k, f).swapaxes(0, 1).reshape(k * d, f)
        return g_proj @ blocks, g_w, g.sum(axis=0)

    return _emit(_tape_of(*parents), np.where(mask, pre, 0.0), parents, vjp)


def transpose(a) -> Tensor:
    """Swap the two axes of a matrix."""
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"transpose expects a 2-D tensor, got {a.data.shape}")

    def vjp(g):
        return (g.T,)

    return _emit(a.tape, a.data.T, (a,), vjp)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    orig = a.data.shape
    out = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(orig),)

    return _emit(a.tape, out, (a,), vjp)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("concat of an empty sequence")
    tape = _tape_of(*tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _emit(tape, out, tensors, vjp)


def _scatter(out, idx, vals) -> None:
    """What ``np.add.at(out, idx, vals)`` does, bitwise: each slot of ``out``
    takes its values in index order.

    ``idx`` holds entries in ``[0, len(out))`` and ``vals`` one row per entry.
    The scatter is one ``np.add.at`` on the flattened ``out`` over the keys
    ``slot * width + column``: each key still takes its values in index
    order, and on narrow rows numpy's 1-D ``ufunc.at`` is several times
    faster than its row-wise 2-D path.  ``out`` must be C-contiguous, since the flat view of
    any other layout is a copy.  It serves ``gather_rows``' gradient.
    """
    if not out.flags.c_contiguous:
        raise ValueError("scatter output must be C-contiguous; its flat view would be a copy")
    width = math.prod(out.shape[1:])
    keys = idx.reshape(-1, 1) * width + np.arange(width)
    np.add.at(out.reshape(-1), keys.reshape(-1), vals.reshape(-1))


def gather_rows(a, indices) -> Tensor:
    """Select rows by an integer index array (the indices are constants)."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise IndexError(
            f"gather index out of range [0, {a.data.shape[0]}): "
            f"min {idx.min()}, max {idx.max()}"
        )

    shape = a.data.shape

    def vjp(g):
        buf = np.zeros(shape)
        _scatter(buf, idx, g)
        return (buf,)

    return _emit(a.tape, a.data[idx], (a,), vjp)


EDGE_BLOCK_BYTES = 512 * 1024  # bytes per gathered block buffer of signed_gat's message sum


def _jagged(idx, n: int, block: int):
    """Jagged-diagonal plan of the edges keyed on ``idx`` (entries in ``[0, n)``).

    The rows are ordered by their number of edges, most first (stable), and
    the edges are listed slot-major: slot 0 of every row, then slot 1, and
    so on, each row's edges in edge order.  The rows that hold slot j are
    then a prefix of the ordered rows.  Returns the ordered rows that hold
    an edge, the listed edges, and their blocks of ``block`` edges as pairs
    ``(a, spans)``: the block starts at listed edge a, and a span ``(i, j,
    r)`` says that its entries i to j-1 are one slot of the ordered rows r
    onwards.
    """
    n_edges = idx.size
    deg = np.bincount(idx, minlength=n)
    rows = np.argsort(-deg, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[rows] = np.arange(n)
    # Each row's edges in edge order, row after row (numpy radix-sorts up
    # to 16 bits), and the slot each of them takes in its row.
    by_row = np.argsort(idx.astype(np.min_scalar_type(n)), kind="stable")
    slot = np.arange(n_edges) - np.repeat(np.cumsum(deg) - deg, deg)
    start = np.concatenate(([0], np.cumsum(np.bincount(slot))))  # each slot's first listing
    order = np.empty(n_edges, dtype=np.int64)
    order[start[slot] + np.repeat(rank, deg)] = by_row
    # Spans break at every slot and at every block.
    cuts = np.union1d(start, np.arange(0, n_edges, block))
    p, q = cuts[:-1], cuts[1:]
    r = p - start[np.searchsorted(start, p, side="right") - 1]
    i = p % block
    spans = list(zip(i.tolist(), (i + q - p).tolist(), r.tolist()))
    firsts = np.flatnonzero(i == 0).tolist() + [len(spans)]
    blocks = [(k * block, spans[f:e]) for k, (f, e) in enumerate(zip(firsts, firsts[1:]))]
    return rows[: np.count_nonzero(deg)], order, blocks


def _plan_reduce(plan, vals, n: int, ufunc=np.add, start=0.0) -> np.ndarray:
    """What ``ufunc.at(np.full((n,) + vals.shape[1:], start), idx, vals)`` does,
    bitwise, for the edges keyed on ``idx`` whose ``_jagged`` plan is ``plan``:
    slot j reduces each row's j-th value into a prefix of the rows, in edge order."""
    rows, order, blocks = plan
    listed = vals.take(order, axis=0)
    acc = np.full((rows.size,) + vals.shape[1:], start)
    for a, spans in blocks:
        for i, j, r in spans:
            cell = acc[r : r + j - i]
            ufunc(cell, listed[a + i : a + j], out=cell)
    out = np.full((n,) + vals.shape[1:], start)
    out[rows] = acc
    return out


def _message_sum(hd, al, src, plan, block: int, n_out: int) -> np.ndarray:
    """Row i of the [n_out, width] result sums ``al[e, k] * hd[src[e], head
    k]`` over the edges e keyed on row i by ``plan`` (``_jagged`` over the
    destinations, in blocks of ``block`` edges), bitwise as ``np.add.at``."""
    rows, order, blocks = plan
    heads, width = al.shape[1], hd.shape[1]
    # Each block is gathered into one reused buffer and weighted in place;
    # mode="clip" lets take fill it unbuffered, and the indices are checked.
    acc = np.zeros((rows.size, heads, width // heads))
    msg = np.empty((min(src.size, block), heads, width // heads))
    for a, spans in blocks:
        blk = order[a : a + block]
        hd.take(src[blk], axis=0, out=msg[: blk.size].reshape(blk.size, width), mode="clip")
        msg[: blk.size] *= al.take(blk, axis=0)[:, :, None]
        for i, j, r in spans:
            acc[r : r + j - i] += msg[i:j]
    del msg  # freed before out is made, so the forward never holds both
    out = np.zeros((n_out, width))
    out[rows] = acc.reshape(rows.size, width)
    return out


def _message_sum_grad(g, hd, al, src, dst, plan, block: int):
    """The gradients of ``_message_sum``'s rows w.r.t. ``hd`` and ``al``,
    given theirs ``g``, over ``plan``: ``_jagged`` over ``src``, in blocks
    of ``block`` edges."""
    rows, order, blocks = plan
    heads, width = al.shape[1], hd.shape[1]
    h_rows = hd.take(rows, axis=0).reshape(rows.size, heads, width // heads)
    dh_rows = np.zeros(h_rows.shape)
    dalpha = np.empty(al.shape)
    g_blk, prod = np.empty((2, min(src.size, block), heads, width // heads))
    for a, spans in blocks:
        blk = order[a : a + block]
        g.take(dst[blk], axis=0, out=g_blk[: blk.size].reshape(blk.size, width), mode="clip")
        for i, j, r in spans:
            np.multiply(h_rows[r : r + j - i], g_blk[i:j], out=prod[i:j])
        # Reduced as the unfused product's gradient is: not at all when
        # head_dim is 1, which keeps a -0.0 product.
        dalpha[blk] = _unbroadcast(prod[: blk.size], (blk.size, heads, 1))[:, :, 0]
        g_blk[: blk.size] *= al.take(blk, axis=0)[:, :, None]
        for i, j, r in spans:
            dh_rows[r : r + j - i] += g_blk[i:j]
    del h_rows, g_blk, prod  # freed before dh is made, so the end adds nothing to the loop's peak
    dh = np.zeros(hd.shape)
    dh[rows] = dh_rows.reshape(rows.size, width)
    return dh, dalpha


def signed_gat(feats, w, a_src, a_dst, wo, src, dst, targets, heads: int, slope: float) -> Tensor:
    """One signed multi-head GAT layer over the directed edges ``src[e] ->
    dst[e]``, [n_out, d]; output row i is input row ``targets[i]``, each a
    distinct row.

    ``feats`` is the [n_in, d] input rows, or a pair ``(weights, table)``
    of constant [n_in, vocab] weights and a [vocab, d] table whose product
    they are, each product M of the rows taken as ``weights @ (table @ M)``.
    ``w`` is [d, width], head k in columns k*width/heads onwards, ``a_src``
    and ``a_dst`` are [width] and ``wo`` [width, d].  Per head, edge e's
    score is the leaky relu (``slope`` below zero) of ``s_src[src[e]] +
    s_dst[targets[dst[e]]]``, each s the input rows times the per-head sums
    of ``w * a``; its weight is ``sign(score) * exp(|score|)`` over the sum
    of ``exp(|score|)`` over ``dst[e]``'s in-edges (each shifted by their
    largest ``|score|``) plus ``EPS``.  Output row i is the tanh of the
    weighted sum of its in-edges' source rows of ``rows @ w``, times ``wo``.

    The result and every gradient are bitwise those of the chain of tape
    ops the op replaces: the forward makes the chain's numpy calls on the
    same layouts and the vjp its backward, adding the three gradients of
    the input and of ``w`` in the tape's order (from ``s_dst``, from
    ``s_src``, then from ``rows @ w``).  The sums over the edges run on a
    ``_jagged`` plan over ``dst``, built in the forward and kept, or over
    ``src``, built in the vjp: slot j adds each row's j-th term with one
    contiguous add over a prefix of the rows, so every cell takes its terms
    in edge order from +0.0.  The messages are gathered and weighted in
    blocks of listed edges that hold at most ``EDGE_BLOCK_BYTES`` (and at
    least one edge); the block size decides only which edges share a
    buffer, never the order of a cell's terms.  No [E, width] array is made: the backward reads ``rows
    @ w`` once in source order and regathers each block.  The record keeps
    the scores' exponentials, signs and leaky relu mask and the per-row
    denominators, not the weights.
    """
    pair = isinstance(feats, tuple)
    weights = as_tensor(feats[0]).data if pair else None
    parents = tuple(as_tensor(t) for t in (feats[1] if pair else feats, w, a_src, a_dst, wo))
    x, wd, asrc, adst, wod = (t.data for t in parents)
    src, dst, targets = (np.asarray(i, dtype=np.int64) for i in (src, dst, targets))
    if src.ndim != 1 or src.shape != dst.shape:
        raise ShapeError(
            f"edge src and dst must be 1-D of one length, got {src.shape} and {dst.shape}"
        )
    (d, width), n_in, n_out = wd.shape, (weights if pair else x).shape[0], targets.size
    if width % heads:
        raise ShapeError(f"width {width} of w is not a multiple of {heads} heads")
    for name, idx, n in (("src", src, n_in), ("dst", dst, n_out), ("targets", targets, n_in)):
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise IndexError(
                f"edge {name} out of range [0, {n}): min {idx.min()}, max {idx.max()}"
            )
    split = (d, heads, width // heads)

    def rows_times(m):  # the input rows times m
        return weights @ (x @ m) if pair else x @ m

    def rows_times_grad(g, m):  # the gradients of the input and of m, given rows_times(m)'s
        if pair:
            g = weights.T @ g
        return g @ m.T, x.T @ g

    def head_sums_grad(g, a):  # the gradients of w and of a, given (w * a)'s per-head sums'
        g = np.broadcast_to(g[:, :, None], split).reshape(d, width)
        return g * a, (g * wd).sum(axis=0)

    hw = rows_times(wd)  # [n_in, width]
    p_src, p_dst = ((wd * a).reshape(split).sum(axis=2) for a in (asrc, adst))  # [d, heads]
    # Scores, magnitudes and exponentials share one [E, heads] buffer: the chain freed each in turn.
    ex = rows_times(p_src)[src] + rows_times(p_dst)[targets[dst]]
    pos = ex > 0
    ex *= np.where(pos, 1.0, slope)
    sign = np.sign(ex)
    block = max(1, EDGE_BLOCK_BYTES // (hw.itemsize * max(width, 1)))
    plan = _jagged(dst, n_out, block)
    np.abs(ex, out=ex)
    ex -= _plan_reduce(plan, ex, n_out, np.maximum, -np.inf)[dst]
    np.exp(ex, out=ex)
    denom = _plan_reduce(plan, ex, n_out)

    def alpha():  # the guarded divisors and the weights, [E, heads] each
        bsafe = denom[dst] + EPS
        return bsafe, ex / bsafe * sign

    agg = _message_sum(hw, alpha()[1], src, plan, block, n_out)
    out = np.tanh(agg @ wod)

    def vjp(g):
        g = g * (1.0 - out * out)
        bsafe, al = alpha()
        src_plan = _jagged(src, n_in, block)
        dh, dalpha = _message_sum_grad(g @ wod.T, hw, al, src, dst, src_plan, block)
        gq = dalpha * sign
        g_denom = _plan_reduce(plan, -gq * ex / (bsafe * bsafe), n_out)
        g_pre = (gq / bsafe + g_denom[dst]) * ex * sign * np.where(pos, 1.0, slope)
        g_s_dst = np.zeros((n_in, heads))
        g_s_dst[targets] = _plan_reduce(plan, g_pre, n_out)
        g_x, g_p_dst = rows_times_grad(g_s_dst, p_dst)
        g_x_src, g_p_src = rows_times_grad(_plan_reduce(src_plan, g_pre, n_in), p_src)
        g_x += g_x_src
        g_x_hw, g_w_hw = rows_times_grad(dh, wd)
        g_x += g_x_hw
        g_w, g_a_dst = head_sums_grad(g_p_dst, adst)
        g_w_src, g_a_src = head_sums_grad(g_p_src, asrc)
        g_w += g_w_src
        g_w += g_w_hw
        return g_x, g_w, g_a_src, g_a_dst, agg.T @ g

    return _emit(_tape_of(*parents), out, parents, vjp)


# ---------------------------------------------------------------------------
# nonlinearities and reductions


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0

    def vjp(g):
        return (g * mask,)

    return _emit(a.tape, np.where(mask, a.data, 0.0), (a,), vjp)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    t = np.tanh(a.data)

    def vjp(g):
        return (g * (1.0 - t * t),)

    return _emit(a.tape, t, (a,), vjp)


def exp(a) -> Tensor:
    a = as_tensor(a)
    e = np.exp(a.data)

    def vjp(g):
        return (g * e,)

    return _emit(a.tape, e, (a,), vjp)


def log(a) -> Tensor:
    """Natural log of a positive tensor, unclamped: a zero entry reads -inf.
    Take class log-probabilities with ``log_softmax_rows`` instead."""
    a = as_tensor(a)
    x = a.data

    def vjp(g):
        return (g * (1.0 / x),)

    return _emit(a.tape, np.log(x), (a,), vjp)


def sum_(a, axis=None) -> Tensor:
    a = as_tensor(a)
    shape = a.data.shape
    out = a.data.sum(axis=axis)

    def vjp(g):
        if axis is None:
            return (np.full(shape, g),)
        return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

    return _emit(a.tape, out, (a,), vjp)


def log_softmax_rows(a) -> Tensor:
    """Log of the softmax over the last axis: the input shifted by its row
    max, minus the log of the shifted row's sum of exponentials.  Finite at
    any logit gap, where the log of the softmax underflows to -inf."""
    a = as_tensor(a)
    x = a.data
    shifted = x - x.max(axis=-1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    def vjp(g):
        return (g - np.exp(out) * g.sum(axis=-1, keepdims=True),)

    return _emit(a.tape, out, (a,), vjp)


def row_l2_normalize(a) -> Tensor:
    """Divide each row by its L2 norm (+1e-12).  Rows must be nonzero for a
    meaningful gradient."""
    a = as_tensor(a)
    x = a.data
    norm = np.sqrt((x * x).sum(axis=1, keepdims=True))
    denom = norm + EPS

    def vjp(g):
        dot = (g * x).sum(axis=1, keepdims=True)
        return (g / denom - x * dot / (np.maximum(norm, EPS) * denom * denom),)

    return _emit(a.tape, x / denom, (a,), vjp)


def dropout(a, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: seeded mask scaled by 1/(1-rate); identity at
    rate 0."""
    if rate == 0.0:
        return as_tensor(a)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    a = as_tensor(a)
    mask = (rng.random(a.data.shape) >= rate) / (1.0 - rate)
    return mul(a, Tensor(mask))


def linear(x, w, b=None) -> Tensor:
    y = matmul(x, w)
    return y if b is None else add(y, b)


# ---------------------------------------------------------------------------
# parameters


def _name_rng(seed: int, name: str) -> np.random.Generator:
    # Per-name substream: reproducible regardless of creation order.
    return np.random.default_rng(
        np.random.SeedSequence([seed & 0xFFFFFFFF, zlib.crc32(name.encode())])
    )


class ParamStore:
    """Named, seeded collection of trainable arrays.

    Creating the same (seed, name, shape) twice reproduces bitwise-identical
    initial values; each parameter draws from its own seed substream.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._values: dict[str, np.ndarray] = {}

    def create(self, name: str, shape, init: str = "xavier", fan=None) -> np.ndarray:
        if name in self._values:
            raise ValueError(f"parameter {name!r} already exists")
        shape = tuple(int(s) for s in shape)
        if init == "zeros":
            value = np.zeros(shape)
        elif init == "xavier":
            if fan is None:
                if len(shape) == 2:
                    fan = (shape[0], shape[1])
                else:
                    fan = (shape[0] if shape else 1, 1)
            bound = np.sqrt(6.0 / (fan[0] + fan[1]))
            value = _name_rng(self.seed, name).uniform(-bound, bound, size=shape)
        else:
            raise ValueError(f"unknown init {init!r}")
        self._values[name] = value
        return value

    def value(self, name: str) -> np.ndarray:
        return self._values[name]

    def assign(self, name: str, value: np.ndarray) -> None:
        old = self._values[name]
        value = np.asarray(value, dtype=np.float64)
        if value.shape != old.shape:
            raise ShapeError(
                f"assign to {name!r}: shape {value.shape} != {old.shape}"
            )
        self._values[name] = value

    def names(self):
        return list(self._values)

    def items(self):
        return self._values.items()

    def watch(self, tape: Tape) -> dict[str, Tensor]:
        """Leaf tensors for every parameter, bound to the given tape."""
        return {name: tape.watch(value) for name, value in self._values.items()}

    def constants(self) -> dict[str, Tensor]:
        return {name: Tensor(value) for name, value in self._values.items()}

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: value.copy() for name, value in self._values.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        if set(state) != set(self._values):
            missing = set(self._values) ^ set(state)
            raise ValueError(f"state does not match parameter set: {sorted(missing)}")
        for name, value in state.items():
            self.assign(name, value.copy())


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(f, store: ParamStore, h: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps a dict of parameter tensors to a scalar Tensor and must be
    deterministic for fixed parameter values.
    """
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    tape = Tape()
    leaves = store.watch(tape)
    loss = f(leaves)
    tape.backward(loss)
    analytic = {name: tape.grad(t) for name, t in leaves.items()}

    consts = store.constants()
    worst = 0.0
    for name in store.names():
        base = store.value(name)
        work = base.copy()
        consts[name] = Tensor(work)
        flat = work.reshape(-1)
        an_flat = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(f(consts).data)
            flat[i] = orig - h
            f_minus = float(f(consts).data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            denom = max(abs(an_flat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(an_flat[i] - numeric) / denom)
        consts[name] = Tensor(base)
    return worst
