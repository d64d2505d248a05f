"""Minimal reverse-mode automatic differentiation over dense numpy arrays.

A ``Tape`` records every differentiable operation in execution order.  A
``Tensor`` is an immutable value wrapper: either a constant (``tape is None``)
or bound to the tape that produced it.  ``Tape.backward`` walks the record
list in reverse, accumulating vector-Jacobian products into per-node gradient
buffers keyed by node id, and consumes the records as it goes, so a tape
runs backward once.  A record's vector-Jacobian product keeps only the arrays
it reads (an input's shape, not its values, where the shape is enough), since
the tape holds every record until backward.  ``matmul``, ``batched_matmul``
and ``mul`` compute no gradient for a constant operand (known when the op
is recorded) and return None for it, so a record keeps an operand's values
only when the other operand is on the tape.

Scatters (the per-destination sums of ``signed_segment_softmax`` and of its
gradient, the gradient of a row gather, and the edge message sum
``edge_aggregate`` with its gradient) add the values that land in each
output slot in index order, as ``np.add.at`` does, so their results are
bitwise equal to it.  ``_scatter`` runs each, and the per-destination max
that shifts the softmax, as one ``ufunc.at`` over the flattened output.

Single-threaded by design: one tape per training context.  Tensors are safe
to share read-only across threads; a tape must never be mutated concurrently.
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

    def item(self) -> float:
        return float(self.data)

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
        self._next_id = 0

    def _new_id(self) -> int:
        nid = self._next_id
        self._next_id += 1
        return nid

    def watch(self, value) -> Tensor:
        """Register a leaf (trainable input) on this tape."""
        return Tensor(value, tape=self, node_id=self._new_id())

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
        """Accumulate gradients of a scalar loss w.r.t. every reachable node.

        A tape runs backward once: its records are dropped by the pass.
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
            g = grads.get(out_id)
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
        """Gradient buffer for a tensor; zeros if the loss never reached it.

        Buffers may share memory with one another; treat them as read-only.
        """
        if t.tape is not self:
            raise ValueError("tensor does not belong to this tape")
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
    """Matrix product; 1-D operands follow numpy's promotion rules."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim not in (1, 2) or b.data.ndim not in (1, 2):
        raise ShapeError(
            f"matmul expects 1-D or 2-D operands, got {a.data.shape} x {b.data.shape}"
        )
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {a.data.shape} x {b.data.shape}"
        )
    tape = _tape_of(a, b)
    a2 = a.data if a.data.ndim == 2 else a.data[None, :]
    b2 = b.data if b.data.ndim == 2 else b.data[:, None]
    out2 = a2 @ b2
    out = out2
    if a.data.ndim == 1:
        out = out[0]
    if b.data.ndim == 1:
        out = out[..., 0] if a.data.ndim == 2 else out[0]

    a_shape, b_shape, g_shape = a.data.shape, b.data.shape, out2.shape
    keep_a = a2 if b.tape is not None else None
    keep_b = b2 if a.tape is not None else None

    def vjp(g):
        g2 = g.reshape(g_shape)
        ga = (g2 @ keep_b.T).reshape(a_shape) if keep_b is not None else None
        gb = (keep_a.T @ g2).reshape(b_shape) if keep_a is not None else None
        return ga, gb

    return _emit(tape, out, (a, b), vjp)


def batched_matmul(a, b) -> Tensor:
    """Matrix product of matching 3-D stacks: [B, m, k] x [B, k, n] -> [B, m, n]."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 3 or b.data.ndim != 3:
        raise ShapeError(
            f"batched_matmul expects 3-D operands, got {a.data.shape} x {b.data.shape}"
        )
    if a.data.shape[0] != b.data.shape[0] or a.data.shape[2] != b.data.shape[1]:
        raise ShapeError(
            f"batched_matmul batch or inner dimensions disagree: "
            f"{a.data.shape} x {b.data.shape}"
        )
    tape = _tape_of(a, b)
    keep_a = a.data if b.tape is not None else None
    keep_b = b.data if a.tape is not None else None

    def vjp(g):
        return (
            g @ keep_b.swapaxes(1, 2) if keep_b is not None else None,
            keep_a.swapaxes(1, 2) @ g if keep_a is not None else None,
        )

    return _emit(tape, a.data @ b.data, (a, b), vjp)


def transpose(a, axes=None) -> Tensor:
    """Permute the axes of a tensor as ``np.transpose`` does; by default,
    swap the last two axes of a 2-D or 3-D tensor."""
    a = as_tensor(a)
    ndim = a.data.ndim
    if axes is None:
        if ndim not in (2, 3):
            raise ShapeError(f"transpose expects a 2-D or 3-D tensor, got {a.data.shape}")
        axes = (*range(ndim - 2), ndim - 1, ndim - 2)
    elif sorted(axes) != list(range(ndim)):
        raise ShapeError(f"transpose axes {tuple(axes)} do not permute {a.data.shape}")
    inverse = np.argsort(axes)

    def vjp(g):
        return (g.transpose(inverse),)

    return _emit(a.tape, a.data.transpose(axes), (a,), vjp)


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


def slice_rows(a, start: int, stop: int) -> Tensor:
    a = as_tensor(a)
    shape = a.data.shape

    def vjp(g):
        buf = np.zeros(shape)
        buf[start:stop] = g
        return (buf,)

    return _emit(a.tape, a.data[start:stop], (a,), vjp)


def _scatter(out, idx, vals, ufunc=np.add) -> None:
    """What ``ufunc.at(out, idx, vals)`` does, bitwise: each slot of ``out``
    takes its values in index order.

    ``idx`` holds entries in ``[0, len(out))`` and ``vals`` one row per entry.
    The scatter is one ``ufunc.at`` on the flattened ``out`` over the keys
    ``slot * width + column``: each key still takes its values in index
    order, and on narrow rows numpy's 1-D ``ufunc.at`` is several times
    faster than its row-wise 2-D path.  ``out`` must be C-contiguous, since the flat view of
    any other layout is a copy.
    """
    if not out.flags.c_contiguous:
        raise ValueError("scatter output must be C-contiguous; its flat view would be a copy")
    width = math.prod(out.shape[1:])
    keys = idx.reshape(-1, 1) * width + np.arange(width)
    ufunc.at(out.reshape(-1), keys.reshape(-1), vals.reshape(-1))


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


EDGE_CHUNK = 2048  # edges per block of edge_aggregate, forward and backward


def edge_aggregate(h, alpha, src, dst, n_out: int) -> Tensor:
    """Attention-weighted sum of the messages along directed edges.

    ``h`` is [n_in, heads*head_dim], head k in columns k*head_dim onwards, and
    ``alpha`` is [E, heads]; output row i sums ``alpha[e, k] * h[src[e], head
    k]`` over the edges e with ``dst[e] == i``.  The result and both gradients
    are bitwise those of gathering ``h[src]``, weighting each head's slice and
    scattering the messages onto ``dst``, but no [E, heads*head_dim] array is
    held: forward and backward run over blocks of ``EDGE_CHUNK`` edges in
    edge order, each scattered in index order, and the backward recomputes
    each block's gathers instead of keeping them on the tape.
    """
    h, alpha = as_tensor(h), as_tensor(alpha)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.ndim != 1 or src.shape != dst.shape:
        raise ShapeError(
            f"edge src and dst must be 1-D of one length, got {src.shape} and {dst.shape}"
        )
    if h.data.ndim != 2 or alpha.data.ndim != 2 or alpha.data.shape[0] != src.size \
            or alpha.data.shape[1] < 1:
        raise ShapeError(
            f"edge_aggregate expects h [n_in, width] and alpha [{src.size}, heads], "
            f"got {h.data.shape} and {alpha.data.shape}"
        )
    (n_in, width), heads = h.data.shape, alpha.data.shape[1]
    if width % heads:
        raise ShapeError(f"width {width} of h is not a multiple of {heads} heads")
    for name, idx, n in (("src", src, n_in), ("dst", dst, n_out)):
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise IndexError(
                f"edge {name} out of range [0, {n}): min {idx.min()}, max {idx.max()}"
            )
    hd, al = h.data, alpha.data
    blocks = [slice(a, a + EDGE_CHUNK) for a in range(0, src.size, EDGE_CHUNK)]

    def heads_of(rows):  # [rows, width] -> [rows, heads, head_dim]
        return rows.reshape(rows.shape[0], heads, -1)

    # The products are formed in place: each block's gathers are fresh copies.
    out = np.zeros((n_out, width))
    for blk in blocks:
        msg = heads_of(hd[src[blk]])
        msg *= al[blk, :, None]
        _scatter(out, dst[blk], msg)

    def vjp(g):
        dh = np.zeros(hd.shape)
        dalpha = np.empty(al.shape)
        for blk in blocks:
            g_blk = heads_of(g[dst[blk]])
            h_blk = heads_of(hd[src[blk]])
            h_blk *= g_blk
            dalpha[blk] = h_blk.sum(axis=2)
            g_blk *= al[blk, :, None]
            _scatter(dh, src[blk], g_blk)
        return dh, dalpha

    return _emit(_tape_of(h, alpha), out, (h, alpha), vjp)


def _segment_ids(segment_ids, n_rows: int, num_segments: int) -> np.ndarray:
    seg = np.asarray(segment_ids, dtype=np.int64)
    if seg.shape != (n_rows,):
        raise ShapeError(
            f"segment ids must be one per row, shape ({n_rows},), got {seg.shape}"
        )
    if seg.size and (seg.min() < 0 or seg.max() >= num_segments):
        raise IndexError(
            f"segment id out of range [0, {num_segments}): "
            f"min {seg.min()}, max {seg.max()}"
        )
    return seg


def signed_segment_softmax(e, dst, n_out: int) -> Tensor:
    """Signed softmax of edge scores over each destination's in-edges.

    ``e`` is [E, heads]; per head, row j of the result is ``sign(e_j) *
    exp(|e_j|) / sum_k exp(|e_k|)`` over the edges k with ``dst[k] ==
    dst[j]``, each segment shifted by its largest ``|e|``.  The result and
    the gradient are bitwise those of the plain chain of elementwise ops, a
    segment sum over ``dst`` and a row gather; the record keeps only the
    exponentials, the guarded denominators and the signs.
    """
    e = as_tensor(e)
    if e.data.ndim != 2:
        raise ShapeError(f"signed_segment_softmax expects e [E, heads], got {e.data.shape}")
    seg = _segment_ids(dst, e.data.shape[0], n_out)
    sign = np.sign(e.data)
    mag = np.abs(e.data)
    shape = (n_out, e.data.shape[1])
    shift = np.full(shape, -np.inf)
    _scatter(shift, seg, mag, np.maximum)
    ex = np.exp(mag - shift[seg])
    denom = np.zeros(shape)
    _scatter(denom, seg, ex)
    # The chain's divisor guard; an edge's segment sums to at least exp(0) = 1.
    bsafe = denom[seg] + EPS

    def vjp(g):
        gq = g * sign
        g_denom = np.zeros(shape)
        _scatter(g_denom, seg, -gq * ex / (bsafe * bsafe))
        return ((gq / bsafe + g_denom[seg]) * ex * sign,)

    return _emit(e.tape, ex / bsafe * sign, (e,), vjp)


def group_max(a, n_groups: int) -> Tensor:
    """Max over each of ``n_groups`` runs of equally many consecutive rows,
    [n_groups*m, f] -> [n_groups, f]; the gradient flows to the first
    attaining row of each group and column."""
    a = as_tensor(a)
    x = a.data
    if x.ndim != 2 or n_groups < 1 or x.shape[0] == 0 or x.shape[0] % n_groups:
        raise ShapeError(
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

    return _emit(a.tape, out, (a,), vjp)


# ---------------------------------------------------------------------------
# nonlinearities and reductions


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0

    def vjp(g):
        return (g * mask,)

    return _emit(a.tape, np.where(mask, a.data, 0.0), (a,), vjp)


def leaky_relu(a, slope: float = 0.2) -> Tensor:
    a = as_tensor(a)
    pos = a.data > 0

    def vjp(g):
        return (g * np.where(pos, 1.0, slope),)

    return _emit(a.tape, np.where(pos, a.data, slope * a.data), (a,), vjp)


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
    """Natural log clamped below at 1e-12; gradient is 0 in the clamped zone."""
    a = as_tensor(a)
    xs = np.maximum(a.data, EPS)
    inside = a.data > EPS

    def vjp(g):
        return (g * np.where(inside, 1.0 / xs, 0.0),)

    return _emit(a.tape, np.log(xs), (a,), vjp)


def sum_(a, axis=None) -> Tensor:
    a = as_tensor(a)
    shape = a.data.shape
    out = a.data.sum(axis=axis)

    def vjp(g):
        if axis is None:
            return (np.full(shape, g),)
        return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

    return _emit(a.tape, out, (a,), vjp)


def mean(a, axis=None) -> Tensor:
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return scale(sum_(a, axis=axis), 1.0 / n)


def softmax_rows(a) -> Tensor:
    """Softmax over the last axis (the rows of a matrix), stabilized by
    row-max subtraction."""
    a = as_tensor(a)
    x = a.data
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        return (s * (g - (g * s).sum(axis=-1, keepdims=True)),)

    return _emit(a.tape, s, (a,), vjp)


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


def dropout(a, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: seeded mask scaled by 1/(1-rate) in training mode,
    identity in eval mode."""
    if not training or rate == 0.0:
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

    def __contains__(self, name):
        return name in self._values

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
