import re
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ismaf import autodiff as ad
from ismaf import gradcheck
from ismaf.autodiff import ParamStore, ShapeError, Tape, Tensor
from ismaf.encoders import EdgeBlock

import oracles


def _rng(seed):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# forward values


class TestMatmul:
    def test_identity(self):
        a = _rng(0).normal(size=(3, 5))
        out = ad.matmul(Tensor(np.eye(3)), Tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_annihilator(self):
        a = _rng(1).normal(size=(3, 4))
        out = ad.matmul(Tensor(a), Tensor(np.zeros((4, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((3, 2)))

    def test_against_triple_loop(self):
        rng = _rng(2)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        out = ad.matmul(Tensor(a), Tensor(b))
        expected = oracles.matmul_triple_loop(a, b)
        assert np.abs(out.data - expected).max() < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(3, 4\).*\(5, 2\)"):
            ad.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((5, 2))))

    def test_batched_against_triple_loop(self):
        rng = _rng(4)
        a, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 2))
        out = oracles.batched_matmul(Tensor(a), Tensor(b))
        for i in range(2):
            assert np.abs(out.data[i] - oracles.matmul_triple_loop(a[i], b[i])).max() < 1e-12

    @pytest.mark.parametrize("b_shape", [(3, 4, 2), (2, 5, 2), (4, 2)])
    def test_batched_shape_mismatch_names_both_shapes(self, b_shape):
        pattern = r"\(2, 3, 4\).*" + re.escape(str(b_shape))
        with pytest.raises(ShapeError, match=pattern):
            oracles.batched_matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros(b_shape)))

    @pytest.mark.parametrize("a_shape, b_shape", [((4,), (4, 3)), ((3, 4), (4,)), ((4,), (4,))])
    def test_vector_operand_rejected(self, a_shape, b_shape):
        with pytest.raises(ShapeError, match=r"\[m, k\] x \[k, n\]"):
            ad.matmul(Tensor(np.zeros(a_shape)), Tensor(np.zeros(b_shape)))


class TestSoftmaxRows:
    def test_uniform(self):
        out = oracles.softmax_rows(Tensor([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]])

    def test_two_element_closed_form(self):
        c = 1.0
        out = oracles.softmax_rows(Tensor([[2.0, 2.0 + c]]))
        expected = [1 / (1 + np.e), np.e / (1 + np.e)]
        np.testing.assert_allclose(out.data[0], expected, atol=1e-12)

    def test_against_direct_formula(self):
        x = _rng(4).normal(size=(5, 7))
        out = oracles.softmax_rows(Tensor(x))
        assert np.abs(out.data - oracles.softmax_direct(x)).max() < 1e-12

    def test_last_axis_of_any_rank(self):
        x = _rng(6).normal(size=(2, 3, 5))
        out = oracles.softmax_rows(Tensor(x))
        assert np.abs(out.data - oracles.softmax_direct(x)).max() < 1e-12
        np.testing.assert_array_equal(oracles.softmax_rows(Tensor(x[0, 1])).data, out.data[0, 1])

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 8)),
            elements=st.floats(-50, 50),
        )
    )
    def test_rows_sum_to_one(self, x):
        out = oracles.softmax_rows(Tensor(x))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)


class TestLogSoftmaxRows:
    def test_against_log_of_direct_softmax(self):
        x = _rng(5).normal(size=(5, 7)) * 3
        out = ad.log_softmax_rows(Tensor(x))
        assert np.abs(out.data - np.log(oracles.softmax_direct(x))).max() < 1e-12

    def test_finite_at_a_gap_of_1000(self):
        # exp(-1000) underflows to 0, so the log of the softmax reads -inf.
        out = ad.log_softmax_rows(Tensor([[0.0, 1000.0], [1000.0, 1000.0]]))
        np.testing.assert_array_equal(out.data, [[-1000.0, 0.0], [-np.log(2.0)] * 2])


# ---------------------------------------------------------------------------
# backward basics


class TestBackward:
    def test_sum_gradient_is_ones(self):
        tape = Tape()
        x = tape.watch(_rng(6).normal(size=(3, 4)))
        tape.backward(ad.sum_(x))
        np.testing.assert_array_equal(tape.grad(x), np.ones((3, 4)))

    def test_quadratic_gradient(self):
        tape = Tape()
        v = _rng(7).normal(size=5)
        x = tape.watch(v)
        tape.backward(ad.sum_(ad.mul(x, x)))
        np.testing.assert_allclose(tape.grad(x), 2 * v)

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        x = tape.watch(np.ones(3))
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(ad.mul(x, x))

    def test_unreached_leaf_gets_zeros(self):
        tape = Tape()
        x = tape.watch(np.ones(3))
        y = tape.watch(np.ones(2))
        tape.backward(ad.sum_(x))
        np.testing.assert_array_equal(tape.grad(y), np.zeros(2))

    def test_shared_subexpression_accumulates(self):
        tape = Tape()
        x = tape.watch(np.array(2.0))
        y = ad.add(ad.mul(x, x), x)  # x^2 + x, grad 2x + 1 = 5
        tape.backward(y)
        assert tape.grad(x) == pytest.approx(5.0)

    def test_second_backward_rejected(self):
        tape = Tape()
        x = tape.watch(np.ones(3))
        loss = ad.sum_(ad.mul(x, x))
        tape.backward(loss)
        with pytest.raises(ValueError, match="already ran"):
            tape.backward(loss)
        np.testing.assert_array_equal(tape.grad(x), 2 * np.ones(3))

    # Each op reads only its input's shape in backward, so its record must
    # not keep the input's values alive until the backward pass.
    @pytest.mark.parametrize("op", [
        lambda t: ad.add(t, Tensor(np.ones(4))),
        lambda t: ad.sub(t, Tensor(np.ones(4))),
        lambda t: oracles.div(Tensor(np.ones(4)), t),
        lambda t: ad.gather_rows(t, [0, 2, 2]),
        oracles.softmax_rows,
        lambda t: oracles.group_max(t, 3),
    ], ids=["add", "sub", "div", "gather_rows", "softmax_rows", "group_max"])
    def test_record_does_not_hold_unread_input(self, op):
        tape = Tape()
        x = tape.watch(_rng(11).uniform(1.0, 2.0, size=(3, 4)))
        inner = ad.scale(x, 2.0)
        values = weakref.ref(inner.data)
        out = op(inner)
        # exp's record keeps its own result, not ``out``.
        loss = ad.sum_(ad.exp(out))
        del inner, out
        assert values() is None
        tape.backward(loss)
        assert np.abs(tape.grad(x)).sum() > 0

    def test_mixed_tapes_rejected(self):
        t1, t2 = Tape(), Tape()
        a = t1.watch(np.ones(2))
        b = t2.watch(np.ones(2))
        with pytest.raises(ValueError, match="different tapes"):
            ad.add(a, b)


class TestLayoutOps:
    def test_transpose_permutes_axes(self):
        x = _rng(5).normal(size=(2, 3, 4, 5))
        out = oracles.transpose_axes(Tensor(x), (0, 2, 3, 1))
        np.testing.assert_array_equal(out.data, np.transpose(x, (0, 2, 3, 1)))

    @pytest.mark.parametrize("axes", [(0, 1), (0, 2, 2, 1), (1, 2, 3, 4)])
    def test_transpose_rejects_non_permutation(self, axes):
        with pytest.raises(ShapeError, match=r"\(2, 3, 4, 5\)"):
            oracles.transpose_axes(Tensor(np.zeros((2, 3, 4, 5))), axes)

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 4), (2, 3, 4, 5)])
    def test_transpose_takes_matrices_only(self, shape):
        with pytest.raises(ShapeError, match="2-D"):
            ad.transpose(Tensor(np.zeros(shape)))

    def test_concat_split_roundtrip_exact(self):
        rng = _rng(8)
        parts = [rng.normal(size=(n, 3)) for n in (2, 1, 4)]
        joined = ad.concat([Tensor(p) for p in parts], axis=0)
        back = [ad.gather_rows(joined, np.arange(a, b)) for a, b in ((0, 2), (2, 3), (3, 7))]
        for orig, piece in zip(parts, back):
            np.testing.assert_array_equal(piece.data, orig)

    def test_concat_axis1(self):
        rng = _rng(9)
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 2))
        out = ad.concat([Tensor(a), Tensor(b)], axis=1)
        np.testing.assert_array_equal(out.data, np.concatenate([a, b], axis=1))

    def test_gather_rows(self):
        x = np.arange(12.0).reshape(4, 3)
        out = ad.gather_rows(Tensor(x), [2, 0, 2])
        np.testing.assert_array_equal(out.data, x[[2, 0, 2]])

    def test_gather_out_of_range(self):
        with pytest.raises(IndexError):
            ad.gather_rows(Tensor(np.zeros((3, 2))), [3])

    def test_gather_backward_accumulates_duplicates(self):
        tape = Tape()
        x = tape.watch(np.ones((3, 2)))
        out = ad.gather_rows(x, [1, 1, 0])
        tape.backward(ad.sum_(out))
        np.testing.assert_array_equal(tape.grad(x), [[1, 1], [2, 2], [0, 0]])

    # oracles.segment_sum sums the messages of edge_aggregate_unfused and the
    # denominators of signed_softmax_chain.
    def test_segment_sum(self):
        x = np.arange(8.0).reshape(4, 2)
        out = oracles.segment_sum(Tensor(x), [0, 1, 0, 1], 2)
        np.testing.assert_array_equal(out.data, [[4, 6], [8, 10]])

    # oracles.segment_max pools the text CNN's per-offset oracle, so its
    # rows and gradient are held to the same checks as the package's ops.
    def test_segment_max_forward_and_backward(self):
        tape = Tape()
        x = tape.watch(np.array([[1.0, 5.0], [3.0, 2.0], [7.0, 0.0]]))
        out = oracles.segment_max(x, [0, 0, 1], 2)
        np.testing.assert_array_equal(out.data, [[3, 5], [7, 0]])
        tape.backward(ad.sum_(out))
        np.testing.assert_array_equal(tape.grad(x), [[0, 1], [1, 0], [1, 1]])

    @pytest.mark.parametrize("op", [oracles.segment_sum, oracles.segment_max])
    @pytest.mark.parametrize("ids", [[0, -1, 1], [0, 2, 1]])
    def test_segment_id_out_of_range(self, op, ids):
        x = np.arange(6.0).reshape(3, 2)
        with pytest.raises(IndexError, match=r"\[0, 2\)"):
            op(Tensor(x), ids, 2)

    @pytest.mark.parametrize("op", [oracles.segment_sum, oracles.segment_max])
    @pytest.mark.parametrize("ids", [[0, 1], [0, 1, 0, 1], [[0], [1], [0]]])
    def test_segment_ids_must_be_one_per_row(self, op, ids):
        with pytest.raises(ShapeError, match=r"\(3,\)"):
            op(Tensor(np.zeros((3, 2))), ids, 2)

    def test_group_max_routes_ties_to_first_row(self):
        # Two groups of three rows; column 0 ties inside each group.
        tape = Tape()
        x = tape.watch(np.array([
            [1.0, 0.0], [4.0, 9.0], [4.0, 2.0],
            [-3.0, 5.0], [-3.0, 5.0], [-7.0, 6.0],
        ]))
        out = oracles.group_max(x, 2)
        np.testing.assert_array_equal(out.data, [[4, 9], [-3, 6]])
        tape.backward(ad.sum_(out))
        np.testing.assert_array_equal(
            tape.grad(x), [[0, 0], [1, 1], [0, 0], [1, 0], [0, 0], [0, 1]]
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_group_max_matches_segment_max_at(self, seed):
        # Coarse values, so most columns tie and the first attaining row matters.
        n, m = 7, 9
        x = np.round(_rng(seed).normal(size=(n * m, 5)), 1)
        tape = Tape()
        xt = tape.watch(x)
        out = oracles.group_max(xt, n)
        expected, mask = oracles.segment_max_at(x, np.repeat(np.arange(n), m), n)
        assert out.data.tobytes() == expected.tobytes()
        tape.backward(ad.sum_(out))
        np.testing.assert_array_equal(tape.grad(xt), mask)

    @pytest.mark.parametrize("shape, n_groups", [
        ((7, 2), 2), ((0, 2), 2), ((6,), 2), ((2, 3, 2), 2), ((6, 2), 0),
    ])
    def test_group_max_rows_must_split_into_groups(self, shape, n_groups):
        with pytest.raises(ShapeError, match="group_max"):
            oracles.group_max(Tensor(np.zeros(shape)), n_groups)


# ---------------------------------------------------------------------------
# scatter: one flat-key ufunc.at against the plain 2-D ufunc.at


@st.composite
def _scatter_cases(draw):
    n_slots = draw(st.integers(1, 6))
    # Per-slot multiplicities: few repeats, or a hub.
    mult = draw(st.lists(st.one_of(st.integers(0, 3), st.integers(30, 300)),
                         min_size=n_slots, max_size=n_slots))
    idx = np.repeat(np.arange(n_slots), mult)
    layout = draw(st.sampled_from(["sorted", "reversed", "shuffled"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if layout == "reversed":
        idx = idx[::-1].copy()
    elif layout == "shuffled":
        idx = rng.permutation(idx)
    row = draw(st.sampled_from([(), (1,), (8,), (304,), (2, 4), (4, 76)]))
    dtype = draw(st.sampled_from([np.float64, np.int64]))
    # Coarse values with both signed zeros, so ties and order are visible.
    pool = np.array([-2.5, -1.0, -0.0, 0.0, 0.1, 0.7, 3.0, 1e16])
    vals = rng.choice(pool, size=idx.shape + row).astype(dtype)
    out = rng.choice(pool, size=(n_slots,) + row).astype(dtype)
    return out, idx, vals


class TestScatter:
    @settings(max_examples=150, deadline=None)
    @given(case=_scatter_cases())
    def test_matches_ufunc_at(self, case):
        out, idx, vals = case
        expected = oracles.scatter_at(np.add, out, idx, vals)
        ad._scatter(out, idx, vals)
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()

    # A scatter continues from the values already in ``out``, as ufunc.at
    # does, so two successive scatters equal one over all of their entries.
    @settings(max_examples=100, deadline=None)
    @given(case=_scatter_cases(), cut=st.floats(0.0, 1.0))
    def test_successive_calls_match_one_ufunc_at(self, case, cut):
        out, idx, vals = case
        expected = oracles.scatter_at(np.add, out, idx, vals)
        k = int(cut * idx.size)
        ad._scatter(out, idx[:k], vals[:k])
        ad._scatter(out, idx[k:], vals[k:])
        assert out.tobytes() == expected.tobytes()

    def test_out_must_be_c_contiguous(self):
        out = np.zeros((4, 3)).T  # [3, 4], Fortran order
        with pytest.raises(ValueError, match="C-contiguous"):
            ad._scatter(out, np.array([0, 2, 2]), np.ones((3, 4)))
        assert not out.any()

    def test_empty_index(self):
        out = np.ones((3, 304))
        ad._scatter(out, np.zeros(0, dtype=np.int64), np.zeros((0, 304)))
        np.testing.assert_array_equal(out, np.ones((3, 304)))

    # 10 slots of width 304 with hub-shaped multiplicities.
    HUB_MULT = [120, 100, 80, 60, 40, 20, 10, 5, 3, 1]
    WIDTH = 304

    def _hub(self, seed):
        rng = _rng(seed)
        idx = rng.permutation(np.repeat(np.arange(len(self.HUB_MULT)), self.HUB_MULT))
        return idx, rng.normal(size=(idx.size, self.WIDTH))

    @pytest.mark.parametrize("seed", range(3))
    def test_hub_segment_sum_and_gather_match_ufunc_at(self, seed):
        idx, x = self._hub(seed)
        n = len(self.HUB_MULT)
        out = oracles.segment_sum(Tensor(x), idx, n)
        assert out.data.tobytes() == oracles.segment_sum_at(x, idx, n).tobytes()
        tape = Tape()
        table = tape.watch(_rng(seed + 50).normal(size=(n, self.WIDTH)))
        g = _rng(seed + 100).normal(size=(idx.size, self.WIDTH))
        tape.backward(ad.sum_(ad.mul(ad.gather_rows(table, idx), Tensor(g))))
        assert tape.grad(table).tobytes() == oracles.gather_rows_grad_at(g, idx, n).tobytes()


# ---------------------------------------------------------------------------
# signed_gat's sums over a jagged-diagonal plan against ufunc.at


class TestPlanReduce:
    # np.maximum is the softmax shift's reduction: a tie between -0.0 and
    # 0.0 keeps the value that came first, so the order of a slot's values
    # shows.  Blocks of 1 and 7 edges split slots across blocks.
    @settings(max_examples=150, deadline=None)
    @given(case=_scatter_cases(), ufunc=st.sampled_from([np.add, np.maximum]),
           block=st.sampled_from([1, 7, 64, 4096]))
    def test_matches_ufunc_at(self, case, ufunc, block):
        out, idx, vals = case
        vals, n = vals.astype(np.float64), out.shape[0]
        start = 0.0 if ufunc is np.add else -np.inf
        expected = oracles.scatter_at(ufunc, np.full(out.shape, start), idx, vals)
        got = ad._plan_reduce(ad._jagged(idx, n, block), vals, n, ufunc, start)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# signed_gat's message sum: jagged-diagonal sum against the unfused ops


def _edge_aggregate(h, alpha, src, dst, n_out):
    """``signed_gat``'s message sum and its gradient as one tape op, over
    the plans and the block size that the op builds."""
    h, alpha = ad.as_tensor(h), ad.as_tensor(alpha)
    src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    block = max(1, ad.EDGE_BLOCK_BYTES // (8 * h.shape[1]))
    out = ad._message_sum(h.data, alpha.data, src, ad._jagged(dst, n_out, block), block, n_out)

    def vjp(g):
        plan = ad._jagged(src, h.shape[0], block)
        return ad._message_sum_grad(g, h.data, alpha.data, src, dst, plan, block)

    return ad._emit(ad._tape_of(h, alpha), out, (h, alpha), vjp)


def _rows_and_grads(aggregate, h, alpha, probe):
    tape = Tape()
    ht, at = tape.watch(h), tape.watch(alpha)
    out = aggregate(ht, at)
    tape.backward(ad.sum_(ad.mul(out, Tensor(probe))))
    return out.data, tape.grad(ht), tape.grad(at)


@st.composite
def _edge_cases(draw):
    """A message sum's input: up to ~700 edges in random order over
    hub-shaped destinations and sources, with rows that take no edge on
    either side, signed zeros in h, alpha and the output's gradient, and
    the ``EDGE_BLOCK_BYTES`` to run it with: below one row (one edge per
    block), 5 or 64 rows and a part, or the module's own (small ones split
    slots across blocks)."""
    heads = draw(st.sampled_from([1, 2, 8]))
    head_dim = draw(st.sampled_from([1, 2, 38]))
    n_edges = draw(st.integers(0, 700))
    n_in, n_out = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    row = 8 * heads * head_dim  # bytes of one message
    block_bytes = draw(st.sampled_from([row // 2, row, 5 * row, 64 * row, ad.EDGE_BLOCK_BYTES]))
    block_bytes += draw(st.integers(0, row - 1))  # a part row adds no edge
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))

    def endpoints(n):  # a few hubs take most edges; the unused rows none
        used = rng.permutation(n)[: rng.integers(1, n + 1)]
        weight = rng.pareto(1.0, size=used.size) + 0.01
        return rng.choice(used, size=n_edges, p=weight / weight.sum())

    src, dst = endpoints(n_in), endpoints(n_out)
    h = rng.normal(size=(n_in, heads * head_dim))
    alpha = rng.normal(size=(n_edges, heads))
    probe = rng.normal(size=(n_out, h.shape[1]))
    for a in (h, alpha, probe):
        a[rng.random(a.shape) < 0.1] = -0.0
    h[rng.integers(n_in)] = -0.0  # a source whose messages are all -0.0
    return src, dst, h, alpha, probe, n_out, block_bytes


class TestEdgeAggregate:
    # Hub-shaped destinations, 480 edges over 10 slots, and sources over 12
    # rows of width 4*76 = 304.
    DST_MULT = [150, 120, 90, 60, 30, 15, 8, 4, 2, 1]
    N_IN, HEADS, HEAD_DIM = 12, 4, 76

    def _case(self, seed):
        rng = _rng(seed)
        dst = rng.permutation(np.repeat(np.arange(len(self.DST_MULT)), self.DST_MULT))
        src = rng.integers(0, self.N_IN, size=dst.size)
        h = rng.normal(size=(self.N_IN, self.HEADS * self.HEAD_DIM))
        alpha = rng.normal(size=(dst.size, self.HEADS))
        probe = rng.normal(size=(len(self.DST_MULT), h.shape[1]))
        return src, dst, h, alpha, probe

    # Blocks of 1 and 7 edges leave a short last block, 96 divides the 480
    # edges exactly and 1000 puts every edge in one block.
    @pytest.mark.parametrize("chunk", [1, 7, 96, 1000])
    @pytest.mark.parametrize("seed", range(2))
    def test_matches_unfused_bitwise(self, chunk, seed):
        src, dst, h, alpha, probe = self._case(seed)
        assert src.size == 480
        n_out = len(self.DST_MULT)
        expected = _rows_and_grads(
            lambda ht, at: oracles.edge_aggregate_unfused(ht, at, src, dst, n_out), h, alpha, probe
        )
        with mock.patch.object(ad, "EDGE_BLOCK_BYTES", chunk * h[0].nbytes):
            got = _rows_and_grads(
                lambda ht, at: _edge_aggregate(ht, at, src, dst, n_out), h, alpha, probe
            )
        for name, g, e in zip(("rows", "d h", "d alpha"), got, expected):
            assert g.shape == e.shape and g.tobytes() == e.tobytes(), name

    @staticmethod
    def _both(case):
        src, dst, h, alpha, probe, n_out, block_bytes = case
        expected = _rows_and_grads(
            lambda ht, at: oracles.edge_aggregate_unfused(ht, at, src, dst, n_out), h, alpha, probe
        )
        with mock.patch.object(ad, "EDGE_BLOCK_BYTES", block_bytes):
            got = _rows_and_grads(
                lambda ht, at: _edge_aggregate(ht, at, src, dst, n_out), h, alpha, probe
            )
        return got, expected

    @settings(max_examples=200, deadline=None)
    @given(case=_edge_cases())
    def test_matches_unfused_bitwise_on_any_edges(self, case):
        got, expected = self._both(case)
        for name, g, e in zip(("rows", "d h", "d alpha"), got, expected):
            assert g.shape == e.shape and g.tobytes() == e.tobytes(), name
        # A row without an in-edge reads +0.0, as np.add.at into zeros does.
        src, dst, _, _, _, n_out, _ = case
        empty = np.bincount(dst, minlength=n_out) == 0
        assert not np.signbit(got[0][empty]).any()

    # inf and NaN in one source row: the NaN cells (inf * 0, inf - inf and
    # NaN itself) are the oracle's, and every other cell is bitwise equal.
    # NaN payloads are not compared.
    @settings(max_examples=100, deadline=None)
    @given(case=_edge_cases(), seed=st.integers(0, 2**16))
    def test_non_finite_row_matches_unfused(self, case, seed):
        rng = _rng(seed)
        h = case[2]
        h[rng.integers(h.shape[0])] = rng.choice([np.inf, -np.inf, np.nan, 1.0, 0.0], h.shape[1])
        with np.errstate(invalid="ignore"):
            got, expected = self._both(case)
        for name, g, e in zip(("rows", "d h", "d alpha"), got, expected):
            nan = np.isnan(e)
            assert (np.isnan(g) == nan).all(), name
            assert g[~nan].tobytes() == e[~nan].tobytes(), name

    @staticmethod
    def _block_edges(width):
        return ad.EDGE_BLOCK_BYTES // (8 * width)

    # A block buffer holds EDGE_BLOCK_BYTES of messages: 215 edges at the
    # paper's width 304, 2,048 at width 32, and one edge at any width.  The
    # op plans over dst in its forward and over src in its vjp.
    @pytest.mark.parametrize("width, edges", [(304, 215), (32, 2048), (ad.EDGE_BLOCK_BYTES // 4, 1)])
    def test_blocks_are_sized_by_bytes(self, width, edges):
        with mock.patch.object(ad, "_jagged", wraps=ad._jagged) as plan:
            tape = Tape()
            tape.backward(ad.sum_(_gat(tape.watch(np.ones((3, 1))), width=width)))
        assert [c.args[2] for c in plan.call_args_list] == [edges, edges]

    # 10,000 input rows of width 64 (5.1 MB) into 50 output rows: the
    # forward's traced peak stays within a few outputs, one gathered block
    # of EDGE_BLOCK_BYTES (1,024 edges) and its weights, and O(E) ints, so a
    # copy of h fails it, and so does a block of 2,048 edges.
    def test_forward_peak_has_no_copy_of_h(self):
        rng = _rng(7)
        n_in, n_out, n_edges, heads, width = 10_000, 50, 4000, 2, 64
        h = rng.normal(size=(n_in, width))
        alpha = rng.normal(size=(n_edges, heads))
        src, dst = rng.integers(0, n_in, n_edges), rng.integers(0, n_out, n_edges)
        _edge_aggregate(h, alpha, src, dst, n_out)  # numpy's one-time set-up is not the op's
        tracemalloc.start()
        try:
            out = _edge_aggregate(Tensor(h), Tensor(alpha), src, dst, n_out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = self._block_edges(width) * (width + heads + 1) * 8
        bound = 3 * out.data.nbytes + block + 12 * n_edges * 8
        assert bound < h.nbytes / 3
        assert peak < bound, (peak, bound)

    # 5,000 edges from 200 input rows of width 8*38 = 304 into 50 output
    # rows: the backward's traced peak holds h's used rows and their
    # gradient, dh, dalpha, the loss's own gradient of the output twice, two
    # block buffers of EDGE_BLOCK_BYTES (215 edges each) and O(E) ints.  Two
    # buffers of 2,048 edges, 10 MB, fail it.
    def test_backward_peak_holds_two_byte_sized_blocks(self):
        rng = _rng(8)
        n_in, n_out, n_edges, heads, width = 200, 50, 5000, 8, 304
        h = rng.normal(size=(n_in, width))
        alpha = rng.normal(size=(n_edges, heads))
        src, dst = rng.integers(0, n_in, n_edges), rng.integers(0, n_out, n_edges)
        probe = Tensor(rng.normal(size=(n_out, width)))

        def recorded():
            tape = Tape()
            ht, at = tape.watch(h), tape.watch(alpha)
            return tape, ad.sum_(ad.mul(_edge_aggregate(ht, at, src, dst, n_out), probe))

        tape, loss = recorded()
        tape.backward(loss)  # numpy's one-time set-up is not the op's
        tape, loss = recorded()
        tracemalloc.start()
        try:
            tape.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        blocks = 2 * self._block_edges(width) * width * 8
        bound = 3 * h.nbytes + alpha.nbytes + 2 * probe.data.nbytes + blocks + 12 * n_edges * 8
        assert bound < 2 * 2048 * width * 8
        assert peak < bound, (peak, bound)

    def test_width_must_be_a_multiple_of_heads(self):
        with pytest.raises(ShapeError, match="width 5 of w .* multiple of 2 heads"):
            _gat(np.zeros((3, 1)), width=5)

    @pytest.mark.parametrize("src, dst", [([0] * 5, [0] * 4), ([0] * 4, [0] * 5), ([[0] * 5], [[0] * 5])])
    def test_src_and_dst_must_be_one_length(self, src, dst):
        with pytest.raises(ShapeError, match="src and dst"):
            _gat(np.zeros((3, 1)), src=src, dst=dst)

    @pytest.mark.parametrize("end, ids, pattern", [
        ("src", [0, 1, 3, 2, 0], r"src out of range \[0, 3\)"),
        ("src", [0, -1, 2, 2, 0], r"src out of range \[0, 3\)"),
        ("dst", [0, 1, 2, 1, 0], r"dst out of range \[0, 2\)"),
        ("dst", [0, 1, -1, 1, 0], r"dst out of range \[0, 2\)"),
        ("targets", [0, 3], r"targets out of range \[0, 3\)"),
        ("targets", [-1, 1], r"targets out of range \[0, 3\)"),
    ])
    def test_endpoint_out_of_range(self, end, ids, pattern):
        edges = {"src": [0] * 5, "dst": [0] * 5, "targets": [0, 1], end: ids}
        with pytest.raises(IndexError, match=pattern):
            _gat(np.zeros((3, 1)), **edges)


def _gat(x, width=4, src=(0, 1, 2, 1, 0), dst=(0, 0, 1, 1, 1), targets=(0, 1)):
    """``ad.signed_gat`` with 2 heads and weights of ones, from the rows ``x``
    over five edges into two rows."""
    d = x.shape[1]
    ones = (np.ones((d, width)), np.ones(width), np.ones(width), np.ones((width, d)))
    return ad.signed_gat(x, *ones, src, dst, targets, 2, 0.2)


# ---------------------------------------------------------------------------
# signed_gat's signed softmax: the op against the chain of tape ops it replaces


def _gat_op(leaves, src, dst, targets, heads):
    return ad.signed_gat(leaves[0], *leaves[1:], src, dst, targets, heads, 0.2)


def _gat_chain(leaves, src, dst, targets, heads):
    params = dict(zip(("gat.l0.w", "gat.l0.a_src", "gat.l0.a_dst", "gat.l0.wo"), leaves[1:]))
    return oracles.gat_layer_chain(leaves[0], EdgeBlock(src, dst, targets), params, heads, 0.2)


class TestSignedSegmentSoftmax:
    # Hub-shaped destinations over 14 slots: hubs, single-edge segments and
    # two empty ones (slots 12 and 13).
    DST_MULT = [150, 120, 90, 60, 30, 15, 8, 4, 2, 1, 1, 1, 0, 0]
    HEADS, N_IN, D = 8, 20, 4

    def _case(self, seed):
        rng = _rng(seed)
        dst = rng.permutation(np.repeat(np.arange(len(self.DST_MULT)), self.DST_MULT))
        src = rng.integers(0, self.N_IN, size=dst.size)
        targets = rng.permutation(self.N_IN)[: len(self.DST_MULT)]
        x = rng.normal(size=(self.N_IN, self.D))
        # Scores are 0 (sign 0: no weight, no gradient) from a zero row into
        # one: on some edges into hub 0, and on the single edge into slot 9.
        x[targets[[0, 9]]] = 0.0
        src[dst == 9] = targets[9]
        src[np.flatnonzero(dst == 0)[::7]] = targets[0]
        weights = [rng.normal(size=s) for s in ((self.D, 2 * self.HEADS), (2 * self.HEADS,),
                                                (2 * self.HEADS,), (2 * self.HEADS, self.D))]
        return [x] + weights, (src, dst, targets, self.HEADS)

    @staticmethod
    def _rows_and_grads(layer, values, edges):
        tape = Tape()
        leaves = [tape.watch(v) for v in values]
        out = layer(leaves, *edges)
        tape.backward(ad.sum_(ad.mul(out, Tensor(_rng(99).normal(size=out.shape)))))
        return [out.data] + [tape.grad(t) for t in leaves]

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_chain_bitwise(self, seed):
        values, edges = self._case(seed)
        expected = self._rows_and_grads(_gat_chain, values, edges)
        got = self._rows_and_grads(_gat_op, values, edges)
        for name, g, x in zip(("rows", "d x", "d w", "d a_src", "d a_dst", "d wo"), got, expected):
            assert g.shape == x.shape and g.tobytes() == x.tobytes(), name

    # The shift, from the op's reduction, over magnitudes that hold 0, inf
    # and NaN (the NaN and inf of |e| propagate into their segments).
    @pytest.mark.parametrize("seed", range(3))
    def test_shift_matches_maximum_at(self, seed):
        _, (_, dst, _, _) = self._case(seed)
        n_out = len(self.DST_MULT)
        pool = np.array([-0.0, 0.0, 0.5, 2.0, np.inf, -np.inf, np.nan])
        mag = np.abs(_rng(seed + 10).choice(pool, size=(dst.size, self.HEADS)))
        shift = ad._plan_reduce(ad._jagged(dst, n_out, 7), mag, n_out, np.maximum, -np.inf)
        expected = oracles.scatter_at(
            np.maximum, np.full((n_out, self.HEADS), -np.inf), dst, mag
        )
        assert np.isnan(expected).any() and np.isinf(expected).any()
        assert shift.tobytes() == expected.tobytes()

    def test_constant_input_gives_constant_rows(self):
        values, edges = self._case(0)
        consts = [Tensor(v) for v in values]
        out = _gat_op(consts, *edges)
        assert out.tape is None
        assert out.data.tobytes() == _gat_chain(consts, *edges).data.tobytes()

    def test_record_holds_under_three_edge_arrays(self):
        # 20,000 edges into 500 rows, whose [500, 8] arrays are each 1/40
        # of an [E, heads] array.  The chain's records keep over six
        # [E, heads] arrays here; the op's keeps the scores' exponentials and
        # signs, and 1/8 of one each for their leaky relu mask and the
        # dst plan's [E] ints, so keeping the weights or divisors fails it.
        rng = _rng(4)
        dst = np.repeat(np.arange(500), 40)
        edges = (rng.integers(0, 500, dst.size), dst, np.arange(500), self.HEADS)
        values = [rng.normal(size=s) for s in ((500, 2), (2, 8), (8,), (8,), (8, 2))]
        _gat_op(values, *edges)  # numpy's one-time set-up is not the op's
        tape = Tape()
        leaves = [tape.watch(v) for v in values]
        tracemalloc.start()
        try:
            out = _gat_op(leaves, *edges)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        units = held / (dst.size * self.HEADS * 8)
        assert units < 2.5, units
        tape.backward(ad.sum_(out))
        assert np.isfinite(tape.grad(leaves[0])).all()


# ---------------------------------------------------------------------------
# constant operands


class TestConstantOperands:
    # op, operand shapes
    CASES = {
        "matmul": (ad.matmul, (5, 4), (4, 3)),
        "mul": (ad.mul, (3, 4), (3, 4)),
        "mul_broadcast": (ad.mul, (3, 4), (4,)),
        "batched_matmul": (oracles.batched_matmul, (2, 3, 4), (2, 4, 5)),
    }

    @staticmethod
    def _grads(op, values, taped):
        tape = Tape()
        operands = [tape.watch(v) if t else Tensor(v) for v, t in zip(values, taped)]
        out = op(*operands)
        probe = Tensor(_rng(31).normal(size=out.shape))
        tape.backward(ad.sum_(ad.mul(out, probe)))
        return [tape.grad(x) if t else None for x, t in zip(operands, taped)]

    @pytest.mark.parametrize("constant", [0, 1], ids=["left", "right"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_taped_operand_gradient_is_unchanged(self, case, constant):
        op, *shapes = self.CASES[case]
        values = [_rng(30 + i).normal(size=shape) for i, shape in enumerate(shapes)]
        taped = [i != constant for i in range(2)]
        want = self._grads(op, values, [True, True])[1 - constant]
        got = self._grads(op, values, taped)[1 - constant]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    # With the other operand constant, backward reads the taped operand's
    # shape only, so the record must not keep its values alive.
    @pytest.mark.parametrize("constant", [0, 1], ids=["left", "right"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_record_does_not_hold_the_taped_operand(self, case, constant):
        op, *shapes = self.CASES[case]
        tape = Tape()
        x = tape.watch(_rng(33).normal(size=shapes[1 - constant]))
        inner = ad.scale(x, 2.0)
        values = weakref.ref(inner.data)
        c = Tensor(_rng(34).normal(size=shapes[constant]))
        out = op(c, inner) if constant == 0 else op(inner, c)
        loss = ad.sum_(ad.exp(out))
        del inner, out
        assert values() is None
        tape.backward(loss)
        assert np.abs(tape.grad(x)).sum() > 0

    # A [4096, 2048] constant left operand is 64 MiB; the product with the
    # taped right operand and its gradient are a few KiB.
    @pytest.mark.parametrize("op, constant_shape, taped_shape", [
        (ad.matmul, (4096, 2048), (2048, 2)),
        (oracles.batched_matmul, (8, 512, 1024), (8, 1024, 2)),
    ], ids=["matmul", "batched_matmul"])
    def test_backward_computes_no_gradient_for_a_constant(self, op, constant_shape, taped_shape):
        constant = Tensor(np.ones(constant_shape))
        tape = Tape()
        x = tape.watch(_rng(32).normal(size=taped_shape))
        loss = ad.sum_(op(constant, x))
        tracemalloc.start()
        try:
            tape.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < constant.data.nbytes / 16, peak
        np.testing.assert_allclose(tape.grad(x), np.broadcast_to(
            constant.data.sum(axis=-2)[..., None], taped_shape))


# ---------------------------------------------------------------------------
# grad_check on individual ops

_OP_CASES = {
    "matmul": (
        {"a": (3, 4), "b": (4, 2)},
        lambda p: ad.matmul(p["a"], p["b"]),
    ),
    "add_broadcast": (
        {"a": (3, 4), "b": (4,)},
        lambda p: ad.add(p["a"], p["b"]),
    ),
    "sub": ({"a": (3, 4), "b": (3, 4)}, lambda p: ad.sub(p["a"], p["b"])),
    "mul": ({"a": (3, 4), "b": (3, 4)}, lambda p: ad.mul(p["a"], p["b"])),
    "div": ({"a": (3, 3), "b": (3, 3)}, lambda p: oracles.div(p["a"], ad.add(ad.mul(p["b"], p["b"]), Tensor(np.full((3, 3), 0.5))))),
    "scale": ({"a": (3, 4)}, lambda p: ad.scale(p["a"], -1.7)),
    "relu": ({"a": (4, 4)}, lambda p: ad.relu(p["a"])),
    "tanh": ({"a": (4, 4)}, lambda p: ad.tanh(p["a"])),
    "exp": ({"a": (3, 3)}, lambda p: ad.exp(p["a"])),
    "log": ({"a": (3, 3)}, lambda p: ad.log(ad.add(ad.mul(p["a"], p["a"]), Tensor(np.full((3, 3), 0.3))))),
    "abs": ({"a": (4, 3)}, lambda p: oracles.abs_(p["a"])),
    "softmax_rows": ({"a": (3, 5)}, lambda p: oracles.softmax_rows(p["a"])),
    "softmax_rows_3d": ({"a": (2, 3, 4)}, lambda p: oracles.softmax_rows(p["a"])),
    "log_softmax_rows": ({"a": (3, 5)}, lambda p: ad.log_softmax_rows(p["a"])),
    "row_l2_normalize": ({"a": (3, 5)}, lambda p: ad.row_l2_normalize(p["a"])),
    "mean_axis0": ({"a": (4, 3)}, lambda p: oracles.mean(p["a"], axis=0)),
    "sum_axis1": ({"a": (4, 3)}, lambda p: ad.sum_(p["a"], axis=1)),
    "transpose": ({"a": (3, 4)}, lambda p: ad.transpose(p["a"])),
    "transpose_axes": ({"a": (2, 3, 4, 5)}, lambda p: oracles.transpose_axes(p["a"], (0, 2, 3, 1))),
    "batched_matmul": (
        {"a": (2, 3, 4), "b": (2, 4, 2)},
        lambda p: oracles.batched_matmul(p["a"], p["b"]),
    ),
    "reshape": ({"a": (3, 4)}, lambda p: ad.reshape(p["a"], (2, 6))),
    "concat": (
        {"a": (2, 3), "b": (2, 3)},
        lambda p: ad.concat([p["a"], p["b"]], axis=1),
    ),
    "gather_rows": (
        {"a": (4, 3)},
        lambda p: ad.gather_rows(p["a"], [0, 2, 2, 1]),
    ),
    # abs, div, segment_sum and leaky_relu are ops of the chain that
    # signed_gat is checked against bitwise (see TestSignedSegmentSoftmax),
    # and the chain's signed softmax and message sum are checked whole.
    "segment_sum": (
        {"a": (5, 2)},
        lambda p: oracles.segment_sum(p["a"], [0, 1, 0, 2, 1], 3),
    ),
    "leaky_relu": ({"a": (4, 4)}, lambda p: oracles.leaky_relu(p["a"], 0.2)),
    # Segment 3 is empty.  No segment has a single edge: its weight is
    # sign(e) / (1 + 1e-12), whose gradient is the guard's 1e-12-scale
    # residue, below what central differences resolve.
    "signed_segment_softmax": (
        {"e": (7, 3)},
        lambda p: oracles.signed_softmax_chain(p["e"], [0, 0, 1, 2, 1, 2, 0], 4),
    ),
    "edge_aggregate": (
        {"h": (4, 6), "alpha": (7, 3)},
        lambda p: oracles.edge_aggregate_unfused(p["h"], p["alpha"], [0, 1, 3, 2, 0, 3, 1], [0, 0, 1, 2, 2, 1, 0], 3),
    ),
    # The per-offset text CNN oracle's pool (see TestLayoutOps).
    "segment_max": (
        {"a": (5, 2)},
        lambda p: oracles.segment_max(p["a"], [0, 1, 0, 1, 1], 2),
    ),
    # The text CNN chain's pool, the oracle of conv_max_pool.
    "group_max": ({"a": (6, 3)}, lambda p: oracles.group_max(p["a"], 2)),
    "conv_max_pool": (
        {"emb": (4, 3), "w": (6, 5), "b": (5,)},
        lambda p: ad.conv_max_pool(p["emb"], np.array([[0, 1, 2, 3, 1], [3, 3, 0, 2, 1]]), p["w"], p["b"]),
    ),
    # The mask is re-seeded per call, so the function stays deterministic.
    "dropout_apply": (
        {"a": (4, 5)},
        lambda p: ad.dropout(p["a"], 0.4, np.random.default_rng(99)),
    ),
}


# Hub-shaped index, 60 rows over 3 slots, so each slot takes many values.
_HUB = _rng(5).permutation(np.repeat([1, 0, 2], [40, 15, 5]))
_HUB_EDGES = (_rng(6).integers(1, 10, size=60), _HUB, [11, 0, 10], 2)  # src, dst, targets, heads
_HUB_ROWS = np.where(np.isin(np.arange(12), _HUB_EDGES[2]), 0.01, 1.0)[:, None]
_HUB_WEIGHTS = _rng(6).uniform(-1.0, 1.0, size=(12, 4)) * _HUB_ROWS
_HUB_CASES = {
    "gather_rows_hub": ({"a": (3, 4)}, lambda p: ad.gather_rows(p["a"], _HUB)),
    "segment_sum_hub": ({"a": (60, 4)}, lambda p: oracles.segment_sum(p["a"], _HUB, 3)),
    # The reference chain's signed softmax and message sum over the hub.
    "signed_segment_softmax_hub": (
        {"e": (60, 4)},
        lambda p: oracles.signed_softmax_chain(p["e"], _HUB, 3),
    ),
    "edge_aggregate_hub": (
        {"h": (3, 4), "alpha": (60, 2)},
        lambda p: oracles.edge_aggregate_unfused(p["h"], p["alpha"], _HUB[::-1], _HUB, 3),
    ),
    # No scatter: the oracle pool, here over segments of uneven size.
    "segment_max_hub": ({"a": (60, 4)}, lambda p: oracles.segment_max(p["a"], _HUB, 3)),
    # The signed GAT layer over the hub, its sources spread over 12 input
    # rows, given as rows or as constant weights times a table.  Central
    # differences resolve neither a single-edge segment's gradient (its
    # weight is sign(e) / (1 + 1e-12)) nor a_dst's where a head's scores
    # into each row share one sign (the signed softmax does not move when
    # a row's scores shift alike): the target rows, which no edge leaves,
    # are scaled by 0.01, so the scores into a row lie on both sides of 0.
    "signed_gat_hub": (
        {"x": (12, 3), "w": (3, 4), "a_src": (4,), "a_dst": (4,), "wo": (4, 3)},
        lambda p: _gat_op([ad.mul(p["x"], Tensor(_HUB_ROWS))] + [p[k] for k in ("w", "a_src", "a_dst", "wo")],
                          *_HUB_EDGES),
    ),
    "signed_gat_hub_pair": (
        {"table": (4, 3), "w": (3, 4), "a_src": (4,), "a_dst": (4,), "wo": (4, 3)},
        lambda p: _gat_op([(_HUB_WEIGHTS, p["table"])] + [p[k] for k in ("w", "a_src", "a_dst", "wo")],
                          *_HUB_EDGES),
    ),
}


# The hand-written vjp of token attention: one input as both queries and
# keys/values (token_len 2, 2 heads), two inputs, and 4 heads over a token
# width of 6 that they do not divide (inner width 8).
_ATTENTION_CASES = {
    "self": (
        {"x": (3, 8), "wq": (4, 4), "wk": (4, 4), "wv": (4, 4), "wo": (4, 8)},
        lambda p: ad.token_attention(p["x"], p["x"], p["wq"], p["wk"], p["wv"], p["wo"], 2),
    ),
    "co": (
        {"x": (3, 8), "y": (3, 8), "wq": (4, 4), "wk": (4, 4), "wv": (4, 4), "wo": (4, 8)},
        lambda p: ad.token_attention(p["x"], p["y"], p["wq"], p["wk"], p["wv"], p["wo"], 2),
    ),
    "uneven_heads": (
        {"x": (3, 12), "y": (3, 12), "wq": (6, 8), "wk": (6, 8), "wv": (6, 8), "wo": (8, 12)},
        lambda p: ad.token_attention(p["x"], p["y"], p["wq"], p["wk"], p["wv"], p["wo"], 4),
    ),
}


@pytest.mark.parametrize("case", sorted(_ATTENTION_CASES))
@pytest.mark.parametrize("seed", range(5))
def test_token_attention_grad_check(case, seed):
    _assert_grad_check(*_ATTENTION_CASES[case], seed)


@pytest.mark.parametrize("op_name", sorted(_OP_CASES))
@pytest.mark.parametrize("seed", range(10))
def test_op_grad_check(op_name, seed):
    _assert_grad_check(*_OP_CASES[op_name], seed)


@pytest.mark.parametrize("op_name", sorted(_HUB_CASES))
@pytest.mark.parametrize("seed", range(10))
def test_scatter_pass_grad_check(op_name, seed):
    _assert_grad_check(*_HUB_CASES[op_name], seed)


def _assert_grad_check(shapes, fn, seed):
    store = ParamStore(seed=seed)
    rng = _rng(1000 + seed)
    for name, shape in shapes.items():
        store.create(name, shape)
        # Overwrite with a spread-out sample so relu/abs kinks sit far from 0.
        store.assign(name, rng.uniform(0.2, 1.5, size=shape) * rng.choice([-1.0, 1.0], size=shape))
    # Contract the op output to a scalar with fixed random weights; a linear
    # term keeps the check informative even for norm-preserving ops.
    probe = Tensor(rng.normal(size=fn(store.constants()).data.shape))

    def scalar_fn(params):
        out = fn(params)
        return ad.add(
            ad.sum_(ad.mul(out, probe)), ad.scale(ad.sum_(ad.mul(out, out)), 0.5)
        )

    assert ad.grad_check(scalar_fn, store, h=1e-4) < 1e-4


def test_grad_check_quadratic_tight():
    store = ParamStore(seed=0)
    store.create("w", (1,))
    store.assign("w", np.array([3.0]))
    err = ad.grad_check(lambda p: ad.sum_(ad.mul(p["w"], p["w"])), store, h=1e-4)
    assert err < 1e-8


def test_grad_check_softmax_cross_entropy():
    store = ParamStore(seed=1)
    store.create("logits", (4, 3))
    labels = np.array([0, 2, 1, 1])
    onehot = np.zeros((4, 3))
    onehot[np.arange(4), labels] = 1.0

    def loss(params):
        probs = oracles.softmax_rows(params["logits"])
        return ad.scale(ad.sum_(ad.mul(Tensor(onehot), ad.log(probs))), -0.25)

    assert ad.grad_check(loss, store) < 1e-5


def test_grad_check_entries_worst_is_grad_check():
    # The composite gate at seed 0, with the loss and store it checks.
    seen = []

    def spy(f, store, *args):
        seen.append((f, store))
        return ad.grad_check(f, store, *args)

    with mock.patch.object(gradcheck, "grad_check", spy):
        gate = gradcheck.check_composite(0).max_rel_error
    (f, store), = seen
    entries = oracles.grad_check_entries(f, store)
    assert [e.name for e in entries] == [n for n, v in store.items() for _ in range(v.size)]
    assert max(e.rel_error for e in entries) == gate


# ---------------------------------------------------------------------------
# dropout and determinism


def test_dropout_rate_zero_is_identity():
    x = Tensor(_rng(11).normal(size=(4, 5)))
    out = ad.dropout(x, 0.0, _rng(0))
    np.testing.assert_array_equal(out.data, x.data)


def test_dropout_train_masks_and_rescales():
    x = Tensor(np.ones((200, 50)))
    out = ad.dropout(x, 0.5, _rng(3))
    vals = np.unique(out.data)
    assert set(vals.tolist()) == {0.0, 2.0}
    assert abs(out.data.mean() - 1.0) < 0.05


def test_dropout_seeded_mask_is_reproducible():
    x = Tensor(np.ones((8, 8)))
    a = ad.dropout(x, 0.5, _rng(7))
    b = ad.dropout(x, 0.5, _rng(7))
    np.testing.assert_array_equal(a.data, b.data)


def test_tape_replay_determinism():
    def run():
        store = ParamStore(seed=42)
        store.create("w", (6, 6))
        store.create("b", (6,), init="zeros")
        tape = Tape()
        leaves = store.watch(tape)
        x = Tensor(np.linspace(-1, 1, 18).reshape(3, 6))
        h = ad.tanh(ad.linear(x, leaves["w"], leaves["b"]))
        loss = ad.sum_(ad.mul(h, h))
        tape.backward(loss)
        return loss.data.copy(), tape.grad(leaves["w"]).copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1.tobytes() == l2.tobytes()
    assert g1.tobytes() == g2.tobytes()


def test_forward_values_finite():
    rng = _rng(12)
    x = Tensor(rng.normal(size=(4, 6)))
    outs = [
        oracles.softmax_rows(x),
        ad.row_l2_normalize(x),
        ad.log(oracles.abs_(x)),
        ad.exp(x),
        ad.tanh(x),
    ]
    for out in outs:
        assert np.isfinite(out.data).all()


# ---------------------------------------------------------------------------
# parameter store


class TestParamStore:
    def test_same_seed_bitwise_identical(self):
        a = ParamStore(seed=9)
        b = ParamStore(seed=9)
        a.create("w", (5, 7))
        b.create("w", (5, 7))
        assert a.value("w").tobytes() == b.value("w").tobytes()

    def test_creation_order_does_not_matter(self):
        a = ParamStore(seed=9)
        a.create("w", (3, 3))
        a.create("u", (2, 2))
        b = ParamStore(seed=9)
        b.create("u", (2, 2))
        b.create("w", (3, 3))
        assert a.value("w").tobytes() == b.value("w").tobytes()

    def test_different_seed_differs(self):
        a = ParamStore(seed=1)
        b = ParamStore(seed=2)
        a.create("w", (4, 4))
        b.create("w", (4, 4))
        assert a.value("w").tobytes() != b.value("w").tobytes()

    def test_duplicate_name_rejected(self):
        store = ParamStore(seed=0)
        store.create("w", (2, 2))
        with pytest.raises(ValueError, match="already exists"):
            store.create("w", (2, 2))

    def test_xavier_bound(self):
        store = ParamStore(seed=3)
        w = store.create("w", (10, 30))
        bound = np.sqrt(6.0 / 40)
        assert np.abs(w).max() <= bound

    def test_snapshot_roundtrip(self):
        store = ParamStore(seed=5)
        store.create("w", (3, 2))
        snap = store.snapshot()
        store.assign("w", np.zeros((3, 2)))
        store.load_state(snap)
        assert store.value("w").tobytes() == snap["w"].tobytes()

    def test_assign_shape_checked(self):
        store = ParamStore(seed=5)
        store.create("w", (3, 2))
        with pytest.raises(ShapeError):
            store.assign("w", np.zeros((2, 3)))
