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
from ismaf.autodiff import ParamStore, ShapeError, Tape, Tensor

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
        out = ad.batched_matmul(Tensor(a), Tensor(b))
        for i in range(2):
            assert np.abs(out.data[i] - oracles.matmul_triple_loop(a[i], b[i])).max() < 1e-12

    @pytest.mark.parametrize("b_shape", [(3, 4, 2), (2, 5, 2), (4, 2)])
    def test_batched_shape_mismatch_names_both_shapes(self, b_shape):
        pattern = r"\(2, 3, 4\).*" + re.escape(str(b_shape))
        with pytest.raises(ShapeError, match=pattern):
            ad.batched_matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros(b_shape)))

    def test_vector_promotion(self):
        rng = _rng(3)
        a = rng.normal(size=(3, 4))
        x = rng.normal(size=4)
        np.testing.assert_allclose(ad.matmul(Tensor(a), Tensor(x)).data, a @ x)
        y = rng.normal(size=3)
        np.testing.assert_allclose(ad.matmul(Tensor(y), Tensor(a)).data, y @ a)


class TestSoftmaxRows:
    def test_uniform(self):
        out = ad.softmax_rows(Tensor([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]])

    def test_two_element_closed_form(self):
        c = 1.0
        out = ad.softmax_rows(Tensor([[2.0, 2.0 + c]]))
        expected = [1 / (1 + np.e), np.e / (1 + np.e)]
        np.testing.assert_allclose(out.data[0], expected, atol=1e-12)

    def test_against_direct_formula(self):
        x = _rng(4).normal(size=(5, 7))
        out = ad.softmax_rows(Tensor(x))
        assert np.abs(out.data - oracles.softmax_direct(x)).max() < 1e-12

    def test_last_axis_of_any_rank(self):
        x = _rng(6).normal(size=(2, 3, 5))
        out = ad.softmax_rows(Tensor(x))
        assert np.abs(out.data - oracles.softmax_direct(x)).max() < 1e-12
        np.testing.assert_array_equal(ad.softmax_rows(Tensor(x[0, 1])).data, out.data[0, 1])

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 8)),
            elements=st.floats(-50, 50),
        )
    )
    def test_rows_sum_to_one(self, x):
        out = ad.softmax_rows(Tensor(x))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)


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
        lambda t: ad.slice_rows(t, 1, 3),
        ad.softmax_rows,
        lambda t: ad.group_max(t, 3),
    ], ids=["add", "sub", "div", "gather_rows", "slice_rows", "softmax_rows", "group_max"])
    def test_record_does_not_hold_unread_input(self, op):
        tape = Tape()
        x = tape.watch(_rng(11).uniform(1.0, 2.0, size=(3, 4)))
        inner = ad.scale(x, 2.0)
        values = weakref.ref(inner.data)
        out = op(inner)
        # exp's record keeps its own result, not ``out``, which for a slice
        # is a view of the input and so goes too.
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
        out = ad.transpose(Tensor(x), (0, 2, 3, 1))
        np.testing.assert_array_equal(out.data, np.transpose(x, (0, 2, 3, 1)))

    @pytest.mark.parametrize("axes", [(0, 1), (0, 2, 2, 1), (1, 2, 3, 4)])
    def test_transpose_rejects_non_permutation(self, axes):
        with pytest.raises(ShapeError, match=r"\(2, 3, 4, 5\)"):
            ad.transpose(Tensor(np.zeros((2, 3, 4, 5))), axes)

    def test_concat_split_roundtrip_exact(self):
        rng = _rng(8)
        parts = [rng.normal(size=(n, 3)) for n in (2, 1, 4)]
        joined = ad.concat([Tensor(p) for p in parts], axis=0)
        back = [ad.slice_rows(joined, 0, 2), ad.slice_rows(joined, 2, 3), ad.slice_rows(joined, 3, 7)]
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
        out = ad.group_max(x, 2)
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
        out = ad.group_max(xt, n)
        expected, mask = oracles.segment_max_at(x, np.repeat(np.arange(n), m), n)
        assert out.data.tobytes() == expected.tobytes()
        tape.backward(ad.sum_(out))
        np.testing.assert_array_equal(tape.grad(xt), mask)

    @pytest.mark.parametrize("shape, n_groups", [
        ((7, 2), 2), ((0, 2), 2), ((6,), 2), ((2, 3, 2), 2), ((6, 2), 0),
    ])
    def test_group_max_rows_must_split_into_groups(self, shape, n_groups):
        with pytest.raises(ShapeError, match="group_max"):
            ad.group_max(Tensor(np.zeros(shape)), n_groups)


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
    # np.maximum is the softmax shift's scatter: a tie between -0.0 and 0.0
    # keeps the value that came first, so the order of a slot's values shows.
    @settings(max_examples=150, deadline=None)
    @given(case=_scatter_cases(), ufunc=st.sampled_from([np.add, np.maximum]))
    def test_matches_ufunc_at(self, case, ufunc):
        out, idx, vals = case
        expected = oracles.scatter_at(ufunc, out, idx, vals)
        ad._scatter(out, idx, vals, ufunc)
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()

    # edge_aggregate's forward scatters its blocks one after another into one
    # output, which must equal one scatter over all of their edges.
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
# edge_aggregate: blocked, fused message sum against the unfused ops


def _rows_and_grads(aggregate, h, alpha, probe):
    tape = Tape()
    ht, at = tape.watch(h), tape.watch(alpha)
    out = aggregate(ht, at)
    tape.backward(ad.sum_(ad.mul(out, Tensor(probe))))
    return out.data, tape.grad(ht), tape.grad(at)


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

    # 1 and 7 leave a short last block, 96 divides the 480 edges exactly and
    # 1000 puts every edge in one block.
    @pytest.mark.parametrize("chunk", [1, 7, 96, 1000])
    @pytest.mark.parametrize("seed", range(2))
    def test_matches_unfused_bitwise(self, chunk, seed):
        src, dst, h, alpha, probe = self._case(seed)
        assert src.size == 480
        n_out = len(self.DST_MULT)
        expected = _rows_and_grads(
            lambda ht, at: oracles.edge_aggregate_unfused(ht, at, src, dst, n_out), h, alpha, probe
        )
        with mock.patch.object(ad, "EDGE_CHUNK", chunk):
            got = _rows_and_grads(
                lambda ht, at: ad.edge_aggregate(ht, at, src, dst, n_out), h, alpha, probe
            )
        for name, g, e in zip(("rows", "d h", "d alpha"), got, expected):
            assert g.shape == e.shape and g.tobytes() == e.tobytes(), name

    @pytest.mark.parametrize("alpha_shape", [(6, 2), (4, 2), (5,), (5, 2, 1), (5, 0)])
    def test_alpha_must_be_edges_by_heads(self, alpha_shape):
        with pytest.raises(ShapeError, match=r"alpha \[5, heads\]"):
            ad.edge_aggregate(np.zeros((3, 4)), np.zeros(alpha_shape), [0] * 5, [0] * 5, 2)

    def test_width_must_be_a_multiple_of_heads(self):
        with pytest.raises(ShapeError, match="width 5 .* multiple of 2 heads"):
            ad.edge_aggregate(np.zeros((3, 5)), np.zeros((5, 2)), [0] * 5, [0] * 5, 2)

    @pytest.mark.parametrize("src, dst", [([0] * 5, [0] * 4), ([0] * 4, [0] * 5), ([[0] * 5], [[0] * 5])])
    def test_src_and_dst_must_be_one_length(self, src, dst):
        with pytest.raises(ShapeError, match="src and dst"):
            ad.edge_aggregate(np.zeros((3, 4)), np.zeros((5, 2)), src, dst, 2)

    @pytest.mark.parametrize("end, ids, pattern", [
        ("src", [0, 1, 3, 2, 0], r"src out of range \[0, 3\)"),
        ("src", [0, -1, 2, 2, 0], r"src out of range \[0, 3\)"),
        ("dst", [0, 1, 2, 1, 0], r"dst out of range \[0, 2\)"),
        ("dst", [0, 1, -1, 1, 0], r"dst out of range \[0, 2\)"),
    ])
    def test_endpoint_out_of_range(self, end, ids, pattern):
        edges = {"src": [0] * 5, "dst": [0] * 5, end: ids}
        with pytest.raises(IndexError, match=pattern):
            ad.edge_aggregate(np.zeros((3, 4)), np.zeros((5, 2)), edges["src"], edges["dst"], 2)


# ---------------------------------------------------------------------------
# signed_segment_softmax: one op against the chain of tape ops it replaces


class TestSignedSegmentSoftmax:
    # Hub-shaped destinations over 14 slots: hubs, single-edge segments and
    # two empty ones (slots 12 and 13).
    DST_MULT = [150, 120, 90, 60, 30, 15, 8, 4, 2, 1, 1, 1, 0, 0]
    HEADS = 8

    def _case(self, seed):
        rng = _rng(seed)
        dst = rng.permutation(np.repeat(np.arange(len(self.DST_MULT)), self.DST_MULT))
        e = rng.normal(size=(dst.size, self.HEADS))
        e[rng.random(e.shape) < 0.05] = 0.0  # sign 0: no weight, no gradient
        e[dst == 9] = 0.0  # a single-edge segment that is all zeros
        return dst, e, rng.normal(size=e.shape)

    @staticmethod
    def _rows_and_grad(op, e, probe):
        tape = Tape()
        et = tape.watch(e)
        out = op(et)
        tape.backward(ad.sum_(ad.mul(out, Tensor(probe))))
        return out.data, tape.grad(et)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_chain_bitwise(self, seed):
        dst, e, probe = self._case(seed)
        n_out = len(self.DST_MULT)
        assert (e == 0).any() and (e != 0).any()
        expected = self._rows_and_grad(
            lambda t: oracles.signed_softmax_chain(t, dst, n_out), e, probe
        )
        got = self._rows_and_grad(
            lambda t: ad.signed_segment_softmax(t, dst, n_out), e, probe
        )
        for name, g, x in zip(("rows", "d e"), got, expected):
            assert g.shape == x.shape and g.tobytes() == x.tobytes(), name

    # The shift, read from the op's own scatter, over magnitudes that hold
    # 0, inf and NaN (the NaN and inf of |e| propagate into their segments).
    @pytest.mark.parametrize("seed", range(3))
    def test_shift_matches_maximum_at(self, seed):
        dst, _, _ = self._case(seed)
        n_out = len(self.DST_MULT)
        pool = np.array([-0.0, 0.0, 0.5, 2.0, np.inf, -np.inf, np.nan])
        e = _rng(seed + 10).choice(pool, size=(dst.size, self.HEADS))
        with mock.patch.object(ad, "_scatter", wraps=ad._scatter) as spy, \
                np.errstate(invalid="ignore"):
            ad.signed_segment_softmax(Tensor(e), dst, n_out)
        (shift,) = [c.args[0] for c in spy.call_args_list if c.args[3:] == (np.maximum,)]
        expected = oracles.scatter_at(
            np.maximum, np.full((n_out, self.HEADS), -np.inf), dst, np.abs(e)
        )
        assert np.isnan(expected).any() and np.isinf(expected).any()
        assert shift.tobytes() == expected.tobytes()

    def test_constant_input_gives_constant_rows(self):
        dst, e, _ = self._case(0)
        out = ad.signed_segment_softmax(Tensor(e), dst, len(self.DST_MULT))
        assert out.tape is None
        np.testing.assert_array_equal(
            out.data, oracles.signed_softmax_chain(Tensor(e), dst, len(self.DST_MULT)).data
        )

    @pytest.mark.parametrize("shape", [(5,), (5, 2, 1)])
    def test_scores_must_be_edges_by_heads(self, shape):
        with pytest.raises(ShapeError, match=r"e \[E, heads\]"):
            ad.signed_segment_softmax(np.zeros(shape), [0] * 5, 2)

    @pytest.mark.parametrize("dst", [[0] * 4, [0] * 6, [[0] * 5]])
    def test_dst_must_be_one_per_edge(self, dst):
        with pytest.raises(ShapeError, match=r"\(5,\)"):
            ad.signed_segment_softmax(np.zeros((5, 2)), dst, 2)

    @pytest.mark.parametrize("dst", [[0, 1, 2, 1, 0], [0, 1, -1, 1, 0]])
    def test_dst_out_of_range(self, dst):
        with pytest.raises(IndexError, match=r"\[0, 2\)"):
            ad.signed_segment_softmax(np.zeros((5, 2)), dst, 2)

    def test_record_holds_under_five_edge_arrays(self):
        # The chain keeps six [E, heads] arrays on the tape (its output, |e|'s
        # sign, exp's result, div's guarded divisor and quotient, the
        # detached sign); the op keeps its output, the exponentials, the
        # guarded divisors and the signs.
        rng = _rng(4)
        dst = np.repeat(np.arange(500), 40)
        e = rng.normal(size=(dst.size, self.HEADS))
        tape = Tape()
        et = tape.watch(e)
        tracemalloc.start()
        try:
            out = ad.signed_segment_softmax(et, dst, 500)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        units = held / e.nbytes
        assert units < 4.5, units
        tape.backward(ad.sum_(out))
        assert np.isfinite(tape.grad(et)).all()


# ---------------------------------------------------------------------------
# constant operands


class TestConstantOperands:
    # op, operand shapes
    CASES = {
        "matmul": (ad.matmul, (5, 4), (4, 3)),
        "matmul_vector_left": (ad.matmul, (4,), (4, 3)),
        "matmul_vector_right": (ad.matmul, (5, 4), (4,)),
        "mul": (ad.mul, (3, 4), (3, 4)),
        "mul_broadcast": (ad.mul, (3, 4), (4,)),
        "batched_matmul": (ad.batched_matmul, (2, 3, 4), (2, 4, 5)),
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
        (ad.batched_matmul, (8, 512, 1024), (8, 1024, 2)),
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
    "leaky_relu": ({"a": (4, 4)}, lambda p: ad.leaky_relu(p["a"], 0.2)),
    "tanh": ({"a": (4, 4)}, lambda p: ad.tanh(p["a"])),
    "exp": ({"a": (3, 3)}, lambda p: ad.exp(p["a"])),
    "log": ({"a": (3, 3)}, lambda p: ad.log(ad.add(ad.mul(p["a"], p["a"]), Tensor(np.full((3, 3), 0.3))))),
    "abs": ({"a": (4, 3)}, lambda p: oracles.abs_(p["a"])),
    "softmax_rows": ({"a": (3, 5)}, lambda p: ad.softmax_rows(p["a"])),
    "softmax_rows_3d": ({"a": (2, 3, 4)}, lambda p: ad.softmax_rows(p["a"])),
    "row_l2_normalize": ({"a": (3, 5)}, lambda p: ad.row_l2_normalize(p["a"])),
    "mean_axis0": ({"a": (4, 3)}, lambda p: ad.mean(p["a"], axis=0)),
    "sum_axis1": ({"a": (4, 3)}, lambda p: ad.sum_(p["a"], axis=1)),
    "transpose": ({"a": (3, 4)}, lambda p: ad.transpose(p["a"])),
    "transpose_3d": ({"a": (2, 3, 4)}, lambda p: ad.transpose(p["a"])),
    "transpose_axes": ({"a": (2, 3, 4, 5)}, lambda p: ad.transpose(p["a"], (0, 2, 3, 1))),
    "batched_matmul": (
        {"a": (2, 3, 4), "b": (2, 4, 2)},
        lambda p: ad.batched_matmul(p["a"], p["b"]),
    ),
    "reshape": ({"a": (3, 4)}, lambda p: ad.reshape(p["a"], (2, 6))),
    "concat": (
        {"a": (2, 3), "b": (2, 3)},
        lambda p: ad.concat([p["a"], p["b"]], axis=1),
    ),
    "slice_rows": ({"a": (5, 3)}, lambda p: ad.slice_rows(p["a"], 1, 4)),
    "gather_rows": (
        {"a": (4, 3)},
        lambda p: ad.gather_rows(p["a"], [0, 2, 2, 1]),
    ),
    # abs, div and segment_sum are the oracle chain's ops (see
    # TestSignedSegmentSoftmax).
    "segment_sum": (
        {"a": (5, 2)},
        lambda p: oracles.segment_sum(p["a"], [0, 1, 0, 2, 1], 3),
    ),
    # Segment 3 is empty.  No segment has a single edge: its weight is
    # sign(e) / (1 + 1e-12), whose gradient is the guard's 1e-12-scale
    # residue, below what central differences resolve.
    "signed_segment_softmax": (
        {"e": (7, 3)},
        lambda p: ad.signed_segment_softmax(p["e"], [0, 0, 1, 2, 1, 2, 0], 4),
    ),
    # The per-offset text CNN oracle's pool (see TestLayoutOps).
    "segment_max": (
        {"a": (5, 2)},
        lambda p: oracles.segment_max(p["a"], [0, 1, 0, 1, 1], 2),
    ),
    "group_max": ({"a": (6, 3)}, lambda p: ad.group_max(p["a"], 2)),
    "edge_aggregate": (
        {"h": (4, 6), "alpha": (7, 3)},
        lambda p: ad.edge_aggregate(p["h"], p["alpha"], [0, 1, 3, 2, 0, 3, 1], [0, 0, 1, 2, 2, 1, 0], 3),
    ),
    # The mask is re-seeded per call, so the function stays deterministic.
    "dropout_apply": (
        {"a": (4, 5)},
        lambda p: ad.dropout(p["a"], 0.4, np.random.default_rng(99), training=True),
    ),
}


# Hub-shaped index, 60 rows over 3 slots, so each slot takes many values.
_HUB = _rng(5).permutation(np.repeat([1, 0, 2], [40, 15, 5]))
_HUB_CASES = {
    "gather_rows_hub": ({"a": (3, 4)}, lambda p: ad.gather_rows(p["a"], _HUB)),
    "segment_sum_hub": ({"a": (60, 4)}, lambda p: oracles.segment_sum(p["a"], _HUB, 3)),
    "signed_segment_softmax_hub": (
        {"e": (60, 4)},
        lambda p: ad.signed_segment_softmax(p["e"], _HUB, 3),
    ),
    # No scatter: the oracle pool, here over segments of uneven size.
    "segment_max_hub": ({"a": (60, 4)}, lambda p: oracles.segment_max(p["a"], _HUB, 3)),
    "edge_aggregate_hub": (
        {"h": (3, 4), "alpha": (60, 2)},
        lambda p: ad.edge_aggregate(p["h"], p["alpha"], _HUB[::-1], _HUB, 3),
    ),
}


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
        probs = ad.softmax_rows(params["logits"])
        return ad.scale(ad.sum_(ad.mul(Tensor(onehot), ad.log(probs))), -0.25)

    assert ad.grad_check(loss, store) < 1e-5


# ---------------------------------------------------------------------------
# dropout and determinism


def test_dropout_eval_is_identity():
    x = Tensor(_rng(11).normal(size=(4, 5)))
    out = ad.dropout(x, 0.5, _rng(0), training=False)
    np.testing.assert_array_equal(out.data, x.data)


def test_dropout_train_masks_and_rescales():
    x = Tensor(np.ones((200, 50)))
    out = ad.dropout(x, 0.5, _rng(3), training=True)
    vals = np.unique(out.data)
    assert set(vals.tolist()) == {0.0, 2.0}
    assert abs(out.data.mean() - 1.0) < 0.05


def test_dropout_seeded_mask_is_reproducible():
    x = Tensor(np.ones((8, 8)))
    a = ad.dropout(x, 0.5, _rng(7), training=True)
    b = ad.dropout(x, 0.5, _rng(7), training=True)
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
        ad.softmax_rows(x),
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
