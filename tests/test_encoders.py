import dataclasses
import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ismaf import autodiff as ad
from ismaf import encoders
from ismaf.autodiff import ParamStore, Tensor
from ismaf.config import TrainConfig
from ismaf.data import (
    CommentRecord,
    DatasetBundle,
    GraphInputs,
    PostRecord,
    UserRecord,
    generate_synthetic,
    split_dataset,
)
from ismaf.encoders import (
    EdgeBlock,
    SocialGraph,
    build_social_graph,
    create_gat_params,
    create_text_params,
    create_visual_params,
    encode_text_batch,
    project_visual,
    receptive_blocks,
    signed_gat_layer,
)
from ismaf.model import IsmafModel

import oracles


def _rng(seed):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# text CNN


def _text_setup(seed=0, d=6, vocab=12, kernels=(2, 3)):
    store = ParamStore(seed=seed)
    create_text_params(store, vocab, d, kernels)
    return store


# Posts of 8, 5, 2, 1 and 0 real tokens over 12 tokens: every post pads
# differently.  Then 40 posts of 30 or 25 real tokens over 20,000 tokens:
# nearly every token occurs once.  Last, integer-valued embeddings, weights
# and biases over 3 tokens, so windows tie exactly and many rows meet the
# relu's kink at 0, with a third of the probe -0.0: a gradient routed to any
# window but a row's first maximal one, or a lost sign, shows in the bits.
_TEXT_CNN_CASES = pytest.mark.parametrize("kernels, vocab, lengths, ints", [
    ((1,), 13, [8, 5, 2, 1, 0], False),
    ((2, 3), 13, [8, 5, 2, 1, 0], False),
    ((3, 4, 5), 13, [8, 5, 2, 1, 0], False),
    ((2, 8), 13, [8, 5, 2, 1, 0], False),
    ((3, 4, 5), 20_000, [30, 25] * 20, False),
    ((1, 2, 3), 4, [9, 7, 4, 2, 1, 0] * 3, True),
], ids=["kernels0", "kernels1", "kernels2", "kernels3", "vocab20000", "ties"])


def _text_cnn_run(encode, kernels, vocab, lengths, ints=False, on_tape=True):
    """Rows of ``encode`` on one of the cases above, d = 7, and, on the
    tape, every parameter's gradient of their dot product with a probe."""
    seq_len = max(lengths)
    store = _text_setup(seed=11, d=7, vocab=vocab, kernels=kernels)
    rng = _rng(12)
    if ints:
        for name, value in store.items():
            store.assign(name, rng.integers(-1, 2, size=value.shape).astype(float))
        store.value("text.embed")[0] = 0.0
    tokens = rng.integers(1, vocab, size=(len(lengths), seq_len))
    tokens[np.arange(seq_len) >= np.array(lengths)[:, None]] = 0
    if not on_tape:
        return encode(tokens, store.constants(), kernels).data, {}
    probe = rng.normal(size=(len(lengths), 7))
    if ints:
        probe[rng.random(probe.shape) < 1 / 3] = -0.0
    probe = Tensor(probe)
    tape = ad.Tape()
    params = store.watch(tape)
    out = encode(tokens, params, kernels)
    tape.backward(ad.sum_(ad.mul(out, probe)))
    return out.data, {name: tape.grad(t) for name, t in params.items()}


class TestEncodeText:
    def test_zero_embeddings_zero_bias_gives_zero(self):
        store = _text_setup()
        store.assign("text.embed", np.zeros((12, 6)))
        out = encode_text_batch([[1, 2, 3, 4, 5, 6, 7, 8]], store.constants(), (2, 3))
        np.testing.assert_array_equal(out.data[0], np.zeros(6))

    def test_kernel1_identity_filters_is_positionwise_max(self):
        d = 5
        store = _text_setup(seed=1, d=d, vocab=9, kernels=(1,))
        emb = np.abs(_rng(2).normal(size=(9, d)))
        emb[0] = 0.0
        store.assign("text.embed", emb)
        store.assign("text.conv1.w", np.eye(d))
        tokens = [3, 1, 4, 1, 5, 2]
        out = encode_text_batch([tokens], store.constants(), (1,))
        np.testing.assert_allclose(out.data[0], emb[tokens].max(axis=0))

    def test_against_sliding_window_oracle(self):
        store = _text_setup(seed=3)
        rng = _rng(4)
        tokens = rng.integers(1, 12, size=8)
        out = encode_text_batch(tokens[None, :], store.constants(), (2, 3))
        expected = oracles.text_cnn_sliding(
            tokens,
            store.value("text.embed"),
            [(store.value(f"text.conv{k}.w"), store.value(f"text.conv{k}.b")) for k in (2, 3)],
        )
        assert np.abs(out.data[0] - expected).max() < 1e-10

    def test_batch_matches_per_post(self):
        store = _text_setup(seed=5)
        rng = _rng(6)
        tokens = rng.integers(1, 12, size=(4, 8))
        batch = encode_text_batch(tokens, store.constants(), (2, 3))
        for i in range(4):
            single = encode_text_batch(tokens[i : i + 1], store.constants(), (2, 3))
            np.testing.assert_allclose(batch.data[i], single.data[0], atol=1e-12)

    def test_empty_sequence_rejected(self):
        store = _text_setup()
        with pytest.raises(ValueError, match="empty"):
            encode_text_batch(np.zeros((0, 8)), store.constants(), (2, 3))

    def test_unknown_token_rejected(self):
        store = _text_setup()
        with pytest.raises(ValueError, match="vocabulary"):
            encode_text_batch([[1, 2, 12, 0, 0, 0, 0, 0]], store.constants(), (2, 3))

    def test_batch_narrower_than_largest_kernel_rejected(self):
        store = _text_setup(kernels=(1, 3))
        with pytest.raises(ad.ShapeError, match="narrower than the largest kernel size 3"):
            encode_text_batch(np.ones((2, 2)), store.constants(), (1, 3))

    def test_invariant_to_amount_of_trailing_padding(self):
        # Same real tokens in batches of two widths, both leaving at least
        # one all-padding window per kernel; padding embedding row is zero.
        real = [3, 7, 2, 9, 4]
        store = _text_setup(seed=7)
        short = encode_text_batch([np.pad(real, (0, 5))], store.constants(), (2, 3))
        long = encode_text_batch([np.pad(real, (0, 12))], store.constants(), (2, 3))
        np.testing.assert_allclose(short.data, long.data, atol=1e-12)

    def test_output_dimension_is_d(self):
        for d in (6, 7, 11):
            store = _text_setup(seed=8, d=d, vocab=10)
            out = encode_text_batch([[1, 2, 3, 4, 5, 6, 7, 8]], store.constants(), (2, 3))
            assert out.shape == (1, d)

    def test_filter_spread_sums_to_d(self):
        store = _text_setup(d=32, vocab=10, kernels=(3, 4, 5))
        filters = [store.value(f"text.conv{k}.w").shape[1] for k in (3, 4, 5)]
        assert sum(filters) == 32
        assert max(filters) - min(filters) <= 1

    @_TEXT_CNN_CASES
    def test_matches_per_offset_oracle(self, kernels, vocab, lengths, ints):
        got, got_grads = _text_cnn_run(encode_text_batch, kernels, vocab, lengths, ints)
        want, want_grads = _text_cnn_run(oracles.text_cnn_per_offset, kernels, vocab, lengths, ints)
        assert np.abs(got - want).max() <= 1e-12
        for name in want_grads:  # text.embed and every text.conv{k}.w/b
            assert np.abs(got_grads[name] - want_grads[name]).max() <= 1e-12, name

    # The op replaced this chain of tape ops; its forward and vjp make the
    # chain's numpy calls, so rows and gradients agree to the bit, on the
    # tape and on constant parameters (the evaluate path).
    @_TEXT_CNN_CASES
    def test_bitwise_the_chain_oracle(self, kernels, vocab, lengths, ints):
        got, got_grads = _text_cnn_run(encode_text_batch, kernels, vocab, lengths, ints)
        want, want_grads = _text_cnn_run(oracles.text_cnn_chain, kernels, vocab, lengths, ints)
        assert got.tobytes() == want.tobytes()
        for name in want_grads:
            assert got_grads[name].shape == want_grads[name].shape, name
            assert got_grads[name].tobytes() == want_grads[name].tobytes(), name
        const, _ = _text_cnn_run(encode_text_batch, kernels, vocab, lengths, ints, on_tape=False)
        const_chain, _ = _text_cnn_run(oracles.text_cnn_chain, kernels, vocab, lengths, ints, on_tape=False)
        assert const.tobytes() == const_chain.tobytes() == got.tobytes()

    @pytest.mark.parametrize("kernels", [(1,), (2, 3), (3, 4, 5)])
    def test_tape_records_per_kernel(self, monkeypatch, kernels):
        # One gather of the distinct tokens, one conv_max_pool per kernel
        # size, then one concat.
        store = _text_setup(seed=13, kernels=kernels)
        emitted = []
        emit = ad.Tape.emit

        def counting_emit(tape, *args):
            emitted.append(1)
            return emit(tape, *args)

        monkeypatch.setattr(ad.Tape, "emit", counting_emit)
        tokens = _rng(14).integers(1, 12, size=(3, 8))
        encode_text_batch(tokens, store.watch(ad.Tape()), kernels)
        assert len(emitted) == len(kernels) + 2

    def test_matmuls_have_one_row_per_distinct_token(self, monkeypatch):
        # 4 posts of 8 slots over 5 distinct tokens: 20+ windows per kernel
        # size, but each kernel's op multiplies only the 5 distinct tokens'
        # embeddings by its weight.
        store = _text_setup(seed=17)
        tokens = _rng(18).choice([0, 3, 4, 7, 11], size=(4, 8))
        rows = []
        conv_max_pool = ad.conv_max_pool

        def counting_op(emb, inv, w, b):
            rows.append(emb.shape[0])
            return conv_max_pool(emb, inv, w, b)

        monkeypatch.setattr(ad, "conv_max_pool", counting_op)
        encode_text_batch(tokens, store.watch(ad.Tape()), (2, 3))
        assert rows == [5, 5] and np.unique(tokens).size == 5

    # The pool is a plain max; the chain's takes each row's first maximal
    # window.  They may differ in the sign of a zero max or the bits of a
    # NaN one, and relu(max + bias) must hide both.  Embedding row 1 is
    # +0.0 and row 2's products with w underflow to -0.0, so windows over
    # tokens 1 and 2 tie at zero, between +0.0 and -0.0 wherever the
    # window sums keep a -0.0 term (numpy 2.4's sum starts from +0.0 and
    # keeps none); row 3 is NaN.
    _POOL_EDGES = pytest.mark.parametrize("case, bias", [
        ("zero-tie", 0.0), ("zero-tie", -0.0), ("nan-window", None), ("all-padding", None),
        ("one-window", None),
    ], ids=["zero-tie-bias+0", "zero-tie-bias-0", "nan-window", "all-padding", "one-window"])
    _POOL_TOKENS = {
        "zero-tie": [[1, 2, 1, 2], [2, 1, 2, 1], [2, 2, 2, 2], [1, 1, 1, 1]],
        "nan-window": [[1, 3, 2, 4], [3, 3, 3, 3], [2, 4, 1, 1]],
        "all-padding": [[0, 0, 0, 0], [1, 2, 0, 0], [0, 0, 0, 0]],
        "one-window": [[1, 2, 3], [4, 0, 0], [0, 0, 0]],  # seq_len == k
    }

    @classmethod
    def _pool_edge_run(cls, encode, case, bias, on_tape):
        k, d = (3 if case == "one-window" else 1), 2
        embed = _rng(50).normal(size=(5, d))
        embed[0] = 0.0
        w = _rng(51).normal(size=(k * d, d))
        b = _rng(52).normal(size=d) if bias is None else np.full(d, bias)
        if case == "zero-tie":
            embed[1], embed[2] = 0.0, -1e-200
            w[:] = 1e-200
        if case == "nan-window":
            embed[3] = np.nan
        store = _text_setup(seed=0, d=d, vocab=5, kernels=(k,))
        for name, value in (("text.embed", embed), (f"text.conv{k}.w", w), (f"text.conv{k}.b", b)):
            store.assign(name, value)
        tokens = np.array(cls._POOL_TOKENS[case])
        if not on_tape:
            return encode(tokens, store.constants(), (k,)).data, {}
        tape = ad.Tape()
        params = store.watch(tape)
        out = encode(tokens, params, (k,))
        tape.backward(ad.sum_(ad.mul(out, Tensor(_rng(53).normal(size=out.shape)))))
        return out.data, {name: tape.grad(t) for name, t in params.items()}

    @_POOL_EDGES
    @pytest.mark.parametrize("on_tape", [True, False])
    def test_pool_edge_cases_bitwise_the_chain_oracle(self, case, bias, on_tape):
        got, got_grads = self._pool_edge_run(encode_text_batch, case, bias, on_tape)
        want, want_grads = self._pool_edge_run(oracles.text_cnn_chain, case, bias, on_tape)
        assert got.tobytes() == want.tobytes()
        for name in want_grads:
            assert got_grads[name].tobytes() == want_grads[name].tobytes(), name

    def test_gradient_goes_to_the_first_maximal_window(self):
        # Tokens 1 and 2 embed alike, so both windows of [1, 2] tie; only
        # token 1, the first, takes the gradient.
        store = _text_setup(seed=0, d=1, vocab=3, kernels=(1,))
        store.assign("text.embed", np.array([[0.0], [1.0], [1.0]]))
        store.assign("text.conv1.w", np.array([[2.0]]))
        store.assign("text.conv1.b", np.array([0.5]))
        tape = ad.Tape()
        params = store.watch(tape)
        tape.backward(ad.sum_(encode_text_batch(np.array([[1, 2]]), params, (1,))))
        np.testing.assert_array_equal(tape.grad(params["text.embed"]), [[0.0], [2.0], [0.0]])

    def test_pool_record_keeps_the_windows_and_nothing_larger(self):
        # 64 rows of 38 windows by 100 filters.  The record keeps the
        # [64, 38, 100] windows, for the vjp's argmax, plus arrays of at
        # most a fifth of their size (the window ids, the weight blocks,
        # the mask); a second windows-sized array, such as a transposed
        # copy for the argmax, fails it.
        rng = _rng(54)
        emb, w, b = rng.normal(size=(20, 100)), rng.normal(size=(300, 100)), rng.normal(size=100)
        inv = rng.integers(0, 20, size=(64, 40))
        ad.conv_max_pool(emb, inv, w, b)  # numpy's one-time set-up is not the op's
        tape = ad.Tape()
        leaves = [tape.watch(v) for v in (emb, w, b)]
        tracemalloc.start()
        try:
            out = ad.conv_max_pool(leaves[0], inv, leaves[1], leaves[2])
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        units = held / (64 * 38 * 100 * 8)
        assert 1.0 <= units < 1.5, units
        tape.backward(ad.sum_(out))
        assert np.isfinite(tape.grad(leaves[1])).all()

    def test_grad_check(self):
        store = _text_setup(seed=9, d=4, vocab=7, kernels=(2,))
        tokens = np.array([[1, 2, 3, 4, 5]])
        probe = Tensor(_rng(10).normal(size=(1, 4)))

        def loss(params):
            out = encode_text_batch(tokens, params, (2,))
            return ad.sum_(ad.mul(out, probe))

        assert ad.grad_check(loss, store) < 1e-4


# ---------------------------------------------------------------------------
# visual projection


class TestProjectVisual:
    def test_zero_weights_zero_bias(self):
        out = project_visual(np.ones((1, 4)), Tensor(np.zeros((4, 3))), Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, np.zeros((1, 3)))

    def test_identity_on_nonnegative_input(self):
        v = np.array([[0.5, 0.0, 2.0]])
        out = project_visual(v, Tensor(np.eye(3)), Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, v)

    def test_against_matmul_oracle(self):
        rng = _rng(11)
        v = rng.normal(size=(2, 5))
        w = rng.normal(size=(5, 3))
        b = rng.normal(size=3)
        out = project_visual(v, Tensor(w), Tensor(b))
        expected = np.maximum(oracles.matmul_triple_loop(v, w) + b, 0.0)
        assert np.abs(out.data - expected).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ad.ShapeError):
            project_visual(np.ones((1, 4)), Tensor(np.zeros((5, 3))), Tensor(np.zeros(3)))


# ---------------------------------------------------------------------------
# social graph construction


def _fixture_records():
    users = [UserRecord("u0"), UserRecord("u1")]
    posts = [
        PostRecord("p0", [1], np.zeros(2), "u0", 0),
        PostRecord("p1", [1], np.zeros(2), "u0", 1),
        PostRecord("p2", [1], np.zeros(2), "u1", 0),
    ]
    comments = [
        CommentRecord("c0", [1], "u1", "p0"),
        CommentRecord("c1", [1], "u0", "p1"),
    ]
    return posts, comments, users


def _private_tokens(posts, comments, vectors):
    """The records with one private token per text, and an embedding table
    whose row for that token is ``vectors[text id]`` (row 0 is padding), so
    each text's feature is its vector."""
    texts = list(posts) + list(comments)
    embed = np.zeros((len(texts) + 1, len(next(iter(vectors.values())))))
    out = []
    for tok, rec in enumerate(texts, start=1):
        embed[tok] = vectors[rec.id]
        out.append(dataclasses.replace(rec, tokens=[tok]))
    return out[: len(posts)], out[len(posts) :], embed


def _spread_tokens(data):
    """The corpus with token id t renamed 160 * t: the same texts over a
    vocabulary 160 times as wide (19,201 ids for the synthetic 121)."""
    def spread(rec):
        return dataclasses.replace(rec, tokens=[160 * t for t in rec.tokens])

    return DatasetBundle(
        [spread(p) for p in data.posts], [spread(c) for c in data.comments], data.users
    )


# Synthetic corpora for the similarity join: (posts, seed, add a user who
# wrote nothing, spread the tokens over 19,201 ids).  Their node counts, 190
# and 620, leave a ragged last tile at tile sizes 7 and 512.
_JOIN_CORPORA = {
    "60": (60, 34, False, False),
    "200-lurker": (200, 35, True, False),
    "60-wide": (60, 34, False, True),
}


def _join_corpus(corpus):
    """A ``_JOIN_CORPORA`` corpus as (posts, comments, users, embed).  A
    4-wide table spreads the cosines, so every theta adds similarity edges
    to the structural ones."""
    n, seed, lurker, wide = _JOIN_CORPORA[corpus]
    data = generate_synthetic(n=n, d=16, separation=2.0, seed=seed)
    if wide:
        data = _spread_tokens(data)
    users = data.users + [UserRecord("lurker")] * lurker
    embed = _rng(seed).normal(size=(data.vocab_size, 4))
    return data.posts, data.comments, users, embed


def _assert_bytes_equal(got, expected):
    np.testing.assert_array_equal(got, expected)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


@st.composite
def _graph_records(draw):
    """A small record set and an embedding table: tokens drawn from a few
    ids, so texts repeat them; texts without tokens, and at max_len 0 every
    text; users who wrote nothing; a table with rows no text uses."""
    vocab = draw(st.integers(2, 6))
    max_len = draw(st.sampled_from([0, 3, 6]))
    tokens = st.lists(st.integers(1, vocab - 1), max_size=max_len)
    users = [UserRecord(f"u{i}") for i in range(draw(st.integers(1, 4)))]
    author = st.sampled_from([u.id for u in users])
    posts = [
        PostRecord(f"p{i}", draw(tokens), np.zeros(2), draw(author), 0)
        for i in range(draw(st.integers(1, 5)))
    ]
    comments = [
        CommentRecord(f"c{i}", draw(tokens), draw(author), draw(st.sampled_from(posts)).id)
        for i in range(draw(st.integers(0, 5)))
    ]
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    embed = rng.normal(size=(vocab + draw(st.integers(0, 2)), draw(st.integers(1, 4))))
    return posts, comments, users, embed


class TestBuildSocialGraph:
    def test_identical_embeddings_connect_with_weight_one(self):
        posts, comments, users = _fixture_records()
        emb = {"p0": np.array([1.0, 0.0]), "p1": np.array([1.0, 0.0]), "p2": np.array([0.0, 1.0]),
               "c0": np.array([0.3, 0.4]), "c1": np.array([-0.3, 0.4])}
        posts, comments, embed = _private_tokens(posts, comments, emb)
        g = build_social_graph(GraphInputs.from_records(posts, comments, users), embed, theta=0.5)
        feats = g.token_weights @ embed
        i, j = g.index["p0"], g.index["p1"]
        mask = (g.src == i) & (g.dst == j)
        assert mask.any()
        assert oracles.cosine(feats[i], feats[j]) == pytest.approx(1.0)

    def test_orthogonal_unrelated_posts_not_connected(self):
        users = [UserRecord("u0"), UserRecord("u1")]
        posts = [
            PostRecord("p0", [1], np.zeros(2), "u0", 0),
            PostRecord("p1", [1], np.zeros(2), "u1", 1),
        ]
        emb = {"p0": np.array([1.0, 0.0]), "p1": np.array([0.0, 1.0])}
        posts, _, embed = _private_tokens(posts, [], emb)
        g = build_social_graph(GraphInputs.from_records(posts, [], users), embed, theta=0.5)
        i, j = g.index["p0"], g.index["p1"]
        assert not ((g.src == i) & (g.dst == j)).any()

    def test_full_adjacency_matches_enumeration_oracle(self):
        posts, comments, users = _fixture_records()
        rng = _rng(12)
        emb = {nid: rng.normal(size=3) for nid in ["p0", "p1", "p2", "c0", "c1"]}
        theta = 0.3
        posts, comments, embed = _private_tokens(posts, comments, emb)
        g = build_social_graph(GraphInputs.from_records(posts, comments, users), embed, theta=theta)

        # Oracle: recompute user embeddings, all pairwise cosines, and the
        # expected undirected adjacency from scratch.
        full = dict(emb)
        full["u0"] = (emb["p0"] + emb["p1"] + emb["c1"]) / 3.0
        full["u1"] = (emb["p2"] + emb["c0"]) / 2.0
        structural = {("p0", "u0"), ("p1", "u0"), ("p2", "u1"),
                      ("c0", "u1"), ("c1", "u0"), ("c0", "p0"), ("c1", "p1")}
        ids = g.node_ids
        expected = set()
        for a in range(len(ids)):
            for b in range(len(ids)):
                if a == b:
                    continue
                pair_named = (ids[a], ids[b])
                if oracles.cosine(full[ids[a]], full[ids[b]]) >= theta:
                    expected.add(pair_named)
                if pair_named in structural or (ids[b], ids[a]) in structural:
                    expected.add(pair_named)
        got = {
            (ids[s], ids[t])
            for s, t in zip(g.src, g.dst)
            if s != t
        }
        assert got == expected
        feats = g.token_weights @ embed
        for s, t in zip(g.src, g.dst):
            if s != t:
                assert oracles.cosine(feats[s], feats[t]) == pytest.approx(
                    oracles.cosine(full[ids[s]], full[ids[t]]), abs=1e-9
                )

    def test_graph_is_symmetric_with_self_loops(self):
        posts, comments, users = _fixture_records()
        rng = _rng(13)
        emb = {nid: rng.normal(size=4) for nid in ["p0", "p1", "p2", "c0", "c1"]}
        posts, comments, embed = _private_tokens(posts, comments, emb)
        g = build_social_graph(GraphInputs.from_records(posts, comments, users), embed, theta=0.4)
        directed = set(zip(g.src.tolist(), g.dst.tolist()))
        for s, t in directed:
            assert (t, s) in directed
        for i in range(g.n_nodes):
            assert (i, i) in directed

    def test_user_embedding_is_mean_of_associated(self):
        posts, comments, users = _fixture_records()
        rng = _rng(14)
        emb = {nid: rng.normal(size=4) for nid in ["p0", "p1", "p2", "c0", "c1"]}
        posts, comments, embed = _private_tokens(posts, comments, emb)
        g = build_social_graph(GraphInputs.from_records(posts, comments, users), embed, theta=0.4)
        expected = (emb["p0"] + emb["p1"] + emb["c1"]) / 3.0
        row = g.index["u0"]
        assert np.abs((g.token_weights @ embed)[row] - expected).max() < 1e-12
        direct = oracles.node_features_direct(posts, comments, users, embed)
        assert np.abs(direct[row] - expected).max() < 1e-12

    def test_user_without_content_gets_zero_embedding(self):
        users = [UserRecord("u0"), UserRecord("lurker")]
        posts = [PostRecord("p0", [1], np.zeros(2), "u0", 0)]
        posts, _, embed = _private_tokens(posts, [], {"p0": np.array([1.0, 2.0])})
        g = build_social_graph(GraphInputs.from_records(posts, [], users), embed, theta=0.5)
        row = g.index["lurker"]
        np.testing.assert_array_equal((g.token_weights @ embed)[row], np.zeros(2))
        direct = oracles.node_features_direct(posts, [], users, embed)
        np.testing.assert_array_equal(direct[row], np.zeros(2))

    def test_similarity_edges_meet_threshold(self):
        posts, comments, users = _fixture_records()
        rng = _rng(15)
        emb = {nid: rng.normal(size=3) for nid in ["p0", "p1", "p2", "c0", "c1"]}
        theta = 0.3
        posts, comments, embed = _private_tokens(posts, comments, emb)
        g = build_social_graph(GraphInputs.from_records(posts, comments, users), embed, theta=theta)
        feats = g.token_weights @ embed
        structural = {("p0", "u0"), ("p1", "u0"), ("p2", "u1"),
                      ("c0", "u1"), ("c1", "u0"), ("c0", "p0"), ("c1", "p1")}
        structural |= {(b, a) for a, b in structural}
        for s, t in zip(g.src, g.dst):
            if s == t or (g.node_ids[s], g.node_ids[t]) in structural:
                continue
            assert oracles.cosine(feats[s], feats[t]) >= theta - 1e-12

    def test_same_kind_switch_drops_cross_kind_similarity(self):
        users = [UserRecord("u0"), UserRecord("u1")]
        posts = [
            PostRecord("p0", [1], np.zeros(2), "u0", 0),
            PostRecord("p1", [1], np.zeros(2), "u1", 0),
        ]
        comments = []
        # p0 and u1 (whose feature is p1's) would match by similarity alone;
        # same-kind blocks it.
        posts, comments, embed = _private_tokens(
            posts, comments, {"p0": np.array([1.0, 0.0]), "p1": np.array([1.0, 0.5])}
        )
        g_all = build_social_graph(GraphInputs.from_records(posts, comments, users), embed, theta=-0.5, connect_kinds="all")
        g_same = build_social_graph(GraphInputs.from_records(posts, comments, users), embed, theta=-0.5, connect_kinds="same-kind")
        i, j = g_same.index["p0"], g_same.index["u1"]
        assert ((g_all.src == i) & (g_all.dst == j)).any()
        assert not ((g_same.src == i) & (g_same.dst == j)).any()

    def test_given_edges_replace_the_join(self):
        data = generate_synthetic(n=20, d=4, separation=2.0, seed=3)
        records = dict(posts=data.posts, comments=data.comments, users=data.users)
        embed = _rng(3).normal(size=(data.vocab_size, 8))
        built = build_social_graph(GraphInputs.from_records(**records), embed=embed, theta=0.0)
        loop = np.arange(built.n_nodes)
        given = build_social_graph(GraphInputs.from_records(**records), embed=embed, theta=0.0, edges=(loop, loop))
        assert given.src is loop and given.dst is loop
        assert given.token_weights.tobytes() == built.token_weights.tobytes()
        with pytest.raises(ValueError, match="self-loop"):
            build_social_graph(GraphInputs.from_records(**records), embed=embed, edges=(loop[1:], loop[1:]))

    # The GAT assumes a symmetric graph, so a one-way edge is refused
    # whichever way the edges come, here a model's ``edges=``.
    def test_one_way_given_edge_rejected(self):
        cfg = TrainConfig(d=16, token_len=4)
        data = split_dataset(generate_synthetic(n=40, d=16, separation=2.0, seed=3), cfg.fractions, cfg.seed)
        graph = IsmafModel(cfg, data).graph
        src, dst = graph.src, graph.dst
        drop = np.argmax(src != dst)  # the first non-loop edge; its reverse stays
        s, t = src[drop], dst[drop]
        with pytest.raises(ValueError, match=f"holds a one-way edge {t} -> {s} "):
            IsmafModel(cfg, data, edges=(np.delete(src, drop), np.delete(dst, drop)))

    def test_unknown_user_reference_rejected(self):
        posts = [PostRecord("p0", [1], np.zeros(2), "ghost", 0)]
        with pytest.raises(ValueError, match="unknown user"):
            build_social_graph(GraphInputs.from_records(posts, [], [UserRecord("u0")]), np.ones((2, 2)))

    @pytest.mark.parametrize(
        "extra, repeated",
        [
            ({"comments": [CommentRecord("p1", [1], "u1", "p0")]}, "p1"),
            ({"users": [UserRecord("c0")]}, "c0"),
            ({"users": [UserRecord("u1")]}, "u1"),
            ({"posts": [PostRecord("p1", [1], np.zeros(2), "u1", 0)]}, "p1"),
        ],
        ids=["comment-as-post", "user-as-comment", "user-twice", "post-twice"],
    )
    def test_repeated_node_id_rejected(self, extra, repeated):
        posts, comments, users = _fixture_records()
        records = {"posts": posts, "comments": comments, "users": users}
        for kind, more in extra.items():
            records[kind] = records[kind] + more
        with pytest.raises(ValueError, match=f"node id '{repeated}' is used by more than one"):
            build_social_graph(GraphInputs.from_records(**records), embed=np.ones((2, 2)))

    def test_token_weights_give_direct_node_features(self):
        data = generate_synthetic(n=60, d=8, separation=2.0, seed=32)
        users = data.users + [UserRecord("lurker")]
        embed = _rng(33).normal(size=(data.vocab_size, 8))
        g = build_social_graph(GraphInputs.from_records(data.posts, data.comments, users), embed, theta=0.5)
        direct = oracles.node_features_direct(data.posts, data.comments, users, embed)
        assert np.abs(g.token_weights @ embed - direct).max() <= 1e-12
        assert not direct[g.index["lurker"]].any()
        assert any(len(set(p.tokens)) < len(p.tokens) for p in data.posts)

    @pytest.mark.parametrize("theta", [-0.5, 0.0])
    def test_zero_feature_nodes_get_no_similarity_edges(self, theta):
        # c0 has no tokens and u2 wrote nothing, so both features are zero;
        # a zero cosine would pass any theta <= 0.
        users = [UserRecord("u0"), UserRecord("u1"), UserRecord("u2")]
        posts = [
            PostRecord("p0", [1], np.zeros(2), "u0", 0),
            PostRecord("p1", [2], np.zeros(2), "u1", 1),
        ]
        comments = [CommentRecord("c0", [], "u0", "p1")]
        embed = np.array([[0.0, 0.0], [1.0, 0.2], [0.3, 1.0]])
        g = build_social_graph(GraphInputs.from_records(posts, comments, users), embed, theta=theta)
        pairs = {(g.node_ids[s], g.node_ids[t]) for s, t in zip(g.src, g.dst) if s != t}
        assert {t for s, t in pairs if s == "c0"} == {"u0", "p1"}
        assert not any("u2" in pair for pair in pairs)
        assert ("p0", "p1") in pairs  # cosine 0.47 >= theta
        src, dst = oracles.social_graph_dense(g, posts, comments, embed, theta, "all")
        np.testing.assert_array_equal(g.src, src)
        np.testing.assert_array_equal(g.dst, dst)

    @pytest.mark.parametrize("theta", [float("nan"), -1.0, -1.5, 1.0, 1.0 + 1e-9, 2.0])
    def test_theta_outside_open_unit_interval_rejected(self, theta):
        posts, comments, users = _fixture_records()
        with pytest.raises(ValueError, match=r"theta must lie in \(-1, 1\)"):
            build_social_graph(GraphInputs.from_records(posts, comments, users), np.ones((2, 2)), theta=theta)
        # TrainConfig checks finiteness first, so nan reads "must be finite".
        with pytest.raises(ValueError, match=r"theta must (lie in \(-1, 1\)|be finite)"):
            TrainConfig(theta=theta)

    def test_negative_theta_accepted(self):
        # TrainConfig and the graph build take one range, (-1, 1).
        model = _social_model(n=20, theta=-0.5)
        assert model.config.theta == -0.5
        assert model.graph.src.size > _social_model(n=20, theta=0.5).graph.src.size

    @pytest.mark.parametrize("tile", ["1", "7", "exact", "default"])
    @pytest.mark.parametrize("connect_kinds", ["all", "same-kind"])
    @pytest.mark.parametrize("theta", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("corpus", sorted(_JOIN_CORPORA))
    def test_tiled_join_matches_dense_oracle(self, monkeypatch, corpus, theta, connect_kinds, tile):
        posts, comments, users, embed = _join_corpus(corpus)
        n_nodes = len(posts) + len(comments) + len(users)
        if tile == "exact":
            exact = max(t for t in range(2, n_nodes // 2) if n_nodes % t == 0)
            monkeypatch.setattr(encoders, "SIM_TILE", exact)
        elif tile != "default":
            monkeypatch.setattr(encoders, "SIM_TILE", int(tile))
        g = build_social_graph(GraphInputs.from_records(posts, comments, users), embed, theta, connect_kinds)
        _assert_bytes_equal(g.token_weights, oracles.token_weights_at(posts, comments, users, embed.shape[0]))
        src, dst = oracles.social_graph_dense(g, posts, comments, embed, theta, connect_kinds)
        assert g.src.dtype == src.dtype and g.dst.dtype == dst.dtype
        np.testing.assert_array_equal(g.src, src)
        np.testing.assert_array_equal(g.dst, dst)
        structural = 2 * (len(posts) + 2 * len(comments)) + n_nodes
        assert g.src.size > structural

    def test_token_weights_match_oracle_with_lurker_and_empty_comment(self):
        data = generate_synthetic(n=60, d=8, separation=2.0, seed=32)
        comments = data.comments + [CommentRecord("silent", [], data.users[0].id, data.posts[0].id)]
        users = data.users + [UserRecord("lurker")]
        embed = _rng(32).normal(size=(data.vocab_size, 8))
        g = build_social_graph(GraphInputs.from_records(data.posts, comments, users), embed, theta=0.5)
        _assert_bytes_equal(g.token_weights, oracles.token_weights_at(data.posts, comments, users, data.vocab_size))
        assert not g.token_weights[[g.index["silent"], g.index["lurker"]]].any()

    @settings(max_examples=150, deadline=None)
    @given(
        case=_graph_records(),
        theta=st.sampled_from([-0.9, -0.3, 0.0, 0.4, 0.8]),
        connect_kinds=st.sampled_from(encoders.CONNECT_KINDS),
        tile=st.integers(1, 8),
    )
    def test_small_record_sets_match_oracles(self, case, theta, connect_kinds, tile):
        posts, comments, users, embed = case
        with mock.patch.object(encoders, "SIM_TILE", tile):
            g = build_social_graph(GraphInputs.from_records(posts, comments, users), embed, theta, connect_kinds)
        _assert_bytes_equal(g.token_weights, oracles.token_weights_at(posts, comments, users, embed.shape[0]))
        if not any(rec.tokens for rec in posts + comments):
            assert not g.token_weights.any()
        src, dst = oracles.social_graph_dense(g, posts, comments, embed, theta, connect_kinds)
        np.testing.assert_array_equal(g.src, src)
        np.testing.assert_array_equal(g.dst, dst)

    @pytest.mark.parametrize("bad", ["past-the-table", "negative"])
    def test_token_outside_the_table_rejected(self, bad):
        data = generate_synthetic(n=60, d=8, separation=2.0, seed=32)
        texts = data.posts + data.comments
        if bad == "negative":
            # Records reject a negative id when made, so change one after.
            at, vocab = max(i for i, rec in enumerate(texts) if rec.tokens), data.vocab_size
            texts[at].tokens[0] = tok = -1
        else:
            # The table is one row too short for the largest id.
            vocab = tok = data.vocab_size - 1
            at = next(i for i, rec in enumerate(texts) if tok in rec.tokens)
        kind = "post" if at < len(data.posts) else "comment"
        with pytest.raises(ValueError, match=rf"{kind} {texts[at].id}: token id {tok} outside the embedding table \[0, {vocab}\)"):
            build_social_graph(GraphInputs.from_records(data.posts, data.comments, data.users), np.ones((vocab, 8)))

    def test_build_holds_no_dense_node_by_node_matrix(self):
        data = generate_synthetic(n=1000, d=32, separation=2.0, seed=37)
        embed = _rng(37).normal(size=(data.vocab_size, 32))
        n_nodes = len(data.posts) + len(data.comments) + len(data.users)
        tracemalloc.start()
        try:
            build_social_graph(GraphInputs.from_records(data.posts, data.comments, data.users), embed, theta=0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n_nodes * n_nodes * 8 / 2, (peak, n_nodes)

    def test_build_peak_stays_near_the_token_table(self):
        # Over 19,201 ids the token table dominates the build: nothing else
        # may be of its size.
        data = _spread_tokens(generate_synthetic(n=60, d=8, separation=2.0, seed=38))
        embed = _rng(38).normal(size=(data.vocab_size, 8))
        tracemalloc.start()
        try:
            g = build_social_graph(GraphInputs.from_records(data.posts, data.comments, data.users), embed, theta=0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table = g.token_weights.nbytes
        assert peak < 1.5 * table, (peak, table)


# Offsets from theta, in units of the join's float64 band (d + 4) * 2**-23,
# of the planted pairs' cosines: deep inside the band, where the float32
# cosine alone often lands on the wrong side of theta, halfway and at its
# edge, and outside it.
_BAND_OFFSETS = (1e-4, 1e-3, 0.5, 0.99, 1.01, 2.0)


def _band(d):
    return (d + 4) * 2.0**-23


def _planted_records(vectors):
    """One post per feature vector, each with a private token whose row of
    the returned table is the vector, all written by one user."""
    posts = [PostRecord(f"p{i}", [i + 1], np.zeros(2), "u0", 0) for i in range(len(vectors))]
    embed = np.vstack([np.zeros(vectors.shape[1]), vectors])
    return posts, [UserRecord("u0")], embed


def _similar_pairs(g):
    return {(s, t) for s, t in zip(g.src.tolist(), g.dst.tolist()) if s != t}


class TestSimilarityBand:
    @pytest.mark.parametrize("theta", [-0.5, 0.0, 0.5, 0.9])
    @pytest.mark.parametrize("d", [4, 32, 300])
    def test_planted_pairs_match_dense_oracle(self, d, theta):
        # Four pairs per signed offset, each a random unit x and
        # y = c x + sqrt(1 - c^2) z with z a unit orthogonal to x, scaled
        # to norms in [0.5, 2]: their float64 cosine is c to ~1e-12.
        rng = _rng(d)
        targets = [theta + sign * off * _band(d) for off in _BAND_OFFSETS for sign in (-1, 1)] * 4
        vectors = []
        for c in targets:
            x, z = np.linalg.qr(rng.normal(size=(d, 2)))[0].T
            vectors += [x * rng.uniform(0.5, 2), (c * x + math.sqrt(1 - c * c) * z) * rng.uniform(0.5, 2)]
        posts, users, embed = _planted_records(np.array(vectors))
        g = build_social_graph(GraphInputs.from_records(posts, [], users), embed, theta)
        src, dst = oracles.social_graph_dense(g, posts, [], embed, theta, "all")
        np.testing.assert_array_equal(g.src, src)
        np.testing.assert_array_equal(g.dst, dst)
        pairs = _similar_pairs(g)
        assert [(2 * k, 2 * k + 1) in pairs for k in range(len(targets))] == [c >= theta for c in targets]

    # At theta = 1 every pair is in the band, and the 1e-12 in the unit
    # rows' divisor keeps even identical features' dot below 1 unless their
    # norm is ~1e4: the graph would keep almost no similarity edge.  Both
    # entry points refuse it, a checkpoint's config included.
    def test_theta_one_refused(self):
        posts, users, embed = _planted_records(np.repeat(np.eye(4), 2, axis=0))
        with pytest.raises(ValueError, match=r"theta must lie in \(-1, 1\), got 1.0"):
            build_social_graph(GraphInputs.from_records(posts, [], users), embed, theta=1.0)
        with pytest.raises(ValueError, match=r"theta must lie in \(-1, 1\), got 1.0"):
            TrainConfig(theta=1.0)
        twins = {(2 * k, 2 * k + 1) for k in range(4)}
        assert twins <= _similar_pairs(build_social_graph(GraphInputs.from_records(posts, [], users), embed, theta=0.999))

    # The band holds twice the float32 error bound: a float32 dot of two
    # length-d rows, each component rounded to float32 once, is within
    # gamma_(d+2) * sum |x_i y_i| of the exact dot (Higham, Accuracy and
    # Stability of Numerical Algorithms, section 3.1), and
    # 2 * (d + 2) * 2**-24 < (d + 4) * 2**-23.
    @pytest.mark.parametrize("pattern", ["equal", "alternating", "halves"])
    def test_float32_dot_error_within_half_band(self, pattern):
        worst = 0.0
        for d in range(1, 513):
            # Magnitudes float32 cannot hold, so every product rounds.
            x = (1 + np.arange(d) * (math.pi * 1e-4)) / math.sqrt(d)
            if pattern == "equal":
                x = np.full(d, 1 / math.sqrt(d))
                y = x
            elif pattern == "alternating":  # + - + - ..., cancelling pairwise
                y = x * np.where(np.arange(d) % 2, -1.0, 1.0)
            else:  # + for the first half, - for the second: the sum climbs, then cancels
                y = x * np.where(np.arange(d) < d // 2, 1.0, -1.0)
            x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
            rows = np.stack([x, y]).astype(np.float32)
            exact = math.fsum(x * y)
            bound = (d + 2) * 2.0**-24 / (1 - (d + 2) * 2.0**-24) * math.fsum(np.abs(x * y))
            for got in ((rows @ rows.T)[0, 1], (rows[:1] @ rows[1:].T)[0, 0]):
                err = abs(float(got) - exact)
                assert err <= bound < _band(d) / 2, (d, err, bound)
                worst = max(worst, err / _band(d))
        assert worst > 0


# ---------------------------------------------------------------------------
# signed GAT


SLOPE = TrainConfig().gat_leaky_slope


def _gat_setup(d=4, heads=2, layers=1, seed=0):
    store = ParamStore(seed=seed)
    create_gat_params(store, d, heads, layers)
    return store


def _manual_graph(n, undirected_pairs):
    """The block of every edge of an n-node graph: both directions of each
    pair, then one self-loop per node; output row i is input row i."""
    src = [i for i, _ in undirected_pairs] + [j for _, j in undirected_pairs] + list(range(n))
    dst = [j for _, j in undirected_pairs] + [i for i, _ in undirected_pairs] + list(range(n))
    return EdgeBlock(np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), np.arange(n))


class TestSignedGat:
    def test_single_node_self_loop_is_projected_nonlinearity(self):
        d = 3
        store = _gat_setup(d=d, heads=1, seed=1)
        # Positive attention params and features keep e > 0, so alpha = 1.
        store.assign("gat.l0.a_src", np.full(d, 0.3))
        store.assign("gat.l0.a_dst", np.full(d, 0.3))
        w = np.abs(store.value("gat.l0.w"))
        store.assign("gat.l0.w", w)
        graph = _manual_graph(1, [])
        h = np.abs(_rng(16).normal(size=(1, d)))
        out = signed_gat_layer(Tensor(h), graph, store.constants(), 1, SLOPE)
        expected = np.tanh(h @ w @ store.value("gat.l0.wo"))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_equal_positive_scores_give_uniform_attention(self):
        # Identical node features make every e_ij equal; force them positive.
        d = 4
        store = _gat_setup(d=d, heads=2, seed=2)
        store.assign("gat.l0.a_src", np.abs(store.value("gat.l0.a_src")))
        store.assign("gat.l0.a_dst", np.abs(store.value("gat.l0.a_dst")))
        store.assign("gat.l0.w", np.abs(store.value("gat.l0.w")))
        n = 4
        graph = _manual_graph(n, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        h = np.tile(np.abs(_rng(17).normal(size=d)), (n, 1))
        out = signed_gat_layer(Tensor(h), graph, store.constants(), 2, SLOPE)
        # Uniform alpha over n identical neighbors reproduces the single-node
        # computation exactly: sum_j (1/n) Wh = Wh.
        single = _manual_graph(1, [])
        expected = signed_gat_layer(Tensor(h[:1]), single, store.constants(), 2, SLOPE)
        np.testing.assert_allclose(out.data, np.tile(expected.data, (n, 1)), atol=1e-10)

    def test_against_enumeration_oracle(self):
        d, heads = 4, 2
        store = _gat_setup(d=d, heads=heads, seed=3)
        graph = _manual_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        h = _rng(18).normal(size=(4, d))
        out = signed_gat_layer(Tensor(h), graph, store.constants(), heads, SLOPE)
        neighbors = [[j for j, i in zip(graph.src, graph.dst) if i == node] for node in range(4)]
        expected = oracles.signed_gat_enumerated(
            h,
            neighbors,
            store.value("gat.l0.w"),
            store.value("gat.l0.a_src"),
            store.value("gat.l0.a_dst"),
            store.value("gat.l0.wo"),
            heads,
            SLOPE,
        )
        assert np.abs(out.data - expected).max() < 1e-10

    def test_absolute_attention_sums_to_one(self):
        # Recover |alpha| sums through the oracle construction on the same
        # inputs the layer consumes; every (node, head) must normalize.
        d, heads = 4, 2
        store = _gat_setup(d=d, heads=heads, seed=4)
        graph = _manual_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        h = _rng(19).normal(size=(5, d))
        hw = h @ store.value("gat.l0.w")
        a_src, a_dst = store.value("gat.l0.a_src"), store.value("gat.l0.a_dst")
        d_gat = hw.shape[1] // heads
        for node in range(5):
            nbrs = [j for j, i in zip(graph.src, graph.dst) if i == node]
            for head in range(heads):
                cols = slice(head * d_gat, (head + 1) * d_gat)
                e = np.array(
                    [hw[node, cols] @ a_dst[cols] + hw[j, cols] @ a_src[cols] for j in nbrs]
                )
                e = np.where(e > 0, e, SLOPE * e)
                alpha = np.sign(e) * oracles.softmax_direct(np.abs(e))
                assert abs(np.abs(alpha).sum() - 1.0) < 1e-9

    def test_missing_self_loop_rejected(self):
        d = 4
        store = _gat_setup(d=d, seed=5)
        graph = _manual_graph(3, [(0, 1)])
        # Strip node 2's self-loop.
        keep = ~((graph.src == 2) & (graph.dst == 2))
        graph = EdgeBlock(graph.src[keep], graph.dst[keep], graph.targets)
        with pytest.raises(ValueError, match="self-loop"):
            signed_gat_layer(Tensor(np.zeros((3, d))), graph, store.constants(), 2, SLOPE)

    def test_whole_social_graph_rejected(self):
        store = _gat_setup(seed=5)
        block = _manual_graph(2, [(0, 1)])
        graph = SocialGraph(["p0", "p1"], ["post"] * 2, np.zeros((2, 4)), block.src, block.dst)
        with pytest.raises(ad.ShapeError, match="expects an EdgeBlock .*got SocialGraph"):
            signed_gat_layer(Tensor(np.zeros((2, 4))), graph, store.constants(), 2, SLOPE)

    @pytest.mark.parametrize("edit, message", [
        # A negative endpoint would index from the end of a node array.
        (lambda g: g.src.__setitem__(0, -3), "missing node"),
        (lambda g: g.dst.__setitem__(0, -1), "missing node"),
        (lambda g: g.dst.__setitem__(0, 3), "missing node"),
        (lambda g: setattr(g, "dst", g.dst[1:]), "one length"),
    ], ids=["negative-src", "negative-dst", "dst-past-end", "length-mismatch"])
    def test_validate_rejects_bad_endpoints(self, edit, message):
        block = _manual_graph(3, [(0, 1), (1, 2)])
        graph = SocialGraph(["p0", "p1", "p2"], ["post"] * 3, np.zeros((3, 4)), block.src, block.dst)
        graph.validate()
        edit(graph)
        with pytest.raises(ValueError, match=message):
            graph.validate()

    def test_grad_check(self):
        d = 3
        store = _gat_setup(d=d, heads=1, seed=6)
        graph = _manual_graph(3, [(0, 1), (1, 2)])
        h = _rng(20).normal(size=(3, d))
        probe = Tensor(_rng(21).normal(size=(3, d)))

        def loss(params):
            out = signed_gat_layer(Tensor(h), graph, params, 1, SLOPE)
            return ad.sum_(ad.mul(out, probe))

        assert ad.grad_check(loss, store) < 1e-4

    def test_forward_and_backward_hold_no_edge_by_width_array(self):
        # theta 0 under a 4-wide table joins most pairs of the 190 nodes:
        # 21,542 edges, each of them 4 * 32 wide as a message.
        data = generate_synthetic(n=60, d=16, separation=2.0, seed=3)
        embed = _rng(3).normal(size=(data.vocab_size, 4))
        graph = oracles.whole_graph_block(
            build_social_graph(GraphInputs.from_records(data.posts, data.comments, data.users), embed, theta=0.0)
        )
        d, heads = 128, 4
        store = _gat_setup(d=d, heads=heads, seed=7)
        feats = _rng(8).normal(size=(graph.targets.size, d))
        probe = Tensor(_rng(9).normal(size=(graph.targets.size, d)))
        tape = ad.Tape()
        params = store.watch(tape)
        tracemalloc.start()
        try:
            out = signed_gat_layer(Tensor(feats), graph, params, heads, SLOPE)
            tape.backward(ad.sum_(ad.mul(out, probe)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        edge_by_width = graph.src.size * store.value("gat.l0.w").shape[1] * 8
        assert peak < edge_by_width, (peak, edge_by_width)


# Output rows of a hub-shaped block: a hub, rows of few in-edges, and rows
# whose only in-edge is their self-loop.
_HUB_IN_DEGREES = (300, 120, 40, 9, 2, 1, 1)


def _hub_case(form, d, heads, seed=0, n_in=60, vocab=40):
    """A hub-shaped block, its layer's inputs and a probe of its rows.  The
    in-edges of each output row come in random order, its self-loop among
    them, from the first 50 input rows, so the last 10 send none but their
    self-loops, if they are output rows.  The
    first output row (the hub), the last one (a self-loop alone) and one
    source row are zero, so the edges between them score exactly 0.  The
    input is a tensor or a pair of constant token weights and a table."""
    rng = _rng(seed)
    targets = rng.permutation(n_in)[: len(_HUB_IN_DEGREES)]
    src = np.concatenate([
        np.r_[t, rng.integers(0, 50, size=k - 1)] for t, k in zip(targets, _HUB_IN_DEGREES)
    ])
    dst = np.repeat(np.arange(len(_HUB_IN_DEGREES)), _HUB_IN_DEGREES)
    order = rng.permutation(src.size)
    block = EdgeBlock(src[order], dst[order], targets)
    zero = np.r_[targets[[0, -1]], src[dst == 0][:40:4]]
    store = _gat_setup(d=d, heads=heads, seed=seed)
    if form == "tensor":
        rows = rng.normal(size=(n_in, d))
        rows[zero] = 0.0
        leaves, feats = ("rows",), lambda t: t["rows"]
        values = {"rows": rows}
    else:
        weights = rng.random((n_in, vocab)) * (rng.random((n_in, vocab)) < 0.2)
        weights[zero] = 0.0
        leaves, feats = ("table",), lambda t: (Tensor(weights), t["table"])
        values = {"table": rng.normal(size=(vocab, d))}
    values.update(store.snapshot())
    probe = Tensor(rng.normal(size=(targets.size, d)))
    return block, values, feats, probe


def _layer_rows_and_grads(layer, case, heads):
    block, values, feats, probe = case
    tape = ad.Tape()
    leaves = {name: tape.watch(v) for name, v in values.items()}
    out = layer(feats(leaves), block, leaves, heads, SLOPE)
    tape.backward(ad.sum_(ad.mul(out, probe)))
    return out.data, {name: tape.grad(t) for name, t in leaves.items()}


class TestOneRecordLayer:
    """``signed_gat_layer``, one ``ad.signed_gat`` record, against the chain
    of tape ops it replaces, ``oracles.gat_layer_chain``.  Output rows
    without an in-edge, which the layer refuses, are in
    ``test_autodiff.TestSignedSegmentSoftmax``."""

    # Blocks of 7 rows split the hub's slots across blocks; the default
    # gathers each slot of the other rows in one.
    @pytest.mark.parametrize("rows_per_block", [None, 7])
    @pytest.mark.parametrize("d, heads", [(300, 8), (300, 1)])
    @pytest.mark.parametrize("form", ["tensor", "pair"])
    def test_rows_and_gradients_match_chain_bitwise(self, form, d, heads, rows_per_block):
        case = _hub_case(form, d, heads)
        expected = _layer_rows_and_grads(oracles.gat_layer_chain, case, heads)
        block_bytes = ad.EDGE_BLOCK_BYTES if rows_per_block is None else rows_per_block * 8 * 304
        with mock.patch.object(ad, "EDGE_BLOCK_BYTES", block_bytes):
            got = _layer_rows_and_grads(signed_gat_layer, case, heads)
        assert got[0].tobytes() == expected[0].tobytes()
        for name, want in expected[1].items():
            assert got[1][name].tobytes() == want.tobytes(), name

    def test_one_record_per_layer(self):
        block, values, feats, _ = _hub_case("pair", 16, 2)
        tape = ad.Tape()
        leaves = {name: tape.watch(v) for name, v in values.items()}
        with mock.patch.object(ad.Tape, "emit", autospec=True, side_effect=ad.Tape.emit) as emit:
            signed_gat_layer(feats(leaves), block, leaves, 2, SLOPE)
        assert emit.call_count == 1

    # On a d=300, 8-head block, the record keeps no more than the chain's
    # records do, so fusing keeps no extra [E, heads] array until backward.
    @pytest.mark.parametrize("form", ["tensor", "pair"])
    def test_record_keeps_no_more_than_the_chain(self, form):
        block, values, feats, _ = _hub_case(form, 300, 8)
        held = {}
        for layer in (signed_gat_layer, oracles.gat_layer_chain):
            tape = ad.Tape()
            leaves = {name: tape.watch(v) for name, v in values.items()}
            layer(feats(leaves), block, leaves, 8, SLOPE)  # numpy's one-time set-up is not the layer's
            tape = ad.Tape()
            leaves = {name: tape.watch(v) for name, v in values.items()}
            tracemalloc.start()
            try:
                out = layer(feats(leaves), block, leaves, 8, SLOPE)
                held[layer], _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            del out
        assert held[signed_gat_layer] <= held[oracles.gat_layer_chain], held


def _social_model(n=40, d=8, heads=2, gat_layers=1, theta=0.6, wide_vocab=False):
    data = generate_synthetic(n=n, d=d, separation=2.0, seed=31)
    if wide_vocab:
        data = _spread_tokens(data)
    cfg = TrainConfig(d=d, heads=heads, token_len=4, theta=theta, gat_layers=gat_layers)
    return IsmafModel(cfg, split_dataset(data, cfg.fractions, cfg.seed))


class TestExtractSocial:
    def test_zero_layers_returns_initial_embedding(self):
        model = _social_model(gat_layers=0)
        params = model.store.constants()
        rows = model.rows([model.dataset.posts[1].id])
        got = model.social_batch(params, rows)
        expected = model.graph.token_weights[rows] @ params["text.embed"].data
        np.testing.assert_array_equal(got.data[0], expected[0])

    def test_identity_layer_on_isolated_node_is_nonlinearity(self):
        d = 3
        store = _gat_setup(d=d, heads=1, seed=8)
        store.assign("gat.l0.w", np.eye(d))
        store.assign("gat.l0.wo", np.eye(d))
        store.assign("gat.l0.a_src", np.full(d, 0.5))
        store.assign("gat.l0.a_dst", np.full(d, 0.5))
        graph = _manual_graph(1, [])
        h = np.abs(_rng(23).normal(size=(1, d)))  # positive: e > 0, alpha = 1
        got = signed_gat_layer(Tensor(h), graph, store.constants(), 1, SLOPE)
        np.testing.assert_allclose(got.data[0], np.tanh(h[0]), atol=1e-12)

    def test_matches_layer_oracle_fixture(self):
        d, heads = 4, 2
        store = _gat_setup(d=d, heads=heads, seed=9)
        graph = _manual_graph(4, [(0, 1), (1, 2), (2, 3)])
        h = _rng(24).normal(size=(4, d))
        out_nodes = signed_gat_layer(Tensor(h), graph, store.constants(), heads, SLOPE)
        neighbors = [[j for j, i in zip(graph.src, graph.dst) if i == node] for node in range(4)]
        expected = oracles.signed_gat_enumerated(
            h, neighbors,
            store.value("gat.l0.w"), store.value("gat.l0.a_src"),
            store.value("gat.l0.a_dst"), store.value("gat.l0.wo"),
            heads, SLOPE,
        )
        got = out_nodes.data[2]
        assert np.abs(got - expected[2]).max() < 1e-10

    def test_unknown_post_rejected(self):
        model = _social_model()
        pid = model.dataset.posts[0].id
        with pytest.raises(KeyError, match="nope"):
            model.rows([pid, "nope"])
        with pytest.raises(KeyError, match="nope"):
            model.predict([pid, "nope"])

    @pytest.mark.parametrize("kind", ["comments", "users"])
    def test_comment_or_user_id_rejected_as_post(self, kind):
        model = _social_model()
        pid = model.dataset.posts[0].id
        other = getattr(model.dataset, kind)[0].id
        with pytest.raises(KeyError, match=f"unknown post id '{other}'"):
            model.rows([pid, other])
        with pytest.raises(KeyError, match=f"unknown post id '{other}'"):
            model.predict([pid, other])


# Corpora shaped like the benchmark's training workloads, at test size: the
# default similarity threshold gives a dense graph with hub users; 0.9 leaves
# a mostly structural one.
_RECEPTIVE_CORPORA = {
    "dense": dict(n=60, d=16, heads=8, theta=0.5),
    "sparse": dict(n=60, d=16, heads=2, theta=0.9),
}


def _shared_neighbour_batches(model):
    """A plain batch, one that repeats a post, and two whose posts share a
    neighbour (the same author; comments by one user)."""
    posts = model.dataset.posts
    by_user = {}
    for p in posts:
        by_user.setdefault(p.user_id, []).append(p.id)
    same_author = max(by_user.values(), key=len)
    assert len(same_author) > 1
    commented = {c.post_id for c in model.dataset.comments if c.user_id == posts[0].user_id}
    ids = [p.id for p in posts]
    return {
        "plain": ids[:16],
        "repeated": [ids[3], ids[7], ids[3], ids[3]],
        "same-author": same_author,
        "same-commenter": sorted(commented | {posts[0].id}),
    }


def _rows_and_grads(model, social, batch, probe):
    tape = ad.Tape()
    params = model.store.watch(tape)
    out = social(params, model.rows(batch))
    tape.backward(ad.sum_(ad.mul(out, probe)))
    return out.data, {name: tape.grad(t) for name, t in params.items()}


def _assert_matches_full_graph(model):
    full_graph = functools.partial(oracles.social_batch_full_graph, model)
    for batch in _shared_neighbour_batches(model).values():
        probe = Tensor(_rng(40).normal(size=(len(batch), model.config.d)))
        got, got_grads = _rows_and_grads(model, model.social_batch, batch, probe)
        want, want_grads = _rows_and_grads(model, full_graph, batch, probe)
        assert np.abs(got - want).max() <= 1e-12
        for name in want_grads:
            assert np.abs(got_grads[name] - want_grads[name]).max() <= 1e-12, name


class TestReceptiveField:
    @pytest.mark.parametrize("corpus", sorted(_RECEPTIVE_CORPORA))
    @pytest.mark.parametrize("gat_layers", [0, 1, 2, 3])
    def test_rows_and_gradients_match_full_graph(self, corpus, gat_layers):
        _assert_matches_full_graph(
            _social_model(gat_layers=gat_layers, **_RECEPTIVE_CORPORA[corpus])
        )

    @pytest.mark.parametrize("corpus", sorted(_RECEPTIVE_CORPORA))
    @pytest.mark.parametrize("gat_layers", [0, 1, 2, 3])
    def test_rows_and_gradients_match_full_graph_over_wide_vocabulary(self, corpus, gat_layers):
        model = _social_model(gat_layers=gat_layers, wide_vocab=True, **_RECEPTIVE_CORPORA[corpus])
        assert model.dataset.vocab_size == 19_201
        _assert_matches_full_graph(model)

    def test_each_layer_keeps_only_the_in_edges_of_its_outputs(self):
        model = _social_model(gat_layers=2, **_RECEPTIVE_CORPORA["sparse"])
        graph = model.graph
        row = graph.index[model.dataset.posts[0].id]
        inputs, (first, last) = receptive_blocks(graph, np.array([row]), 2)
        into_post = graph.dst == row
        assert last.src.size == into_post.sum()
        into_hop = np.isin(graph.dst, graph.src[into_post])
        assert first.src.size == into_hop.sum() < graph.src.size
        np.testing.assert_array_equal(inputs, np.unique(graph.src[into_hop]))


def _random_graph(seed, n=30, n_edges=90, lonely=5):
    """A graph of n nodes with random directed edges in random order, each
    node's self-loop among them; the last ``lonely`` nodes take no edge but
    their self-loop."""
    rng = _rng(seed)
    src = rng.integers(0, n, size=n_edges)
    dst = rng.integers(0, n - lonely, size=n_edges)
    src, dst = np.concatenate([src, np.arange(n)]), np.concatenate([dst, np.arange(n)])
    order = rng.permutation(src.size)
    return SocialGraph(
        node_ids=[str(i) for i in range(n)], node_kinds=["post"] * n,
        token_weights=np.zeros((n, 1)), src=src[order], dst=dst[order],
    )


def _receptive_rows(case, n=30, lonely=5):
    rng = _rng(3)
    return {
        "random": np.sort(rng.choice(n, size=8, replace=False)),
        "one-row": np.array([rng.integers(n)]),
        "every-row": np.arange(n),
        "self-loop-only": np.arange(n - lonely, n),
    }[case]


class TestReceptiveBlocksOracle:
    """``receptive_blocks`` ranks nodes through a running count of a mask;
    ``oracles.receptive_blocks_sorted`` is the union1d/searchsorted walk it
    replaced.  The arrays must match in value and be int64 on every
    platform (a bool cumsum gives the platform int)."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("case", ["random", "one-row", "every-row", "self-loop-only"])
    @pytest.mark.parametrize("layers", [0, 1, 2, 3])
    def test_matches_the_sorting_walk(self, seed, case, layers):
        graph = _random_graph(seed)
        rows = _receptive_rows(case)
        inputs, blocks = receptive_blocks(graph, rows, layers)
        want_inputs, want_blocks = oracles.receptive_blocks_sorted(graph, rows, layers)
        assert inputs.dtype == np.int64
        np.testing.assert_array_equal(inputs, want_inputs)
        assert len(blocks) == len(want_blocks) == layers
        for block, want in zip(blocks, want_blocks):
            for name in ("src", "dst", "targets"):
                got = getattr(block, name)
                assert got.dtype == np.int64, name
                np.testing.assert_array_equal(got, getattr(want, name), err_msg=name)

    def test_unsorted_rows_keep_their_order(self):
        # Output row i of the last block is rows[i]; every index still
        # names the graph's own endpoints, in graph order.
        graph = _random_graph(1)
        rows = _rng(2).permutation(30)[:9]
        inputs, (first, last) = receptive_blocks(graph, rows, 2)
        middle = inputs[first.targets]
        for block, ins, outs in ((first, inputs, middle), (last, middle, rows)):
            keep = np.isin(graph.dst, outs)
            np.testing.assert_array_equal(ins[block.src], graph.src[keep])
            np.testing.assert_array_equal(outs[block.dst], graph.dst[keep])
            np.testing.assert_array_equal(ins[block.targets], outs)


def test_encoder_outputs_have_dimension_d():
    d = 6
    store = _text_setup(seed=10, d=d, vocab=15, kernels=(2, 3, 4))
    create_visual_params(store, 5, d)
    create_gat_params(store, d, 2, 1)
    params = store.constants()
    rng = _rng(25)
    r_t = encode_text_batch(rng.integers(1, 15, size=(1, 8)), params, (2, 3, 4))
    r_v = project_visual(rng.normal(size=(1, 5)), params["visual.w"], params["visual.b"])
    graph = _manual_graph(3, [(0, 1), (1, 2)])
    r_g = signed_gat_layer(Tensor(rng.normal(size=(3, d))), graph, params, 2, SLOPE)
    assert r_t.shape == r_v.shape == (1, d) and r_g.shape == (3, d)
