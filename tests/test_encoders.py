import dataclasses
import functools
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
# nearly every token occurs once.
_TEXT_CNN_CASES = pytest.mark.parametrize("kernels, vocab, lengths", [
    ((1,), 13, [8, 5, 2, 1, 0]),
    ((2, 3), 13, [8, 5, 2, 1, 0]),
    ((3, 4, 5), 13, [8, 5, 2, 1, 0]),
    ((2, 8), 13, [8, 5, 2, 1, 0]),
    ((3, 4, 5), 20_000, [30, 25] * 20),
], ids=["kernels0", "kernels1", "kernels2", "kernels3", "vocab20000"])


def _text_cnn_run(encode, kernels, vocab, lengths, on_tape=True):
    """Rows of ``encode`` on one of the cases above, d = 7, and, on the
    tape, every parameter's gradient of their dot product with a probe."""
    seq_len = max(lengths)
    store = _text_setup(seed=11, d=7, vocab=vocab, kernels=kernels)
    rng = _rng(12)
    tokens = rng.integers(1, vocab, size=(len(lengths), seq_len))
    tokens[np.arange(seq_len) >= np.array(lengths)[:, None]] = 0
    if not on_tape:
        return encode(tokens, store.constants(), kernels).data, {}
    probe = Tensor(rng.normal(size=(len(lengths), 7)))
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
    def test_matches_per_offset_oracle(self, kernels, vocab, lengths):
        got, got_grads = _text_cnn_run(encode_text_batch, kernels, vocab, lengths)
        want, want_grads = _text_cnn_run(oracles.text_cnn_per_offset, kernels, vocab, lengths)
        assert np.abs(got - want).max() <= 1e-12
        for name in want_grads:  # text.embed and every text.conv{k}.w/b
            assert np.abs(got_grads[name] - want_grads[name]).max() <= 1e-12, name

    # The op replaced this chain of tape ops; its forward and vjp make the
    # chain's numpy calls, so rows and gradients agree to the bit, on the
    # tape and on constant parameters (the evaluate path).
    @_TEXT_CNN_CASES
    def test_bitwise_the_chain_oracle(self, kernels, vocab, lengths):
        got, got_grads = _text_cnn_run(encode_text_batch, kernels, vocab, lengths)
        want, want_grads = _text_cnn_run(oracles.text_cnn_chain, kernels, vocab, lengths)
        assert got.tobytes() == want.tobytes()
        for name in want_grads:
            assert got_grads[name].shape == want_grads[name].shape, name
            assert got_grads[name].tobytes() == want_grads[name].tobytes(), name
        const, _ = _text_cnn_run(encode_text_batch, kernels, vocab, lengths, on_tape=False)
        const_chain, _ = _text_cnn_run(oracles.text_cnn_chain, kernels, vocab, lengths, on_tape=False)
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
        g = build_social_graph(posts, comments, users, embed, theta=0.5)
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
        g = build_social_graph(posts, [], users, embed, theta=0.5)
        i, j = g.index["p0"], g.index["p1"]
        assert not ((g.src == i) & (g.dst == j)).any()

    def test_full_adjacency_matches_enumeration_oracle(self):
        posts, comments, users = _fixture_records()
        rng = _rng(12)
        emb = {nid: rng.normal(size=3) for nid in ["p0", "p1", "p2", "c0", "c1"]}
        theta = 0.3
        posts, comments, embed = _private_tokens(posts, comments, emb)
        g = build_social_graph(posts, comments, users, embed, theta=theta)

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
        g = build_social_graph(posts, comments, users, embed, theta=0.4)
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
        g = build_social_graph(posts, comments, users, embed, theta=0.4)
        expected = (emb["p0"] + emb["p1"] + emb["c1"]) / 3.0
        row = g.index["u0"]
        assert np.abs((g.token_weights @ embed)[row] - expected).max() < 1e-12
        direct = oracles.node_features_direct(posts, comments, users, embed)
        assert np.abs(direct[row] - expected).max() < 1e-12

    def test_user_without_content_gets_zero_embedding(self):
        users = [UserRecord("u0"), UserRecord("lurker")]
        posts = [PostRecord("p0", [1], np.zeros(2), "u0", 0)]
        posts, _, embed = _private_tokens(posts, [], {"p0": np.array([1.0, 2.0])})
        g = build_social_graph(posts, [], users, embed, theta=0.5)
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
        g = build_social_graph(posts, comments, users, embed, theta=theta)
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
        g_all = build_social_graph(posts, comments, users, embed, theta=-0.5, connect_kinds="all")
        g_same = build_social_graph(posts, comments, users, embed, theta=-0.5, connect_kinds="same-kind")
        i, j = g_same.index["p0"], g_same.index["u1"]
        assert ((g_all.src == i) & (g_all.dst == j)).any()
        assert not ((g_same.src == i) & (g_same.dst == j)).any()

    def test_given_edges_replace_the_join(self):
        data = generate_synthetic(n=20, d=4, separation=2.0, seed=3)
        records = dict(posts=data.posts, comments=data.comments, users=data.users)
        embed = _rng(3).normal(size=(data.vocab_size, 8))
        built = build_social_graph(**records, embed=embed, theta=0.0)
        loop = np.arange(built.n_nodes)
        given = build_social_graph(**records, embed=embed, theta=0.0, edges=(loop, loop))
        assert given.src is loop and given.dst is loop
        assert given.token_weights.tobytes() == built.token_weights.tobytes()
        with pytest.raises(ValueError, match="self-loop"):
            build_social_graph(**records, embed=embed, edges=(loop[1:], loop[1:]))

    def test_unknown_user_reference_rejected(self):
        posts = [PostRecord("p0", [1], np.zeros(2), "ghost", 0)]
        with pytest.raises(ValueError, match="unknown user"):
            build_social_graph(posts, [], [UserRecord("u0")], np.ones((2, 2)))

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
            build_social_graph(**records, embed=np.ones((2, 2)))

    def test_token_weights_give_direct_node_features(self):
        data = generate_synthetic(n=60, d=8, separation=2.0, seed=32)
        users = data.users + [UserRecord("lurker")]
        embed = _rng(33).normal(size=(data.vocab_size, 8))
        g = build_social_graph(data.posts, data.comments, users, embed, theta=0.5)
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
        g = build_social_graph(posts, comments, users, embed, theta=theta)
        pairs = {(g.node_ids[s], g.node_ids[t]) for s, t in zip(g.src, g.dst) if s != t}
        assert {t for s, t in pairs if s == "c0"} == {"u0", "p1"}
        assert not any("u2" in pair for pair in pairs)
        assert ("p0", "p1") in pairs  # cosine 0.47 >= theta
        src, dst = oracles.social_graph_dense(g, posts, comments, embed, theta, "all")
        np.testing.assert_array_equal(g.src, src)
        np.testing.assert_array_equal(g.dst, dst)

    @pytest.mark.parametrize("theta", [float("nan"), -1.0, -1.5, 1.0 + 1e-9, 2.0])
    def test_theta_outside_open_closed_unit_interval_rejected(self, theta):
        posts, comments, users = _fixture_records()
        with pytest.raises(ValueError, match=r"theta must lie in \(-1, 1\]"):
            build_social_graph(posts, comments, users, np.ones((2, 2)), theta=theta)
        # TrainConfig checks finiteness first, so nan reads "must be finite".
        with pytest.raises(ValueError, match=r"theta must (lie in \(-1, 1\]|be finite)"):
            TrainConfig(theta=theta)

    def test_negative_theta_accepted(self):
        # TrainConfig and the graph build take one range, (-1, 1].
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
        g = build_social_graph(posts, comments, users, embed, theta, connect_kinds)
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
        g = build_social_graph(data.posts, comments, users, embed, theta=0.5)
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
            g = build_social_graph(posts, comments, users, embed, theta, connect_kinds)
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
            build_social_graph(data.posts, data.comments, data.users, np.ones((vocab, 8)))

    def test_build_holds_no_dense_node_by_node_matrix(self):
        data = generate_synthetic(n=1000, d=32, separation=2.0, seed=37)
        embed = _rng(37).normal(size=(data.vocab_size, 32))
        n_nodes = len(data.posts) + len(data.comments) + len(data.users)
        tracemalloc.start()
        try:
            build_social_graph(data.posts, data.comments, data.users, embed, theta=0.5)
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
            g = build_social_graph(data.posts, data.comments, data.users, embed, theta=0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table = g.token_weights.nbytes
        assert peak < 1.5 * table, (peak, table)


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
            build_social_graph(data.posts, data.comments, data.users, embed, theta=0.0)
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
