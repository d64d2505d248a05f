import json
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ismaf import serialize
from ismaf.data import (
    COMMENTS_PER_POST,
    CommentRecord,
    DatasetBundle,
    GraphInputs,
    PostRecord,
    UserRecord,
    assign_splits,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_dataset,
    text_tokens,
)
from ismaf.config import TrainConfig
from ismaf.model import IsmafModel

import oracles


def _posts_with_labels(label_counts):
    posts = []
    i = 0
    for label, count in label_counts.items():
        for _ in range(count):
            posts.append(PostRecord(f"p{i:05d}", [1, 2], np.zeros(2), "u0", label))
            i += 1
    return posts


class TestAssignSplits:
    def test_benchmark_scale_arithmetic(self):
        # 2018 posts, 1428 negative / 590 positive: 70/10/20 splits produce
        # 1412 / 201 / 405.
        posts = _posts_with_labels({0: 1428, 1: 590})
        split = assign_splits(posts, (0.7, 0.1, 0.2), seed=5)
        sizes = {name: sum(1 for v in split.values() if v == name) for name in ("train", "val", "test")}
        assert sizes == {"train": 1412, "val": 201, "test": 405}

    def test_stratified_within_one_sample(self):
        posts = _posts_with_labels({0: 1428, 1: 590})
        split = assign_splits(posts, (0.7, 0.1, 0.2), seed=5)
        by_id = {p.id: p.label for p in posts}
        for name, frac in (("train", 0.7), ("val", 0.1), ("test", 0.2)):
            for label, total in ((0, 1428), (1, 590)):
                got = sum(1 for pid, s in split.items() if s == name and by_id[pid] == label)
                assert abs(got - frac * total) <= 1.0

    def test_balanced_ten_posts(self):
        posts = _posts_with_labels({0: 5, 1: 5})
        split = assign_splits(posts, (0.6, 0.2, 0.2), seed=1)
        by_id = {p.id: p.label for p in posts}
        for name in ("train", "val", "test"):
            members = [by_id[pid] for pid, s in split.items() if s == name]
            assert abs(members.count(0) - members.count(1)) <= 1

    def test_same_seed_reproduces_assignment(self):
        posts = _posts_with_labels({0: 40, 1: 24})
        a = assign_splits(posts, (0.7, 0.1, 0.2), seed=9)
        b = assign_splits(posts, (0.7, 0.1, 0.2), seed=9)
        assert a == b

    def test_insensitive_to_input_order(self):
        posts = _posts_with_labels({0: 30, 1: 30})
        a = assign_splits(posts, (0.7, 0.1, 0.2), seed=2)
        b = assign_splits(list(reversed(posts)), (0.7, 0.1, 0.2), seed=2)
        assert a == b

    def test_different_seed_differs(self):
        posts = _posts_with_labels({0: 40, 1: 40})
        a = assign_splits(posts, (0.7, 0.1, 0.2), seed=1)
        b = assign_splits(posts, (0.7, 0.1, 0.2), seed=2)
        assert a != b

    def test_splits_disjoint_and_exhaustive(self):
        posts = _posts_with_labels({0: 33, 1: 21})
        split = assign_splits(posts, (0.7, 0.1, 0.2), seed=3)
        assert set(split) == {p.id for p in posts}

    def test_empty_split_rejected(self):
        posts = _posts_with_labels({0: 3, 1: 3})
        with pytest.raises(ValueError, match="empty"):
            assign_splits(posts, (0.9, 0.05, 0.05), seed=0)

    def test_bad_fractions_rejected(self):
        posts = _posts_with_labels({0: 10, 1: 10})
        with pytest.raises(ValueError, match="sum"):
            assign_splits(posts, (0.8, 0.1, 0.2), seed=0)


class TestGenerateSynthetic:
    def test_same_seed_bitwise_identical(self):
        a = generate_synthetic(n=40, d=6, separation=2.0, graph_noise=0.3, seed=11)
        b = generate_synthetic(n=40, d=6, separation=2.0, graph_noise=0.3, seed=11)
        assert [p.tokens for p in a.posts] == [p.tokens for p in b.posts]
        for pa, pb in zip(a.posts, b.posts):
            assert pa.visual_feat.tobytes() == pb.visual_feat.tobytes()
            assert pa.user_id == pb.user_id
        assert [c.tokens for c in a.comments] == [c.tokens for c in b.comments]

    def test_labels_balanced(self):
        bundle = generate_synthetic(n=50, d=4, separation=1.0, seed=0)
        labels = [p.label for p in bundle.posts]
        assert abs(labels.count(0) - labels.count(1)) <= 1

    def test_visual_separation_nearest_centroid(self):
        # separation 5 must leave the visual features linearly separable:
        # the nearest-centroid oracle classifies at least 99% correctly.
        bundle = generate_synthetic(n=600, d=32, separation=5.0, seed=42)
        feats = np.stack([p.visual_feat for p in bundle.posts])
        labels = np.array([p.label for p in bundle.posts])
        centroids = {lab: feats[labels == lab].mean(axis=0) for lab in (0, 1)}
        dist0 = ((feats - centroids[0]) ** 2).sum(axis=1)
        dist1 = ((feats - centroids[1]) ** 2).sum(axis=1)
        predicted = (dist1 < dist0).astype(int)
        assert (predicted == labels).mean() >= 0.99

    def test_zero_separation_visuals_carry_no_signal(self):
        bundle = generate_synthetic(n=400, d=16, separation=0.0, graph_noise=1.0, seed=3)
        feats = np.stack([p.visual_feat for p in bundle.posts])
        labels = np.array([p.label for p in bundle.posts])
        gap = feats[labels == 0].mean(axis=0) - feats[labels == 1].mean(axis=0)
        # Class-mean distance stays at sampling-noise scale (~2*sqrt(d/n)).
        assert np.sqrt((gap**2).sum()) < 4 * np.sqrt(16 / 200)

    def test_zero_separation_tokens_identical_distribution(self):
        bundle = generate_synthetic(n=500, d=4, separation=0.0, graph_noise=1.0, seed=4)
        half = 60  # tokens 1..60 belong to the class-0 block
        rate = {0: [], 1: []}
        for p in bundle.posts:
            rate[p.label].append(np.mean([t <= half for t in p.tokens]))
        assert abs(np.mean(rate[0]) - 0.5) < 0.05
        assert abs(np.mean(rate[1]) - 0.5) < 0.05

    def test_full_separation_tokens_disjoint(self):
        bundle = generate_synthetic(n=100, d=4, separation=5.0, seed=5)
        for p in bundle.posts:
            block = {0: range(1, 61), 1: range(61, 121)}[p.label]
            assert all(t in block for t in p.tokens)

    def test_clean_graph_signal_keeps_communities(self):
        bundle = generate_synthetic(n=100, d=4, separation=0.0, graph_noise=0.0, seed=6)
        user_ids = [u.id for u in bundle.users]
        community = {uid: int(i >= len(user_ids) // 2) for i, uid in enumerate(user_ids)}
        label = {p.id: p.label for p in bundle.posts}
        for p in bundle.posts:
            assert community[p.user_id] == p.label
        for c in bundle.comments:
            assert community[c.user_id] == label[c.post_id]

    def test_validation(self):
        with pytest.raises(ValueError, match="n >= 20"):
            generate_synthetic(n=10, d=4, separation=1.0)
        with pytest.raises(ValueError, match="graph_noise"):
            generate_synthetic(n=30, d=4, separation=1.0, graph_noise=1.5)
        with pytest.raises(ValueError, match="separation"):
            generate_synthetic(n=30, d=4, separation=-1.0)

    def test_comments_per_post(self):
        bundle = generate_synthetic(n=30, d=4, separation=1.0, seed=7)
        counts = Counter(c.post_id for c in bundle.comments)
        assert sorted(counts) == [p.id for p in bundle.posts]
        low, high = COMMENTS_PER_POST
        assert all(low <= count <= high for count in counts.values())


class TestJsonlRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        bundle = generate_synthetic(n=25, d=5, separation=2.0, seed=8)
        save_dataset(bundle, tmp_path)
        loaded = load_dataset(tmp_path)
        assert [p.id for p in loaded.posts] == [p.id for p in bundle.posts]
        for a, b in zip(loaded.posts, bundle.posts):
            assert a.tokens == b.tokens
            assert a.label == b.label
            assert a.user_id == b.user_id
            np.testing.assert_array_equal(a.visual_feat, b.visual_feat)
        assert loaded.comments == bundle.comments
        assert [u.id for u in loaded.users] == [u.id for u in bundle.users]

    # The bytes themselves: key order, separators and number format.  A
    # label given as 1.0 is stored, and written, as the int 1 (True is
    # refused: test_bad_label_rejected).
    @pytest.mark.parametrize("label", [1.0, 1])
    def test_written_lines(self, tmp_path, label):
        post = PostRecord("p1", [3, 1], [0.1, 1e-17], "u1", label)
        assert type(post.label) is int
        save_dataset(DatasetBundle([post], [CommentRecord("c1", [2], "u1", "p1")], [UserRecord("u1")]), tmp_path)
        assert (tmp_path / "posts.jsonl").read_bytes() == (
            b'{"id": "p1", "tokens": [3, 1], "visual_feat": [0.1, 1e-17], "user_id": "u1", "label": 1}\n'
        )
        assert (tmp_path / "comments.jsonl").read_bytes() == (
            b'{"id": "c1", "tokens": [2], "user_id": "u1", "post_id": "p1"}\n'
        )
        assert (tmp_path / "users.jsonl").read_bytes() == b'{"id": "u1"}\n'

    def test_posts_with_comment_ids_still_load(self, tmp_path):
        bundle = generate_synthetic(n=20, d=3, separation=0.0, seed=9)
        save_dataset(bundle, tmp_path)
        path = tmp_path / "posts.jsonl"
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        for row in rows:
            row["comment_ids"] = [c.id for c in bundle.comments if c.post_id == row["id"]]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        assert [p.id for p in load_dataset(tmp_path).posts] == [p.id for p in bundle.posts]

    def test_malformed_json_reports_line(self, tmp_path):
        save_dataset(generate_synthetic(n=20, d=3, separation=0.0, seed=9), tmp_path)
        posts = tmp_path / "posts.jsonl"
        posts.write_text(posts.read_text().rstrip() + "\n{broken\n", encoding="utf-8")
        with pytest.raises(ValueError, match="posts.jsonl:21"):
            load_dataset(tmp_path)

    @staticmethod
    def _edit_line(tmp_path, name, edit):
        """Save a 20-post corpus and replace line 4 of ``name``.jsonl with
        ``edit`` of its parsed object."""
        save_dataset(generate_synthetic(n=20, d=3, separation=0.0, seed=9), tmp_path)
        path = tmp_path / f"{name}.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[3] = edit(json.loads(lines[3]))
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

    @pytest.mark.parametrize("name, field", [
        ("posts", "label"), ("posts", "visual_feat"), ("comments", "post_id"), ("users", "id"),
    ])
    def test_missing_field_names_file_line_and_field(self, tmp_path, name, field):
        def drop(row):
            del row[field]
            return json.dumps(row)

        self._edit_line(tmp_path, name, drop)
        with pytest.raises(ValueError, match=rf"{name}\.jsonl:4: missing field '{field}'$"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("name", ["posts", "comments", "users"])
    @pytest.mark.parametrize("line, kind", [
        ("[1, 2]", "list"), ("7", "int"), ('"p0"', "str"), ("null", "NoneType"),
    ])
    def test_line_that_is_not_an_object_names_file_and_line(self, tmp_path, name, line, kind):
        self._edit_line(tmp_path, name, lambda row: line)
        with pytest.raises(ValueError, match=rf"{name}\.jsonl:4: expected a JSON object, got {kind}$"):
            load_dataset(tmp_path)

    def test_failed_record_check_names_file_and_line(self, tmp_path):
        self._edit_line(tmp_path, "posts", lambda row: json.dumps({**row, "label": 2}))
        with pytest.raises(ValueError, match=r"posts\.jsonl:4: post p00003: label must be 0 or 1"):
            load_dataset(tmp_path)

    # A fractional id would run as its integer part; a string fails with a
    # TypeError that names no file.  JSON true is a Python bool, not an id.
    @pytest.mark.parametrize("name, record, tokens, message", [
        ("posts", "post p00003", [1.5, 2.7, 3.0], "token id 1.5 is not an integer"),
        ("posts", "post p00003", [2, 3.0], "token id 3.0 is not an integer"),
        ("posts", "post p00003", [1, True], "token id True is not an integer"),
        ("posts", "post p00003", "abc", "tokens must be a list of integer ids, got str"),
        ("comments", "comment c00001_0", [4, None], "token id None is not an integer"),
        ("comments", "comment c00001_0", 7, "tokens must be a list of integer ids, got int"),
    ], ids=["fractional", "integral-float", "bool", "string", "null", "number"])
    def test_non_integer_tokens_named_by_file_and_line(self, tmp_path, name, record, tokens, message):
        self._edit_line(tmp_path, name, lambda row: json.dumps({**row, "tokens": tokens}))
        with pytest.raises(ValueError, match=rf"{name}\.jsonl:4: {record}: {message}$"):
            load_dataset(tmp_path)

    # numpy would read strings and booleans as numbers, and a dict used to
    # end in a TypeError that named no file.
    @pytest.mark.parametrize("edit, message", [
        ({"visual_feat": {"a": 1}}, "visual feature {'a': 1} is not a number"),
        ({"visual_feat": ["0.5", "2", "1"]}, "visual feature '0.5' is not a number"),
        ({"visual_feat": [True, False, True]}, "visual feature True is not a number"),
        ({"visual_feat": [0.5, None, 1.0]}, "visual feature None is not a number"),
        ({"visual_feat": "abc"}, "visual feature 'abc' is not a number"),
        ({"visual_feat": [10**400, 1, 2]}, "visual features must be finite"),
        ({"label": True}, "label must be 0 or 1, got True"),
    ], ids=["object", "strings", "bools", "null", "string", "huge-int", "bool-label"])
    def test_malformed_visual_or_label_named_by_file_and_line(self, tmp_path, edit, message):
        self._edit_line(tmp_path, "posts", lambda row: json.dumps({**row, **edit}))
        with pytest.raises(ValueError, match=rf"posts\.jsonl:4: post p00003: {re.escape(message)}$"):
            load_dataset(tmp_path)

    # An int beyond int64 gives numpy an object array, checked entry by
    # entry; a boolean among numbers infers float64 and reads as 0 or 1.
    @pytest.mark.parametrize("visual, expected", [
        ([10**30, 1, 2], [1e30, 1.0, 2.0]),
        ([0.5, True, 2], [0.5, 1.0, 2.0]),
    ], ids=["huge-int", "bool-among-numbers"])
    def test_numeric_visual_lists_load(self, tmp_path, visual, expected):
        self._edit_line(tmp_path, "posts", lambda row: json.dumps({**row, "visual_feat": visual}))
        loaded = load_dataset(tmp_path).posts[3].visual_feat
        assert loaded.dtype == np.float64
        np.testing.assert_array_equal(loaded, expected)

    def test_non_integer_tokens_rejected(self):
        with pytest.raises(ValueError, match="post p0: token id 1.0 is not an integer"):
            PostRecord("p0", [1.0], np.zeros(2), "u0", 0)
        with pytest.raises(ValueError, match="comment c0: tokens must be a list of integer ids, got tuple"):
            CommentRecord("c0", (1, 2), "u0", "p0")

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            PostRecord("p0", [1], np.zeros(2), "u0", 2)
        with pytest.raises(ValueError, match="post p0: label must be 0 or 1, got True"):
            PostRecord("p0", [1], np.zeros(2), "u0", True)

    def test_non_finite_visual_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            PostRecord("p0", [1], np.array([np.inf, 0.0]), "u0", 0)

    @pytest.mark.parametrize("visual", [np.float64(1.0), np.zeros((2, 2)), np.zeros(0)])
    def test_visual_must_be_non_empty_vector(self, visual):
        with pytest.raises(ValueError, match=r"post p0: visual features must be a non-empty 1-D vector"):
            PostRecord("p0", [1], visual, "u0", 0)

    def test_visual_length_mismatch_rejected_on_load(self, tmp_path):
        save_dataset(generate_synthetic(n=20, d=3, separation=0.0, seed=9), tmp_path)
        path = tmp_path / "posts.jsonl"
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        rows[4]["visual_feat"].append(0.5)
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        with pytest.raises(ValueError, match="post p00004: 4 visual features, but post p00000 has 3"):
            load_dataset(tmp_path)

    def test_negative_token_rejected(self):
        with pytest.raises(ValueError, match="post p0: negative token id"):
            PostRecord("p0", [1, -1], np.zeros(2), "u0", 0)
        with pytest.raises(ValueError, match="comment c0: negative token id"):
            CommentRecord("c0", [-1], "u0", "p0")

    # Id 0 pads: the text CNN would skip it while the graph feature would
    # still divide by the full token count.
    def test_padding_token_rejected(self):
        with pytest.raises(ValueError, match="post p0: token id 0 is reserved for padding"):
            PostRecord("p0", [0, 0, 0, 5], np.zeros(2), "u0", 0)
        with pytest.raises(ValueError, match="comment c0: token id 0 is reserved for padding"):
            CommentRecord("c0", [4, 0], "u0", "p0")

    @pytest.mark.parametrize("kind, rec_id", [("post", "p00003"), ("comment", "c00002_0")])
    def test_padding_token_rejected_on_load(self, tmp_path, kind, rec_id):
        save_dataset(generate_synthetic(n=20, d=3, separation=0.0, seed=9), tmp_path)
        path = tmp_path / f"{kind}s.jsonl"
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        next(r for r in rows if r["id"] == rec_id)["tokens"][-1] = 0
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        with pytest.raises(ValueError, match=f"{kind} {rec_id}: token id 0"):
            load_dataset(tmp_path)


class TestDatasetBundle:
    def test_split_ids_requires_assignment(self):
        bundle = generate_synthetic(n=20, d=3, separation=0.0, seed=10)
        with pytest.raises(ValueError, match="no split"):
            bundle.split_ids("train")

    def test_split_dataset_partitions_posts(self):
        bundle = generate_synthetic(n=40, d=3, separation=0.0, seed=11)
        ds = split_dataset(bundle, (0.7, 0.1, 0.2), seed=1)
        ids = sum((ds.split_ids(s) for s in ("train", "val", "test")), [])
        assert sorted(ids) == sorted(p.id for p in ds.posts)

    @pytest.mark.parametrize("long_post", [False, True], ids=["kernel-wide", "post-wide"])
    def test_model_post_arrays_match_records(self, long_post):
        # The matrix is as wide as the largest kernel (5) or the longest
        # post, whichever is wider; shorter posts are padded with token 0.
        tokens = [[3, 4], [], [5, 6, 7, 8, 9, 10] if long_post else [5]]
        posts = [
            PostRecord(f"p{i}", toks, np.full(2, i + 0.5), "u0", i % 2)
            for i, toks in enumerate(tokens)
        ]
        bundle = DatasetBundle(posts, [CommentRecord("c0", [11], "u0", "p0")], [UserRecord("u0")])
        model = IsmafModel(TrainConfig(d=6, heads=2, token_len=3), bundle)
        width = 6 if long_post else 5
        assert model.tokens.shape == (3, width) and model.tokens.dtype == np.int64
        for row, post in zip(model.tokens, posts):
            np.testing.assert_array_equal(row, post.tokens + [0] * (width - len(post.tokens)))
        np.testing.assert_array_equal(model.visual, np.stack([p.visual_feat for p in posts]))
        np.testing.assert_array_equal(model.labels, [p.label for p in posts])
        np.testing.assert_array_equal(model.rows(["p2", "p0", "p2"]), [2, 0, 2])

    def test_text_tokens_flattens_in_order(self):
        texts = [
            PostRecord("p0", [3, 4], np.zeros(2), "u0", 0),
            CommentRecord("c0", [], "u0", "p0"),
            CommentRecord("c1", [7], "u0", "p0"),
        ]
        lengths, tokens = text_tokens(texts)
        np.testing.assert_array_equal(lengths, [2, 0, 1])
        np.testing.assert_array_equal(tokens, [3, 4, 7])
        assert lengths.dtype == tokens.dtype == np.int64

    def test_vocab_size_from_records(self):
        posts = [PostRecord("p0", [3, 9], np.zeros(2), "u0", 0)]
        comments = [CommentRecord("c0", [15], "u0", "p0")]
        bundle = DatasetBundle(posts, comments, [UserRecord("u0")])
        assert bundle.vocab_size == 16

    def test_visual_length_mismatch_rejected(self):
        posts = [
            PostRecord("p0", [1], np.zeros(2), "u0", 0),
            PostRecord("p1", [2], np.zeros(3), "u0", 1),
        ]
        with pytest.raises(ValueError, match="post p1: 3 visual features, but post p0 has 2"):
            DatasetBundle(posts, [], [UserRecord("u0")])

    def test_duplicate_post_ids_rejected(self):
        posts = [
            PostRecord("p0", [1], np.zeros(2), "u0", 0),
            PostRecord("p0", [2], np.zeros(2), "u0", 1),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            DatasetBundle(posts, [], [UserRecord("u0")])


@st.composite
def _record_sets(draw):
    """Posts (ids unique among posts, as ``DatasetBundle`` requires),
    comments and users.  Texts may have no tokens, posts no comments and
    users nothing written.  With ``clash`` the ids come from one pool, so an
    id can repeat within and across kinds; with ``stray`` set to a kind,
    references to that kind now and then name another kind or nothing."""
    clash = draw(st.booleans())
    stray = draw(st.sampled_from([None, "user", "post"]))
    pool = ["p0", "p1", "c0", "u0", "u1"]
    user_ids = draw(st.lists(st.sampled_from(pool if clash else ["u0", "u1", "u2"]), min_size=1, max_size=4, unique=not clash))
    post_ids = draw(st.lists(st.sampled_from(pool if clash else ["p0", "p1", "p2", "p3"]), min_size=1, max_size=4, unique=True))
    comment_ids = draw(st.lists(st.sampled_from(pool if clash else ["c0", "c1", "c2", "c3"]), max_size=4, unique=not clash))
    tokens = st.lists(st.integers(1, 9), max_size=4)

    def ref(kind, valid, others):
        if stray == kind and not draw(st.integers(0, 3)):
            return draw(st.sampled_from(["ghost", *others]))
        return draw(st.sampled_from(valid))

    users = [UserRecord(uid) for uid in user_ids]
    posts = [
        PostRecord(pid, draw(tokens), np.zeros(2), ref("user", user_ids, post_ids + comment_ids), 0)
        for pid in post_ids
    ]
    comments = [
        CommentRecord(
            cid, draw(tokens), ref("user", user_ids, post_ids + comment_ids),
            ref("post", post_ids, user_ids + comment_ids),
        )
        for cid in comment_ids
    ]
    return posts, comments, users


class _CountedId(str):
    """A str id that counts how often it is formatted into a message."""

    formatted = 0

    def __format__(self, spec):
        _CountedId.formatted += 1
        return str.__format__(self, spec)


class TestGraphInputs:
    @settings(max_examples=200, deadline=None)
    @given(records=_record_sets())
    def test_matches_the_per_consumer_derivations(self, records):
        posts, comments, users = records
        bundle = DatasetBundle(posts, comments, users)
        inputs = bundle.graph_inputs
        lengths, tokens = oracles.text_tokens_listed(posts + comments)
        for got, want in ((inputs.lengths, lengths), (inputs.tokens, tokens)):
            assert got.dtype == np.int64 and got.tobytes() == want.tobytes()
        assert bundle.vocab_size == oracles.vocab_size_scan(posts, comments)

        cfg = TrainConfig(d=4, heads=2, token_len=2, kernel_sizes=(2, 3))
        try:
            node_ids, node_kinds, index, authors, commented = oracles.graph_records_checked(posts, comments, users)
        except ValueError as exc:
            assert inputs.problem == str(exc)
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                IsmafModel(cfg, bundle)
        else:
            assert inputs.problem is None
            assert (inputs.node_ids, inputs.node_kinds) == (node_ids, node_kinds)
            assert list(inputs.index.items()) == list(index.items())
            np.testing.assert_array_equal(inputs.authors, authors)
            np.testing.assert_array_equal(inputs.commented, commented)
            built = IsmafModel(cfg, bundle)
            assert built.tokens.tobytes() == oracles.post_token_rows(posts, cfg.kernel_sizes).tobytes()
            graph = built.graph
            assert graph.node_ids is inputs.node_ids and graph.node_kinds is inputs.node_kinds
            assert graph.index is inputs.index

        fingerprint = serialize._record_fingerprint(bundle)
        want = oracles.record_fingerprint_scan(posts, comments, users)
        assert (fingerprint["ids"], fingerprint["tokens"]) == (want["ids"], want["tokens"])
        # A reference to no node hashes as null, so it never matches.
        resolved = (inputs.authors >= 0).all() and (inputs.commented >= 0).all()
        assert (fingerprint["links"] == want["links"]) == resolved

    # An unknown reference hashes as null, not as the id at row -1: here
    # the last user's, which the clean records link to.
    def test_unknown_reference_never_matches_the_fingerprint(self):
        users = [UserRecord("u0"), UserRecord("u1")]
        posts = [PostRecord("p0", [1], np.zeros(2), "u1", 0)]
        clean = serialize._record_fingerprint(DatasetBundle(posts, [], users))
        posts = [PostRecord("p0", [1], np.zeros(2), "ghost", 0)]
        assert serialize._record_fingerprint(DatasetBundle(posts, [], users))["links"] != clean["links"]

    def test_only_a_failing_reference_is_formatted(self):
        users = [UserRecord(_CountedId(f"u{i}")) for i in range(3)]
        posts = [PostRecord(_CountedId(f"p{i}"), [1], np.zeros(2), users[i].id, 0) for i in range(3)]
        comments = [CommentRecord(_CountedId(f"c{i}"), [2], users[i].id, posts[i].id) for i in range(3)]
        broken = comments[:1] + [CommentRecord(_CountedId("c1"), [2], users[1].id, _CountedId("ghost"))]
        _CountedId.formatted = 0  # the record checks format ids as they are made
        assert GraphInputs.from_records(posts, comments, users).problem is None
        assert _CountedId.formatted == 0
        inputs = GraphInputs.from_records(posts, broken, users)
        assert inputs.problem == "comment c1 references unknown post ghost"
        assert _CountedId.formatted == 2

    def test_split_copies_share_one_derivation(self, token_scans):
        corpus = generate_synthetic(n=40, d=3, separation=0.0, seed=11)
        first = split_dataset(corpus, (0.6, 0.2, 0.2), seed=1)
        second = split_dataset(first, (0.6, 0.2, 0.2), seed=2)
        assert token_scans == []  # splitting derives nothing
        assert second.vocab_size == oracles.vocab_size_scan(corpus.posts, corpus.comments)
        assert token_scans == [len(corpus.posts) + len(corpus.comments)]
        assert first.graph_inputs is second.graph_inputs is corpus.graph_inputs
        assert split_dataset(corpus, (0.6, 0.2, 0.2), seed=3).graph_inputs is corpus.graph_inputs
        assert len(token_scans) == 1

    def test_shared_arrays_are_read_only(self):
        inputs = generate_synthetic(n=20, d=3, separation=0.0, seed=11).graph_inputs
        with pytest.raises(ValueError, match="read-only"):
            inputs.tokens[0] = 5
