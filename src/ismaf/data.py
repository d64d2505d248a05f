"""Dataset records, line-delimited JSON ingestion, stratified splits, and the
synthetic corpus generator used for desk-scale experiments."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

SPLITS = ("train", "val", "test")


def _check_tokens(record: str, tokens) -> None:
    """Token ids are integers from 1: id 0 pads posts to a common length."""
    if type(tokens) is not list:
        raise ValueError(
            f"{record}: tokens must be a list of integer ids, got {type(tokens).__name__}"
        )
    for t in tokens:
        if type(t) is not int:
            raise ValueError(f"{record}: token id {t!r} is not an integer")
    low = min(tokens, default=1)
    if low < 0:
        raise ValueError(f"{record}: negative token id")
    if low == 0:
        raise ValueError(f"{record}: token id 0 is reserved for padding")


def _visual_vector(record: str, feat) -> np.ndarray:
    """``feat`` as float64 if numpy infers a numeric dtype for it.  Strings
    and booleans are refused; an object array (numpy's dtype for an int
    beyond int64, and for anything it cannot type) is checked entry by
    entry, so a huge int still loads.  A boolean among numbers infers
    float64 and reads as 0 or 1."""
    feat = np.asarray(feat)
    if feat.dtype.kind not in "iuf":
        entries = feat.tolist() if feat.ndim == 1 else [feat.tolist()]
        for v in entries:
            if type(v) is bool or not isinstance(v, (int, float)):
                raise ValueError(f"{record}: visual feature {v!r} is not a number")
    try:
        return feat.astype(np.float64, copy=False)
    except OverflowError:
        raise ValueError(f"{record}: visual features must be finite") from None


@dataclass
class PostRecord:
    id: str
    tokens: list[int]
    visual_feat: np.ndarray
    user_id: str
    label: int

    def __post_init__(self):
        self.visual_feat = _visual_vector(f"post {self.id}", self.visual_feat)
        if type(self.label) is bool or self.label not in (0, 1):
            raise ValueError(f"post {self.id}: label must be 0 or 1, got {self.label!r}")
        self.label = int(self.label)
        if self.visual_feat.ndim != 1 or self.visual_feat.size == 0:
            raise ValueError(
                f"post {self.id}: visual features must be a non-empty 1-D vector, "
                f"got shape {self.visual_feat.shape}"
            )
        if not np.isfinite(self.visual_feat).all():
            raise ValueError(f"post {self.id}: visual features must be finite")
        _check_tokens(f"post {self.id}", self.tokens)


@dataclass
class CommentRecord:
    id: str
    tokens: list[int]
    user_id: str
    post_id: str

    def __post_init__(self):
        _check_tokens(f"comment {self.id}", self.tokens)


@dataclass
class UserRecord:
    id: str


def text_tokens(texts) -> tuple[np.ndarray, np.ndarray]:
    """Each text's token count, and all texts' tokens in order (int64 arrays)."""
    lengths = np.fromiter((len(rec.tokens) for rec in texts), dtype=np.int64, count=len(texts))
    tokens = np.fromiter(
        itertools.chain.from_iterable(rec.tokens for rec in texts),
        dtype=np.int64, count=int(lengths.sum()),
    )
    return lengths, tokens


@dataclass(frozen=True, eq=False)
class GraphInputs:
    """What the social graph, the models and the checkpoint fingerprint read
    of a record set, derived from it once (``from_records``).

    Rows run over the posts, then the comments, then the users, in record
    order; the texts (posts and comments) are the first ``n_texts`` rows.
    ``problem`` is the message of the first repeated node id or bad
    reference, in record order, and None when there is none.  The
    derivation itself raises nothing, so reading the tokens never raises a
    reference error; ``build_social_graph`` raises the problem.
    """

    node_ids: list[str]
    node_kinds: list[str]
    index: dict[str, int]  # node id -> row
    n_posts: int
    lengths: np.ndarray  # [n_texts] each text's token count
    tokens: np.ndarray  # every text's tokens, in row order
    authors: np.ndarray  # [n_texts] the row of each text's author, -1 if unknown
    commented: np.ndarray  # [n_comments] the row of each comment's post, -1 if unknown
    problem: str | None

    @property
    def n_texts(self) -> int:
        return self.lengths.size

    @classmethod
    def from_records(cls, posts, comments, users) -> GraphInputs:
        texts = [*posts, *comments]
        node_ids = [rec.id for rec in texts] + [u.id for u in users]
        node_kinds = ["post"] * len(posts) + ["comment"] * len(comments) + ["user"] * len(users)
        index = dict(zip(node_ids, range(len(node_ids))))
        lengths, tokens = text_tokens(texts)
        authors = np.array([index.get(rec.user_id, -1) for rec in texts], dtype=np.int64)
        commented = np.array([index.get(c.post_id, -1) for c in comments], dtype=np.int64)
        for array in (lengths, tokens, authors, commented):
            array.flags.writeable = False  # shared by every consumer
        n_posts, n_texts = len(posts), len(texts)

        problem = None
        if len(index) != len(node_ids):
            seen = set()
            for nid in node_ids:
                if nid in seen:
                    break
                seen.add(nid)
            problem = f"node id {nid!r} is used by more than one post, comment or user"
        else:
            # Checked in record order: each post's user, then each comment's
            # user and post; key 2 * text is a user check, key 2 * text + 1
            # a post check.  Only the first failure is formatted.
            bad = np.concatenate([
                2 * np.flatnonzero(authors < n_texts),
                2 * (n_posts + np.flatnonzero((commented < 0) | (commented >= n_posts))) + 1,
            ])
            if bad.size:
                text, post_ref = divmod(int(bad.min()), 2)
                rec = texts[text]
                what = f"post {rec.id}" if text < n_posts else f"comment {rec.id}"
                ref, kind = (rec.post_id, "post") if post_ref else (rec.user_id, "user")
                problem = f"{what} references unknown {kind} {ref}"
        return cls(node_ids, node_kinds, index, n_posts, lengths, tokens, authors, commented, problem)


@dataclass
class DatasetBundle:
    """A corpus's records and, once split, its split assignment.

    The records are fixed once the bundle is built: ``graph_inputs`` (and
    through it ``vocab_size``, every model's graph and the checkpoint
    fingerprint) is derived from them on first use and not again, and the
    copies ``split_dataset`` makes share both the records and that one
    derivation.
    """

    posts: list[PostRecord]
    comments: list[CommentRecord]
    users: list[UserRecord]
    split: dict[str, str] | None = None
    # One slot for the GraphInputs, shared with every split copy.
    _graph_inputs: list[GraphInputs] = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len({p.id for p in self.posts}) != len(self.posts):
            raise ValueError("duplicate post ids")
        if self.posts:
            first = self.posts[0]
            dim = first.visual_feat.shape[0]
            for p in self.posts:
                if p.visual_feat.shape[0] != dim:
                    raise ValueError(
                        f"post {p.id}: {p.visual_feat.shape[0]} visual features, "
                        f"but post {first.id} has {dim}"
                    )

    def split_ids(self, name: str) -> list[str]:
        if self.split is None:
            raise ValueError("dataset has no split assignment yet")
        if name not in SPLITS:
            raise ValueError(f"unknown split {name!r}")
        return [p.id for p in self.posts if self.split[p.id] == name]

    @property
    def graph_inputs(self) -> GraphInputs:
        """The records' ``GraphInputs``, derived on first use by this bundle
        or any bundle that shares its records through ``split_dataset``."""
        if not self._graph_inputs:
            self._graph_inputs.append(GraphInputs.from_records(self.posts, self.comments, self.users))
        return self._graph_inputs[0]

    @property
    def vocab_size(self) -> int:
        """One more than the largest token id, at least 2."""
        return max(int(self.graph_inputs.tokens.max(initial=0)) + 1, 2)


# ---------------------------------------------------------------------------
# jsonl persistence


def save_dataset(bundle: DatasetBundle, out_dir) -> None:
    """One JSON object per line and record, of the record's fields in order,
    to the three files that ``load_dataset`` reads."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {"posts": bundle.posts, "comments": bundle.comments, "users": bundle.users}
    for name, records in files.items():
        with open(out_dir / f"{name}.jsonl", "w", encoding="utf-8") as fh:
            for rec in records:
                obj = {f.name: getattr(rec, f.name) for f in fields(rec)}
                fh.write(json.dumps(obj, default=np.ndarray.tolist) + "\n")


def _read_records(path: Path, record_type) -> list:
    """One ``record_type`` per non-blank line of ``path``, built from the
    line's JSON object by field name.  A line that is not valid JSON, not an
    object, lacks a field or fails the record's checks raises ValueError
    naming the file and line."""
    names = [f.name for f in fields(record_type)]
    records = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: invalid JSON ({exc})") from exc
            if not isinstance(obj, dict):
                raise ValueError(f"{path}:{line_no}: expected a JSON object, got {type(obj).__name__}")
            try:
                records.append(record_type(*map(obj.__getitem__, names)))
            except KeyError as exc:
                raise ValueError(f"{path}:{line_no}: missing field {exc.args[0]!r}") from None
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
    return records


def load_dataset(data_dir) -> DatasetBundle:
    data_dir = Path(data_dir)
    return DatasetBundle(
        _read_records(data_dir / "posts.jsonl", PostRecord),
        _read_records(data_dir / "comments.jsonl", CommentRecord),
        _read_records(data_dir / "users.jsonl", UserRecord),
    )


# ---------------------------------------------------------------------------
# splits


def assign_splits(posts, fractions, seed: int) -> dict[str, str]:
    """Stratified train/val/test assignment.

    Global sizes are floor(f_train*N), floor(f_val*N), remainder; per-label
    quotas use floors plus largest-remainder top-up so each label lands
    within one sample of its proportional share.  Deterministic in the seed;
    posts are keyed by id so input order does not matter.
    """
    if len(fractions) != 3 or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must be three values summing to 1, got {fractions}")
    if min(fractions) < 0:
        raise ValueError("fractions must be non-negative")
    n = len(posts)
    train_total = int(np.floor(fractions[0] * n))
    val_total = int(np.floor(fractions[1] * n))
    if train_total == 0 or val_total == 0 or n - train_total - val_total == 0:
        raise ValueError(f"a split would be empty for n={n} with fractions {fractions}")

    by_label: dict[int, list[str]] = {}
    for p in sorted(posts, key=lambda p: p.id):
        by_label.setdefault(p.label, []).append(p.id)
    labels = sorted(by_label)
    counts = [len(by_label[lab]) for lab in labels]
    train_q, val_q = _stratified_quotas(counts, fractions, train_total, val_total)

    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, 11]))
    split: dict[str, str] = {}
    for lab, tq, vq in zip(labels, train_q, val_q):
        ids = list(by_label[lab])
        rng.shuffle(ids)
        for pid in ids[:tq]:
            split[pid] = "train"
        for pid in ids[tq : tq + vq]:
            split[pid] = "val"
        for pid in ids[tq + vq :]:
            split[pid] = "test"
    return split


def _stratified_quotas(counts, fractions, train_total, val_total):
    """Per-label train/val allocations hitting the global totals exactly while
    keeping every (label, split) cell within one sample of its proportional
    share.  Train extras go to the largest remainders; val extras go where
    the residual test cell would otherwise overflow; a final repair pass
    shifts val units between labels if any test cell still deviates past 1.
    """
    raw_train = [fractions[0] * c for c in counts]
    train_q = [int(np.floor(q)) for q in raw_train]
    order = sorted(range(len(counts)), key=lambda i: (train_q[i] - raw_train[i], i))
    for i in order[: train_total - sum(train_q)]:
        train_q[i] += 1
    train_dev = [q - r for q, r in zip(train_q, raw_train)]

    raw_val = [fractions[1] * c for c in counts]
    val_q = [int(np.floor(q)) for q in raw_val]
    keys = [(raw_val[i] - val_q[i]) - train_dev[i] for i in range(len(counts))]
    order = sorted(range(len(counts)), key=lambda i: (-keys[i], i))
    for i in order[: val_total - sum(val_q)]:
        val_q[i] += 1

    def test_dev(i):
        test_frac = 1.0 - fractions[0] - fractions[1]
        return (counts[i] - train_q[i] - val_q[i]) - test_frac * counts[i]

    for _ in range(4 * len(counts)):
        worst = max(range(len(counts)), key=test_dev)
        if test_dev(worst) <= 1.0 + 1e-9:
            break
        donors = [
            i for i in range(len(counts))
            if i != worst and val_q[i] >= 1 and (val_q[i] - 1) - raw_val[i] >= -1.0 - 1e-9
        ]
        if not donors:
            break
        donor = min(donors, key=test_dev)
        val_q[worst] += 1
        val_q[donor] -= 1
    return train_q, val_q


def split_dataset(bundle: DatasetBundle, fractions, seed: int) -> DatasetBundle:
    """Return a copy of the bundle with a fresh stratified split assignment.
    The copy shares the bundle's records and their ``graph_inputs``."""
    split = assign_splits(bundle.posts, fractions, seed)
    copy = DatasetBundle(bundle.posts, bundle.comments, bundle.users, split=split)
    copy._graph_inputs = bundle._graph_inputs
    return copy


# ---------------------------------------------------------------------------
# synthetic corpus

VOCAB_SIZE = 121  # token 0 is padding; real ids 1..120 split into two class blocks
POST_LEN_RANGE = (12, 20)
COMMENT_LEN_RANGE = (6, 12)
COMMENTS_PER_POST = (1, 3)


def generate_synthetic(
    n: int,
    d: int,
    separation: float,
    graph_noise: float = 0.25,
    seed: int = 0,
) -> DatasetBundle:
    """Synthetic two-class corpus with controllable signal per modality.

    ``separation`` drives both the distance between class-conditional visual
    Gaussians and the disjointness of post token distributions (zero means
    neither carries label signal).  ``graph_noise`` in [0, 1] corrupts the
    social side: commenting users are drawn across community lines and
    comment tokens lose their class conditioning as it approaches 1.
    Fully deterministic in ``seed``.
    """
    if n < 20:
        raise ValueError(f"need n >= 20, got {n}")
    if separation < 0:
        raise ValueError(f"separation must be >= 0, got {separation}")
    if not 0.0 <= graph_noise <= 1.0:
        raise ValueError(f"graph_noise must lie in [0, 1], got {graph_noise}")
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, 7]))

    half_vocab = (VOCAB_SIZE - 1) // 2
    blocks = {
        0: np.arange(1, 1 + half_vocab),
        1: np.arange(1 + half_vocab, VOCAB_SIZE),
    }
    direction = rng.standard_normal(d)
    direction /= np.sqrt((direction**2).sum())
    means = {0: -0.5 * separation * direction, 1: 0.5 * separation * direction}

    n_users = max(6, round(n / 15))
    users = [UserRecord(id=f"u{i:04d}") for i in range(n_users)]
    communities = {0: list(range(n_users // 2)), 1: list(range(n_users // 2, n_users))}

    def draw_tokens(label: int, length: int, p_pref: float) -> list[int]:
        own, other = blocks[label], blocks[1 - label]
        pick_own = rng.random(length) < p_pref
        toks = np.where(pick_own, rng.choice(own, size=length), rng.choice(other, size=length))
        return [int(t) for t in toks]

    def draw_user(label: int) -> str:
        own = label if rng.random() >= 0.5 * graph_noise else 1 - label
        return users[rng.choice(communities[own])].id

    p_pref_post = 0.5 + 0.5 * min(1.0, separation / 5.0)
    p_pref_comment = 0.5 + 0.5 * (1.0 - graph_noise)

    posts: list[PostRecord] = []
    comments: list[CommentRecord] = []
    for i in range(n):
        label = i % 2  # balanced within one sample
        length = int(rng.integers(POST_LEN_RANGE[0], POST_LEN_RANGE[1] + 1))
        tokens = draw_tokens(label, length, p_pref_post)
        visual = means[label] + rng.standard_normal(d)
        author = draw_user(label)
        pid = f"p{i:05d}"
        for j in range(int(rng.integers(COMMENTS_PER_POST[0], COMMENTS_PER_POST[1] + 1))):
            clen = int(rng.integers(COMMENT_LEN_RANGE[0], COMMENT_LEN_RANGE[1] + 1))
            comments.append(
                CommentRecord(
                    id=f"c{i:05d}_{j}",
                    tokens=draw_tokens(label, clen, p_pref_comment),
                    user_id=draw_user(label),
                    post_id=pid,
                )
            )
        posts.append(
            PostRecord(
                id=pid,
                tokens=tokens,
                visual_feat=visual,
                user_id=author,
                label=label,
            )
        )
    return DatasetBundle(posts, comments, users)
