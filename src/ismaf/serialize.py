"""Model checkpoint format 2.

A checkpoint is a magic line, a line with the sha256 of everything after
it, one JSON header line, then the arrays' raw little-endian bytes.  The
header holds the format version, the full train config, the fingerprint
of the dataset records the social graph was built from (one sha256 per
part: ``ids``, ``tokens`` and ``links``, see ``_record_fingerprint``), and
an ``[name, dtype, shape]`` table of the arrays in file order: every
parameter as float64, then the graph's non-loop edges as
``graph.out_degree`` (int32, one count per node) and ``graph.dst``
(int32, ordered by source).  The n self-loops are not stored: they come
last in every graph, so sources are sorted only over the other edges.

Loading checks the magic, the checksum and the version, then the
parameter shapes that depend on the dataset, then the record fingerprint,
and builds the model on the stored edges: the similarity join does not
run, and a checkpoint refuses records other than those its graph was
built from.  Version-1 files (JSON with base64 parameters) are refused.
The file is read in pieces, once for the checksum and once into the
arrays, the parameters straight into the new model's, so loading holds
no copy of the file and no second copy of the parameters, and frees no
large block that would change how the heap serves the calls after it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .config import TrainConfig
from .data import DatasetBundle
from .model import IsmafModel

MAGIC = b"ISMAF checkpoint\n"
FORMAT_VERSION = 2
HEADER_KEYS = ("format_version", "config", "records", "arrays")
EDGE_ARRAYS = ("graph.out_degree", "graph.dst")
CHUNK_BYTES = 1 << 18  # read size while checking the digest


class ModelFileError(ValueError):
    """Unreadable, tampered, or incompatible model file."""


def _record_fingerprint(dataset: DatasetBundle) -> dict[str, str]:
    """sha256 of each part of the records the social graph depends on:
    the node ids in row order (posts, comments, users), every text's
    tokens, and the links (each text's author, each comment's post), all
    read from the records' ``graph_inputs``.  A link is hashed as the id
    at its row; a reference to no node (row -1) reads as null, so records
    with one never match a checkpoint, whose records had none."""
    inputs = dataset.graph_inputs
    ids, n_posts, n_texts = inputs.node_ids, inputs.n_posts, inputs.n_texts
    linked = ids + [None]
    links = [[linked[row] for row in rows.tolist()] for rows in (inputs.authors, inputs.commented)]
    parts = {
        "ids": json.dumps([ids[:n_posts], ids[n_posts:n_texts], ids[n_texts:]]).encode("utf-8"),
        "tokens": inputs.lengths.astype("<i8").tobytes() + inputs.tokens.astype("<i8").tobytes(),
        "links": json.dumps(links).encode("utf-8"),
    }
    return {part: hashlib.sha256(data).hexdigest() for part, data in parts.items()}


def _dtype(name: str) -> str:
    return "<i4" if name in EDGE_ARRAYS else "<f8"


def save_model(model: IsmafModel, path) -> None:
    """Write ``model`` to ``path`` through a temporary file in the same
    directory that replaces ``path`` once it is complete, so a failed
    write leaves an older file at ``path`` as it was."""
    graph = model.graph
    looped = graph.src.size - graph.n_nodes  # the self-loops come last
    arrays = dict(model.store.items())
    arrays["graph.out_degree"] = np.bincount(graph.src[:looped], minlength=graph.n_nodes)
    arrays["graph.dst"] = graph.dst[:looped]
    arrays = {name: np.ascontiguousarray(a, dtype=_dtype(name)) for name, a in arrays.items()}
    header = {
        "format_version": FORMAT_VERSION,
        "config": model.config.to_dict(),
        "records": _record_fingerprint(model.dataset),
        "arrays": [[name, value.dtype.str, list(value.shape)] for name, value in arrays.items()],
    }
    body = [json.dumps(header).encode("utf-8") + b"\n", *arrays.values()]
    digest = hashlib.sha256()
    for part in body:
        digest.update(part)

    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            for part in [MAGIC, digest.hexdigest().encode("ascii") + b"\n"] + body:
                f.write(part)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _version_error(path, version) -> ModelFileError:
    return ModelFileError(
        f"{path}: model format version {version} is not supported (expected "
        f"{FORMAT_VERSION}); re-run `ismaf train` to write a version-{FORMAT_VERSION} checkpoint"
    )


def _not_version_2(path, raw: bytes) -> ModelFileError:
    """The error for a file without the magic line: a version-1 checkpoint
    is JSON that names its version."""
    try:
        payload = json.loads(raw)
    except ValueError:
        payload = None
    if isinstance(payload, dict) and "format_version" in payload:
        return _version_error(path, payload["format_version"])
    return ModelFileError(f"{path} is not a model file")


def _array_table(path, table, size: int) -> dict[str, tuple]:
    """``name -> (dtype, shape, offset)`` of the header's array table, the
    offsets counted from the start of the body, which holds ``size`` bytes."""
    if not isinstance(table, list):
        raise ModelFileError(f"{path}: the array table is not a list")
    entries, offset = {}, 0
    for entry in table:
        if not (
            isinstance(entry, list) and len(entry) == 3 and isinstance(entry[0], str)
            and isinstance(entry[2], list) and all(type(s) is int and s >= 0 for s in entry[2])
        ):
            raise ModelFileError(f"{path}: malformed array table entry {entry!r}")
        name, dtype, shape = entry
        if dtype != _dtype(name):
            raise ModelFileError(
                f"{path}: array {name!r} has dtype {dtype!r}, expected {_dtype(name)!r}"
            )
        entries[name] = (np.dtype(dtype), tuple(shape), offset)
        offset += np.dtype(dtype).itemsize * math.prod(shape)
    if size != offset:
        raise ModelFileError(
            f"{path}: the body holds {size} bytes of arrays but the "
            f"array table needs {offset} (file truncated or padded)"
        )
    return entries


def _fill(f, position: int, array: np.ndarray) -> None:
    """Read the bytes of ``array`` (C-contiguous, so its flat view is no
    copy) in place from ``position`` of the open file."""
    f.seek(position)
    if f.readinto(array.reshape(-1).view(np.uint8)) != array.nbytes:
        raise ModelFileError(f"{f.name}: file truncated while reading")


def _read(f, body: int, entry) -> np.ndarray:
    """A new array of one ``_array_table`` entry."""
    dtype, shape, offset = entry
    array = np.empty(shape, dtype)
    _fill(f, body + offset, array)
    return array


def _stored_edges(path, out_degree: np.ndarray, dst: np.ndarray, n: int):
    """The graph's ``(src, dst)`` from its stored non-loop edges, with one
    self-loop per node appended.  ``save_model`` stores each source's
    destinations strictly increasing and never the source itself, so a
    repeated, unordered or self edge is refused: it would run the model on
    another graph.  ``SocialGraph.validate`` refuses a one-way edge."""
    if out_degree.shape != (n,):
        raise ModelFileError(
            f"{path}: graph.out_degree has shape {out_degree.shape}, expected ({n},) for {n} nodes"
        )
    if dst.ndim != 1:
        raise ModelFileError(f"{path}: graph.dst has shape {dst.shape}, expected one dimension")
    if (out_degree < 0).any():
        raise ModelFileError(f"{path}: graph.out_degree holds a negative count")
    if out_degree.sum() != dst.size:
        raise ModelFileError(
            f"{path}: graph.out_degree sums to {out_degree.sum()} "
            f"but graph.dst holds {dst.size} edges"
        )
    if dst.size and (dst.min() < 0 or dst.max() >= n):
        raise ModelFileError(f"{path}: graph.dst holds a node outside [0, {n})")
    loop = np.arange(n)
    src = np.repeat(loop, out_degree)
    if (dst == src).any():
        raise ModelFileError(f"{path}: graph.dst holds a self-loop, which is never stored")
    if ((np.diff(dst) <= 0) & (src[1:] == src[:-1])).any():
        raise ModelFileError(f"{path}: graph.dst is not strictly increasing within a source")
    return np.concatenate([src, loop]), np.concatenate([dst, loop])


def _check_shape(path, name: str, have: tuple, want: tuple) -> None:
    if have != want:
        raise ModelFileError(
            f"{path}: parameter {name!r} has shape {have} in the file but {want} for this dataset"
        )


def _body_digest(f) -> bytes:
    """The digest line for the file from its position to its end."""
    digest = hashlib.sha256()
    chunk = bytearray(CHUNK_BYTES)
    while size := f.readinto(chunk):
        digest.update(memoryview(chunk)[:size])
    return digest.hexdigest().encode("ascii") + b"\n"


def load_model(path, dataset: DatasetBundle) -> IsmafModel:
    """Restore a trained model against the dataset it will be used with."""
    try:
        f = open(path, "rb")
    except OSError as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc
    with f:
        return _load(path, f, dataset)


def _load(path, f, dataset: DatasetBundle) -> IsmafModel:
    """``load_model`` on the open file: the file is read in chunks for its
    checksum, then each array straight into its final place."""
    if f.read(len(MAGIC)) != MAGIC:
        f.seek(0)
        raise _not_version_2(path, f.read())
    if f.read(65) != _body_digest(f):  # 64 hex digits and a newline
        raise ModelFileError(f"{path}: checksum mismatch, file is corrupt or tampered")
    f.seek(len(MAGIC) + 65)
    line = f.readline()
    try:
        header = json.loads(line) if line.endswith(b"\n") else None
    except ValueError:
        header = None
    if not isinstance(header, dict):
        raise ModelFileError(f"{path}: malformed checkpoint header")
    if header.get("format_version") != FORMAT_VERSION:
        raise _version_error(path, header.get("format_version"))
    unset = [key for key in HEADER_KEYS if key not in header]
    if unset:
        raise ModelFileError(f"{path}: checkpoint header has no {', '.join(unset)}")
    try:
        config = TrainConfig.from_dict(header["config"])
    except (TypeError, ValueError) as exc:
        raise ModelFileError(f"{path}: bad config: {exc}") from exc
    body = f.tell()
    stored = _array_table(path, header["arrays"], os.fstat(f.fileno()).st_size - body)
    absent = [name for name in EDGE_ARRAYS if name not in stored]
    if absent:
        raise ModelFileError(f"{path}: no {', '.join(absent)} array")

    # The shapes that depend on the dataset are checked before the model,
    # and with it the social graph, is built.
    early = {"text.embed": (dataset.vocab_size, config.d)}
    if dataset.posts:
        early["visual.w"] = (dataset.posts[0].visual_feat.shape[0], config.d)
    for name, want in early.items():
        if name in stored:
            _check_shape(path, name, stored[name][1], want)
    records = header["records"] if isinstance(header["records"], dict) else {}
    for part, value in _record_fingerprint(dataset).items():
        if records.get(part) != value:
            raise ModelFileError(
                f"{path}: this dataset's record {part} differ from those the model's "
                f"social graph was built from (record fingerprint mismatch); "
                f"re-run `ismaf train` on this dataset"
            )
    out_degree, dst = [_read(f, body, stored.pop(name)) for name in EDGE_ARRAYS]
    n_nodes = len(dataset.posts) + len(dataset.comments) + len(dataset.users)
    edges = _stored_edges(path, out_degree, dst, n_nodes)
    try:
        model = IsmafModel(config, dataset, edges=edges)
    except ValueError as exc:  # SocialGraph.validate refused the stored edges
        raise ModelFileError(f"{path}: {exc}") from exc
    if set(stored) != set(model.store.names()):
        missing = set(stored) ^ set(model.store.names())
        raise ModelFileError(f"{path}: parameter set mismatch: {sorted(missing)}")
    for name, (_, shape, _) in stored.items():
        _check_shape(path, name, shape, model.store.value(name).shape)
    # Each parameter is read over the model's initial draw, a native float64
    # array of its own (ParamStore.create), so no second copy of the
    # parameters is made; only a big-endian host swaps the bytes.
    for name, (_, _, offset) in stored.items():
        value = model.store.value(name)
        _fill(f, body + offset, value)
        if sys.byteorder == "big":
            value.byteswap(inplace=True)
    return model
