"""Bitwise fingerprint of the pipeline on the benchmark's three corpora.

Prints one JSON line with the BLAS thread setting it ran under
(``blas_threads``: ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` as set
in the environment, or null, and ``os.cpu_count()``) and, per corpus, the
sha256 of:

- ``token_weights``, ``src``, ``dst``: the social graph's token table and
  edges;
- ``grads``: the gradients of every Adam step, in step order;
- ``losses``: the epoch losses;
- ``params``: the parameters after training;
- ``probs``: the test split's class probabilities, from the model that a
  saved checkpoint loads back into;
- ``checkpoint``: the bytes of that checkpoint.

Beside the hashes, ``records_per_step`` lists the distinct numbers of tape
records (``Tape.emit`` calls) that the training steps wrote between one
Adam step and the next, sorted; it is null for eval-paper, which does not
train.

The corpora and configs are those of the benchmark workloads
(``perfbench/workloads.py``) at corpus seed 7.  The eval-paper model is not
trained: as in the benchmark, its checkpoint holds the initial parameters.
The script uses only the public ``ismaf`` API (and wraps
``training.Adam.step`` to see the gradients and ``autodiff.Tape.emit`` to
count records), so one copy of it runs against any commit's sources:

    PYTHONPATH=src python3 tests/fingerprint.py
    PYTHONPATH=/path/to/other/checkout/src python3 tests/fingerprint.py

Two lines are equal exactly when every hashed number is bitwise equal.
The numbers depend on the numpy and BLAS build and on the BLAS thread
count (OpenBLAS uses one thread per core unless told otherwise), so compare
lines from one machine, one install and one ``blas_threads`` value.
``--posts N`` builds every corpus with N posts instead, for a quick check.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

import ismaf
from ismaf import autodiff, training

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

SEED = 7


def _update(digest, name: str, array) -> None:
    array = np.ascontiguousarray(array)
    digest.update(f"{name}:{array.dtype.str}:{array.shape};".encode())
    digest.update(array.tobytes())


def _hash(named_arrays) -> str:
    digest = hashlib.sha256()
    for name, array in named_arrays:
        _update(digest, name, array)
    return digest.hexdigest()


def _train(config, split):
    """``ismaf.train`` with each Adam step's gradients fed to a digest and
    the tape records written before each step counted."""
    grads = hashlib.sha256()
    step, emit = training.Adam.step, autodiff.Tape.emit
    records, per_step = [0], set()

    def recording_step(self, step_grads, lr):
        for name, g in step_grads.items():
            _update(grads, name, g)
        per_step.add(records[0])
        records[0] = 0
        return step(self, step_grads, lr)

    def counting_emit(self, *args, **kwargs):
        records[0] += 1
        return emit(self, *args, **kwargs)

    training.Adam.step, autodiff.Tape.emit = recording_step, counting_emit
    try:
        result = ismaf.train(config, split)
    finally:
        training.Adam.step, autodiff.Tape.emit = step, emit
    return result.model, result.history, grads.hexdigest(), sorted(per_step)


def fingerprint(wl: workloads.Workload) -> dict:
    config = workloads.config(ismaf, wl)
    split = ismaf.split_dataset(workloads.corpus(ismaf, wl, SEED), config.fractions, config.seed)
    if wl.kind == "train":
        model, history, grads, records = _train(config, split)
    else:
        model, history, grads = ismaf.IsmafModel(config, split), [], hashlib.sha256().hexdigest()
        records = None
    losses = np.array([list(epoch.losses.as_dict().values()) for epoch in history], dtype=np.float64)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        ismaf.save_model(model, path)
        checkpoint = hashlib.sha256(path.read_bytes()).hexdigest()
        reloaded = ismaf.load_model(path, split)
    ids = split.split_ids("test")
    probs = reloaded.forward(reloaded.store.constants(), ids, with_losses=False).probs
    graph = model.graph
    return {
        "token_weights": _hash([("token_weights", graph.token_weights)]),
        "src": _hash([("src", graph.src)]),
        "dst": _hash([("dst", graph.dst)]),
        "grads": grads,
        "losses": _hash([("losses", losses)]),
        "params": _hash(model.store.items()),
        "probs": _hash([("probs", probs)]),
        "checkpoint": checkpoint,
        "records_per_step": records,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--posts", type=int, help="posts per corpus (default: each workload's own)")
    args = parser.parse_args(argv)
    out = {
        "blas_threads": {
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "cpu_count": os.cpu_count(),
        }
    }
    for name, wl in workloads.WORKLOADS.items():
        if args.posts is not None:
            wl = dataclasses.replace(wl, n_posts=args.posts)
        out[name] = fingerprint(wl)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
