"""Smoke test of ``fingerprint.py`` at a tiny size.  Only its run-to-run
equality is checked here: the hashes themselves depend on the numpy and
BLAS build."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
KEYS = {"token_weights", "src", "dst", "grads", "losses", "params", "probs", "checkpoint"}


def _run_fingerprint() -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(HERE.parent / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(HERE / "fingerprint.py"), "--posts", "40"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_two_processes_print_the_same_line():
    first, second = _run_fingerprint(), _run_fingerprint()
    assert first == second
    assert first.count("\n") == 1
    record = json.loads(first)
    threads = record.pop("blas_threads")
    assert threads == {
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
    }
    assert set(record) == {"train-dense", "train-sparse", "eval-paper"}
    nothing = hashlib.sha256().hexdigest()
    for name, hashes in record.items():
        records = hashes.pop("records_per_step")
        assert set(hashes) == KEYS, name
        assert all(len(h) == 64 for h in hashes.values()), name
        # The train corpora take Adam steps; eval-paper's model is untrained.
        assert (hashes["grads"] == nothing) == (name == "eval-paper"), name
        if name == "eval-paper":
            assert records is None
        else:
            assert records and all(type(n) is int and n > 0 for n in records), name
            assert records == sorted(set(records)), name
