"""ISMAF benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The run happens in a child process that
serves it alone (worker.py), so the reported peak RSS is the run's own.
Other children first write an eval workload's corpus and checkpoint, and
touch the memory the run will use (harness.warm_memory).  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the lines before it give each metric's sample count and the
per-layer metrics that could not be measured.  Exit code 0 means a result
was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
TIME_LIMIT_S = 170  # a run must end within 180 s

from workloads import WORKLOADS  # noqa: E402


def child_env() -> dict[str, str]:
    """Fixed BLAS thread count (at most two, the reference machine's cores)
    and hash seed, so runs differ only by the workload seed."""
    threads = str(min(2, len(os.sched_getaffinity(0))))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], deadline: float) -> None:
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=child_env(),
        stdout=sys.stderr,
        check=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ismaf" / "__init__.py").is_file():
        print(f"error: no ismaf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if WORKLOADS[args.workload].kind == "eval":
            run_child(["prepare", args.workload, str(args.seed), str(workdir)], deadline)
        run_child(["warm", args.workload], deadline)
        result_path = workdir / "result.json"
        run_child(
            ["measure", args.workload, str(args.seed), str(args.seconds), args.trace,
             str(workdir), str(result_path)],
            deadline,
        )
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass

    for problem in result["problems"]:
        print(f"failed {problem}", file=sys.stderr)
    # A failed op may leave a metric unmeasured, and so may a traced
    # function that no longer exists; the result line then shows the failure
    # or lacks that metric.  Any other unmeasured metric is a fault of the
    # harness.
    unexplained = result["declared_absent"] and not result["failed"] and not result["missing_functions"]
    if not result["metrics"] or unexplained:
        print(f"error: no result; unmeasured: {result['declared_absent']}", file=sys.stderr)
        return 1
    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']} ({result['samples'][name]} samples)")
    for name, entry in result["extra"].items():
        print(
            f"{name} = {entry['value']:.6g} {entry['unit']} ({result['samples'][name]} samples; "
            "train workloads only, not in the result line)"
        )
    for name, value in result["raw"].items():
        print(f"{name} from unscaled wall time = {value:.6g}")
    for name, reason in result["absent"].items():
        print(f"{name} absent: {reason}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
