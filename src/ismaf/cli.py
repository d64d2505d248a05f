"""Command line entry points: synth, train, eval, gradcheck, sweep."""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .config import load_config
from .data import generate_synthetic, load_dataset, save_dataset, split_dataset
from .gradcheck import run_suite
from .serialize import load_model, save_model
from .training import evaluate, parse_sweep_range, sweep_lambda, train


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ismaf",
        description="Multimodal rumor detection: train, evaluate, and probe the pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--n", type=int, required=True, help="number of posts")
    p_synth.add_argument("--d", type=int, required=True, help="visual feature dimension")
    p_synth.add_argument("--separation", type=float, default=0.0,
                         help="class separation of visual/text signal")
    p_synth.add_argument("--graph-noise", type=float, default=0.25,
                         help="social signal corruption in [0, 1]")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True, help="output directory")

    p_train = sub.add_parser("train", help="train a model")
    p_train.add_argument("--config", required=True, help="key = value config file")
    p_train.add_argument("--data", required=True, help="dataset directory")
    p_train.add_argument("--out", required=True, help="model output path")

    p_eval = sub.add_parser("eval", help="evaluate a trained model")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--split", default="test", choices=("train", "val", "test"))
    p_eval.add_argument("--report", help="write the metrics report to this file")
    p_eval.add_argument("--zero-social", action="store_true",
                        help="zero the social representation at inference")

    p_grad = sub.add_parser("gradcheck", help="run the gradient integrity suite")
    p_grad.add_argument("--seed", type=int, default=0)

    p_sweep = sub.add_parser("sweep", help="sweep one loss weight")
    p_sweep.add_argument("--lambda-index", type=int, required=True, choices=(1, 2, 3, 4))
    p_sweep.add_argument("--range", required=True, help="start:stop:step, inclusive")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--data", required=True)
    p_sweep.add_argument("--epochs", type=int, default=None,
                         help="epochs per sweep point (default: config epochs / 5)")
    return parser


def _cmd_synth(args) -> int:
    bundle = generate_synthetic(
        n=args.n, d=args.d, separation=args.separation,
        graph_noise=args.graph_noise, seed=args.seed,
    )
    save_dataset(bundle, args.out)
    print(
        f"wrote {len(bundle.posts)} posts, {len(bundle.comments)} comments, "
        f"{len(bundle.users)} users to {args.out}"
    )
    return 0


def _cmd_train(args) -> int:
    config = load_config(args.config)
    dataset = split_dataset(load_dataset(args.data), config.fractions, config.seed)
    start = time.time()
    result = train(config, dataset)
    report = evaluate(result.model, dataset, "test")
    save_model(result.model, args.out)
    print(f"trained {config.epochs} epochs in {time.time() - start:.1f}s")
    print(f"best validation accuracy {result.best_val_accuracy:.4f} at epoch {result.best_epoch}")
    print(f"test accuracy {report.accuracy:.4f}, f1 {report.f1:.4f}")
    print(f"model written to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    dataset = load_dataset(args.data)
    model = load_model(args.model, dataset)
    dataset = split_dataset(dataset, model.config.fractions, model.config.seed)
    report = evaluate(model, dataset, args.split, zero_social=args.zero_social)
    text = report.format()
    print(text, end="")
    if args.report:
        Path(args.report).write_text(text, encoding="utf-8")
        print(f"report written to {args.report}")
    return 0


def _cmd_gradcheck(args) -> int:
    failed = 0
    for res in run_suite(args.seed):
        status = "PASS" if res.passed else "FAIL"
        print(f"{res.name}: max relative error {res.max_rel_error:.3e} [{status}]")
        failed += not res.passed
    if failed:
        print(f"{failed} gradient check(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    dataset = split_dataset(load_dataset(args.data), config.fractions, config.seed)
    values = parse_sweep_range(args.range)
    rows = sweep_lambda(config, dataset, args.lambda_index, values, epochs=args.epochs)
    print(f"lambda{args.lambda_index}\tacc\tf1")
    for row in rows:
        print(f"{row.lambda_value:g}\t{row.accuracy:.4f}\t{row.f1:.4f}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # noqa: BLE001 - diagnostic + nonzero exit on any error
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
