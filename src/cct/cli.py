"""Command-line entry point.

Subcommands: train, eval, params, bench, gradcheck, overfit. The data
directory comes from --data-dir or the CCT_DATA_DIR environment variable.
"""
from __future__ import annotations

import argparse
import os
import sys

from .attention import KINDS
from .bench import bench_attention, crossover_warnings, param_report, write_bench_csv
from .checkpoint import CheckpointError
from .data import DataError
from .gradcheck import run_suite
from .tensor import ConfigError
from .train import evaluate, load_run_config, overfit, train

# A refused setting, data file or checkpoint, or an input file that is
# missing, a directory or unreadable, ends the command with one line that
# names it; an error from inside a run (a non-finite step, an interrupt)
# keeps its traceback.
_REFUSALS = (ConfigError, DataError, CheckpointError, FileNotFoundError,
             IsADirectoryError, PermissionError)


def _data_dir(args) -> str:
    path = getattr(args, "data_dir", None) or os.environ.get("CCT_DATA_DIR")
    if not path:
        raise SystemExit("no data directory: pass --data-dir or set CCT_DATA_DIR")
    return path


def _int_list(text: str):
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, "
                                         f"got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cct",
                                description="Compact convolutional transformer "
                                            "training and analysis tools.")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model")
    t.add_argument("--config", help="flat key=value settings file")
    t.add_argument("--data-dir")
    t.add_argument("--out-dir", required=True)
    t.add_argument("--seed", type=int)
    t.add_argument("--attn", choices=KINDS, dest="attn_kind")
    t.add_argument("--resume", help="checkpoint to continue from")

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data-dir")
    e.add_argument("--split", choices=("train", "test"), default="test")

    pa = sub.add_parser("params", help="parameter count report")
    pa.add_argument("--config", required=True)

    b = sub.add_parser("bench", help="attention micro-benchmark, CSV on stdout")
    b.add_argument("--dims", type=_int_list, required=True)
    b.add_argument("--ctx", type=_int_list, required=True)
    b.add_argument("--iters", type=int, default=20)
    b.add_argument("--warmup", type=int, default=5)

    g = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    g.add_argument("--tol", type=float, default=1e-4)
    g.add_argument("--instances", type=int, default=100)

    o = sub.add_parser("overfit", help="small-sample memorization probe")
    o.add_argument("--n", type=int, default=64)
    o.add_argument("--steps", type=int, default=300)
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--attn", choices=KINDS, default="super")
    o.add_argument("--data-dir")
    return p


def _cmd_train(args) -> int:
    run = load_run_config(args.config, seed=args.seed, attn_kind=args.attn_kind)
    result = train(run, _data_dir(args), args.out_dir,
                   resume_from=args.resume, log=print)
    print(f"done: {result['checkpoint']}")
    print(f"metrics: {result['metrics']}")
    return 0


def _cmd_eval(args) -> int:
    m = evaluate(args.checkpoint, _data_dir(args), args.split)
    print(f"{args.split}: loss {m['loss']:.4f}, top1 {m['top1']:.2f}%, "
          f"top5 {m['top5']:.2f}%")
    return 0


def _cmd_params(args) -> int:
    run = load_run_config(args.config)
    print(param_report(run.model_config()))
    return 0


def _cmd_bench(args) -> int:
    rows = bench_attention(args.dims, args.ctx, iters=args.iters, warmup=args.warmup)
    write_bench_csv(rows, sys.stdout)
    for w in crossover_warnings(rows):
        print(w, file=sys.stderr)
    return 0


def _cmd_gradcheck(args) -> int:
    reports = run_suite(instances=args.instances, tol=args.tol)
    failed = [r for r in reports if not r.ok]
    for r in reports:
        status = "ok" if r.ok else "FAIL"
        print(f"{r.op:20s} {status:4s} instances={r.instances} "
              f"max_rel_err={r.max_rel_err:.3e}")
    print(f"{len(reports) - len(failed)}/{len(reports)} ops passed "
          f"at tol {args.tol}")
    return 1 if failed else 0


def _cmd_overfit(args) -> int:
    result = overfit(n=args.n, steps=args.steps, seed=args.seed,
                     attn_kind=args.attn, data_dir=args.data_dir or
                     os.environ.get("CCT_DATA_DIR"), log=print)
    if result["reached"]:
        print(f"reached {result['top1']:.1f}% train top-1 at step "
              f"{result['steps']}")
        return 0
    print(f"did not reach target: final top1 {result['top1']:.1f}%")
    return 1


_COMMANDS = {"train": _cmd_train, "eval": _cmd_eval, "params": _cmd_params,
             "bench": _cmd_bench, "gradcheck": _cmd_gradcheck,
             "overfit": _cmd_overfit}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _REFUSALS as e:
        raise SystemExit(f"cct {args.command}: {e}") from None


if __name__ == "__main__":
    raise SystemExit(main())
