#!/usr/bin/env python3
"""One full-size train step: its time and the process's peak memory.

Runs one `train_step` plus `adamw_step` of the model in a run config
(default: scripts/full.cfg, batch 1024) on synthetic records, and prints
seconds per step, images per second and the peak RSS (`ru_maxrss`). On 2
cores the shipped config's step took about 75 s at about 380 MB.

Usage: python3 scripts/full_step.py [CONFIG]
"""
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

from cct.data import batch_iter, compute_norm_stats, synthetic_dataset  # noqa: E402
from cct.model import init_params  # noqa: E402
from cct.optim import adamw_step, init_adamw_state  # noqa: E402
from cct.train import RunConfig, load_run_config, train_step  # noqa: E402


def full_step(run: RunConfig) -> dict:
    """One step of run's model at run.batch_size on synthetic records:
    {"loss", "s_per_step", "img_per_s", "max_rss_mb"}."""
    cfg = run.model_config()
    params = init_params(cfg, run.seed)
    state = init_adamw_state(params)
    records = synthetic_dataset(run.batch_size, min(cfg.n_classes, 100), run.seed)
    batch = next(iter(batch_iter(records, run.batch_size, run.seed,
                                 compute_norm_stats(records), run.augment)))
    t0 = time.perf_counter()
    loss, _, grads = train_step(params, cfg, batch, 0)
    adamw_step(params, grads, state, run.hyperparams())
    seconds = time.perf_counter() - t0
    return {"loss": loss, "s_per_step": seconds,
            "img_per_s": run.batch_size / seconds,
            "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def main(argv) -> None:
    run = load_run_config(argv[0] if argv else os.path.join(HERE, "full.cfg"))
    got = full_step(run)
    print(f"{run.attn_kind} batch {run.batch_size}: loss {got['loss']:.4f}, "
          f"{got['s_per_step']:.1f} s/step, {got['img_per_s']:.1f} img/s, "
          f"max RSS {got['max_rss_mb']:.0f} MB")


if __name__ == "__main__":
    main(sys.argv[1:])
