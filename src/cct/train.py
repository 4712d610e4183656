"""Training and evaluation driver.

Everything a run does is a pure function of (config, seed, dataset bytes):
batch order, augmentation, dropout, and initialization all draw from named
streams keyed by the run seed, so a resumed run continues the exact
trajectory of an uninterrupted one.
"""
from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    batch_iter,
    cached_norm_stats,
    compute_norm_stats,
    load_cifar100,
    synthetic_dataset,
)
from .metrics import MetricsRow, MetricsWriter, drop_rows_from, topk_accuracy
from .model import (ModelConfig, chunk_work, forward, forward_tokens,
                    init_params, tokenize)
from .optim import AdamWHyperParams, adamw_step, init_adamw_state
from .tensor import (ConfigError, Tensor, checked_labels, cross_entropy,
                     gradients, no_grad, sum_chunks, xent_grad, xent_rows)


@dataclass(frozen=True)
class RunConfig(ModelConfig, AdamWHyperParams):
    """Every setting of a run: the model's and the optimizer's fields
    (constant learning rate for the whole run) plus the run's own."""
    epochs: int = 75
    batch_size: int = 1024
    augment: bool = True
    checkpoint_every: int = 5
    eval_batch_size: int = 256

    def __post_init__(self):
        ModelConfig.__post_init__(self)
        AdamWHyperParams.__post_init__(self)
        for name in ("epochs", "batch_size", "checkpoint_every", "eval_batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")

    def _project(self, cls):
        return cls(**{f.name: getattr(self, f.name) for f in dataclasses.fields(cls)})

    def model_config(self) -> ModelConfig:
        return self._project(ModelConfig)

    def hyperparams(self) -> AdamWHyperParams:
        return self._project(AdamWHyperParams)


class NonFiniteError(ArithmeticError):
    """A train step gave a loss or a gradient that is NaN or infinite."""


def _check_finite(loss: float, grads, epoch: int, step: int) -> None:
    """Raise NonFiniteError naming the loss or else the first parameter, in
    canonical order, whose gradient holds a NaN or an infinity."""
    where = f"epoch {epoch}, step {step}"
    if not np.isfinite(loss):
        raise NonFiniteError(f"{where}: the loss is {loss}")
    for name, g in grads.items():
        if g is not None and not np.isfinite(g).all():
            raise NonFiniteError(f"{where}: the gradient of {name} is not finite")


def train_step(params, cfg: ModelConfig, batch, step: int):
    """One train step without the update: (loss, logits, {name: gradient})
    in canonical order, with dropout keyed by `step`.

    Each chunk runs its forward, its rows of the loss gradient and its
    reverse sweep as one task on a pool worker, so at most one chunk graph
    per worker is alive. The bytes are those of forward -> cross_entropy ->
    backward: the gradients add in chunk order, and the loss is the mean of
    the per-sample losses."""
    images = batch.images.data
    n = len(images)
    labels = checked_labels(batch.labels, (n, cfg.n_classes))
    leaves = params.tensors()

    def chunk(c, rows):
        logits = forward_tokens(tokenize(Tensor(images[rows]), params, cfg),
                                params, cfg, training=True, dropout_seed=step,
                                chunk=c)
        z, y = logits.data, labels[rows]
        losses, soft = xent_rows(z, y)
        # backward seeds the mean loss with ones_like(loss), scaled by 1/n
        g = xent_grad(soft, y, np.ones((), z.dtype) / n)
        return (z, losses), gradients(logits, g, leaves)

    outs, sums = sum_chunks(chunk, n, chunk_work(cfg), len(leaves))
    logits = np.concatenate([z for z, _ in outs])
    loss = np.asarray(np.concatenate([losses for _, losses in outs]).mean(),
                      dtype=logits.dtype)
    for t, g in zip(leaves, sums):
        t.grad = g
    return loss.item(), logits, {name: t.grad for name, t in params.items()}


_BOOL_WORDS = {"true": True, "1": True, "yes": True,
               "false": False, "0": False, "no": False}


def parse_config_file(path) -> dict:
    """Flat `key = value` text, one setting per line, # comments."""
    fields = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    out = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', "
                                  f"got {raw.strip()!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in fields:
                raise ConfigError(f"{path}:{lineno}: unknown setting {key!r}")
            kind = fields[key]
            try:
                if kind == "bool":
                    out[key] = _BOOL_WORDS[value.lower()]
                elif kind == "int":
                    out[key] = int(value)
                elif kind == "float":
                    out[key] = float(value)
                else:
                    out[key] = value
            except (KeyError, ValueError):
                raise ConfigError(f"{path}:{lineno}: bad {kind} value "
                                  f"{value!r} for {key!r}") from None
    return out


def load_run_config(path=None, **overrides) -> RunConfig:
    settings = parse_config_file(path) if path is not None else {}
    settings.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**settings)


def _batch_metrics(logits, labels, n_classes):
    top1 = topk_accuracy(logits, labels, 1)
    top5 = topk_accuracy(logits, labels, min(5, n_classes))
    return top1, top5


def evaluate_params(params, cfg: ModelConfig, records, norm,
                    batch_size: int = 256):
    """Eval-mode pass; per-sample weighted aggregate {loss, top1, top5}."""
    total, loss_sum, top1_sum, top5_sum = 0, 0.0, 0.0, 0.0
    with no_grad():
        for batch in batch_iter(records, batch_size, 0, norm, False):
            logits = forward(batch.images, params, cfg, training=False)
            b = len(batch.labels)
            loss_sum += cross_entropy(logits, batch.labels).item() * b
            t1, t5 = _batch_metrics(logits.data, batch.labels, cfg.n_classes)
            top1_sum += t1 * b
            top5_sum += t5 * b
            total += b
    return {"loss": loss_sum / total, "top1": top1_sum / total,
            "top5": top5_sum / total}


def train(run: RunConfig, data_dir, out_dir, resume_from=None, log=None):
    """Full training loop: per-epoch train/val metrics rows, checkpoints
    every `checkpoint_every` epochs plus a final one."""
    say = log or (lambda msg: None)
    metrics_path = os.path.join(os.fspath(out_dir), "metrics.csv")
    final_path = os.path.join(os.fspath(out_dir), "checkpoint_final.bin")
    # the params and AdamW state that a non-finite step started from
    nonfinite_path = os.path.join(os.fspath(out_dir), "checkpoint_nonfinite.bin")

    cfg = run.model_config()
    hp = run.hyperparams()
    # a refused resume raises before anything is created or read
    if resume_from is not None:
        ck = load_checkpoint(resume_from)
        if ck.cfg != cfg:
            raise ConfigError(f"checkpoint model config {ck.cfg} does not match "
                              f"run config {cfg}")
        if ck.seed != run.seed:
            raise ConfigError(f"checkpoint seed {ck.seed} does not match "
                              f"run seed {run.seed}")
        if ck.hp != hp:
            raise ConfigError(f"checkpoint optimizer hyperparameters {ck.hp} do "
                              f"not match run hyperparameters {hp}")
        if ck.epoch >= run.epochs:
            raise ConfigError(f"checkpoint is at epoch {ck.epoch}: a run of "
                              f"{run.epochs} epochs has nothing left to train")
        params, state, start_epoch = ck.params, ck.opt_state, ck.epoch
    else:
        params = init_params(cfg, run.seed)
        state = init_adamw_state(params)
        start_epoch = 0
    # a refused data directory raises before anything is created or dropped
    splits = load_cifar100(data_dir)
    train_records, val_records = splits["train"], splits["test"]
    norm = cached_norm_stats(
        train_records, os.path.join(os.fspath(data_dir), "norm_stats.txt"))

    if resume_from is not None:
        drop_rows_from(metrics_path, start_epoch)
    os.makedirs(out_dir, exist_ok=True)

    steps_per_epoch = (len(train_records) + run.batch_size - 1) // run.batch_size
    step = start_epoch * steps_per_epoch

    with MetricsWriter(metrics_path) as writer:
        for epoch in range(start_epoch, run.epochs):
            t0 = time.perf_counter()
            total, loss_sum, top1_sum, top5_sum = 0, 0.0, 0.0, 0.0
            for batch in batch_iter(train_records, run.batch_size, run.seed,
                                    norm, run.augment, epoch=epoch):
                loss, logits, grads = train_step(params, cfg, batch, step)
                # before the update, so params, state and checkpoints stay as they were
                try:
                    _check_finite(loss, grads, epoch, step)
                except NonFiniteError:
                    save_checkpoint(nonfinite_path, cfg, params, run.seed, epoch, hp, state)
                    raise
                adamw_step(params, grads, state, hp)
                step += 1
                b = len(batch.labels)
                loss_sum += loss * b
                t1, t5 = _batch_metrics(logits, batch.labels, cfg.n_classes)
                del logits  # hold nothing of this step while the next one runs
                top1_sum += t1 * b
                top5_sum += t5 * b
                total += b
            train_time = time.perf_counter() - t0
            writer.write(MetricsRow(
                epoch=epoch, step=step, split="train", loss=loss_sum / total,
                top1=top1_sum / total, top5=top5_sum / total, lr=hp.lr,
                wall_time_s=train_time))

            t0 = time.perf_counter()
            val = evaluate_params(params, cfg, val_records, norm,
                                  run.eval_batch_size)
            writer.write(MetricsRow(
                epoch=epoch, step=step, split="val", loss=val["loss"],
                top1=val["top1"], top5=val["top5"], lr=hp.lr,
                wall_time_s=time.perf_counter() - t0))
            say(f"epoch {epoch}: train loss {loss_sum / total:.4f}, "
                f"val top1 {val['top1']:.2f}%")

            done = epoch + 1
            if done % run.checkpoint_every == 0 and done != run.epochs:
                path = os.path.join(os.fspath(out_dir), f"checkpoint_epoch{done}.bin")
                save_checkpoint(path, cfg, params, run.seed, done, hp, state)
        save_checkpoint(final_path, cfg, params, run.seed, run.epochs, hp, state)
    return {"checkpoint": final_path, "metrics": metrics_path,
            "val": val, "epochs": run.epochs}


def evaluate(checkpoint_path, data_dir, split: str, batch_size: int = 256):
    """Metrics for a saved model over a named split; normalization always
    comes from the train split."""
    if split not in ("train", "test"):
        raise ConfigError(f"split must be 'train' or 'test', got {split!r}")
    ck = load_checkpoint(checkpoint_path)
    splits = load_cifar100(data_dir)
    norm = cached_norm_stats(
        splits["train"], os.path.join(os.fspath(data_dir), "norm_stats.txt"))
    return evaluate_params(ck.params, ck.cfg, splits[split], norm, batch_size)


def overfit(n: int = 64, steps: int = 300, seed: int = 0,
            attn_kind: str = "super", data_dir=None, target: float = 99.0,
            log=None):
    """Memorization probe: full-batch steps on n samples with a small model
    until train top-1 reaches `target` percent. Uses the train split of
    `data_dir` when one is given, synthetic class-colored data otherwise."""
    say = log or (lambda msg: None)
    if data_dir is not None:
        records = load_cifar100(data_dir)["train"][:n]
    else:
        records = synthetic_dataset(n, min(n, 10), seed)
    norm = compute_norm_stats(records)

    cfg = ModelConfig(attn_kind=attn_kind, d_model=64, n_layers=2, n_heads=2,
                      n_classes=100, seed=seed)
    hp = AdamWHyperParams()
    params = init_params(cfg, seed)
    state = init_adamw_state(params)

    batch = next(iter(batch_iter(records, n, seed, norm, False)))
    history = []
    reached_at = None
    for step in range(steps):
        loss, logits, grads = train_step(params, cfg, batch, step)
        _check_finite(loss, grads, 0, step)
        top1 = topk_accuracy(logits, batch.labels, 1)
        del logits  # hold nothing of this step while the next one runs
        history.append((loss, top1))
        if top1 >= target:
            reached_at = step
            break
        adamw_step(params, grads, state, hp)
        if step % 25 == 0:
            say(f"step {step}: loss {loss:.4f}, top1 {top1:.1f}%")
    return {"reached": reached_at is not None, "steps": reached_at,
            "top1": history[-1][1], "history": history,
            "params": params, "cfg": cfg}
