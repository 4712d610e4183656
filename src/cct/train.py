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

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    TEST_FILE,
    TRAIN_FILE,
    batch_iter,
    cached_norm_stats,
    compute_norm_stats,
    load_records,
    synthetic_dataset,
)
from .metrics import MetricsRow, MetricsWriter, drop_rows_from, topk_accuracy
from .model import ModelConfig, forward, init_params
from .optim import AdamWHyperParams, adamw_step, init_adamw_state
from .tensor import ConfigError, backward, cross_entropy, no_grad


@dataclass(frozen=True)
class RunConfig:
    # model
    attn_kind: str = "super"
    img_size: int = 32
    n_classes: int = 100
    d_model: int = 256
    n_layers: int = 6
    n_heads: int = 4
    mlp_ratio: int = 2
    conv_blocks: int = 1
    dropout_p: float = 0.0
    # optimizer (constant learning rate for the whole run)
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    exempt_norms_biases: bool = False
    # run
    epochs: int = 75
    batch_size: int = 1024
    seed: int = 0
    augment: bool = True
    checkpoint_every: int = 5
    eval_batch_size: int = 256

    def model_config(self) -> ModelConfig:
        return ModelConfig(attn_kind=self.attn_kind, img_size=self.img_size,
                           n_classes=self.n_classes, d_model=self.d_model,
                           n_layers=self.n_layers, n_heads=self.n_heads,
                           mlp_ratio=self.mlp_ratio, conv_blocks=self.conv_blocks,
                           dropout_p=self.dropout_p, seed=self.seed)

    def hyperparams(self) -> AdamWHyperParams:
        return AdamWHyperParams(lr=self.lr, beta1=self.beta1, beta2=self.beta2,
                                eps=self.eps, weight_decay=self.weight_decay,
                                exempt_norms_biases=self.exempt_norms_biases)


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


def _train_split(data_dir):
    """The train split of data_dir and its cached normalization stats."""
    records = load_records(os.path.join(os.fspath(data_dir), TRAIN_FILE))
    return records, cached_norm_stats(
        records, os.path.join(os.fspath(data_dir), "norm_stats.txt"))


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
    os.makedirs(out_dir, exist_ok=True)
    train_records, norm = _train_split(data_dir)
    val_records = load_records(os.path.join(os.fspath(data_dir), TEST_FILE))
    metrics_path = os.path.join(os.fspath(out_dir), "metrics.csv")
    final_path = os.path.join(os.fspath(out_dir), "checkpoint_final.bin")

    cfg = run.model_config()
    hp = run.hyperparams()
    if resume_from is not None:
        ck = load_checkpoint(resume_from)
        if ck.cfg != cfg:
            raise ConfigError(f"checkpoint model config {ck.cfg} does not match "
                              f"run config {cfg}")
        if ck.seed != run.seed:
            raise ConfigError(f"checkpoint seed {ck.seed} does not match "
                              f"run seed {run.seed}")
        if ck.hp is not None and ck.hp != hp:
            raise ConfigError(f"checkpoint optimizer hyperparameters {ck.hp} do "
                              f"not match run hyperparameters {hp}")
        if ck.epoch >= run.epochs:
            raise ConfigError(f"checkpoint is at epoch {ck.epoch}: a run of "
                              f"{run.epochs} epochs has nothing left to train")
        params, start_epoch = ck.params, ck.epoch
        state = ck.opt_state if ck.opt_state is not None else init_adamw_state(params)
        drop_rows_from(metrics_path, start_epoch)
    else:
        params = init_params(cfg, run.seed)
        state = init_adamw_state(params)
        start_epoch = 0

    steps_per_epoch = (len(train_records) + run.batch_size - 1) // run.batch_size
    step = start_epoch * steps_per_epoch

    with MetricsWriter(metrics_path) as writer:
        for epoch in range(start_epoch, run.epochs):
            t0 = time.perf_counter()
            total, loss_sum, top1_sum, top5_sum = 0, 0.0, 0.0, 0.0
            for batch in batch_iter(train_records, run.batch_size, run.seed,
                                    norm, run.augment, epoch=epoch):
                logits = forward(batch.images, params, cfg, training=True,
                                 dropout_seed=step)
                loss = cross_entropy(logits, batch.labels)
                params.zero_grad()
                backward(loss)
                grads = {name: t.grad for name, t in params.items()}
                adamw_step(params, grads, state, hp)
                step += 1
                b = len(batch.labels)
                loss_sum += loss.item() * b
                t1, t5 = _batch_metrics(logits.data, batch.labels, cfg.n_classes)
                top1_sum += t1 * b
                top5_sum += t5 * b
                total += b
                # drop this step's graph before the next forward builds one
                del logits, loss
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
    train_records, norm = _train_split(data_dir)
    records = (train_records if split == "train"
               else load_records(os.path.join(os.fspath(data_dir), TEST_FILE)))
    return evaluate_params(ck.params, ck.cfg, records, norm, batch_size)


def overfit(n: int = 64, steps: int = 300, seed: int = 0,
            attn_kind: str = "super", data_dir=None, target: float = 99.0,
            log=None):
    """Memorization probe: full-batch steps on n samples with a small model
    until train top-1 reaches `target` percent. Uses the train split when a
    dataset is reachable, synthetic class-colored data otherwise."""
    say = log or (lambda msg: None)
    records = None
    if data_dir is not None:
        path = os.path.join(os.fspath(data_dir), TRAIN_FILE)
        if os.path.exists(path):
            records = load_records(path)[:n]
    if records is None:
        records = synthetic_dataset(n, min(n, 10), seed)
    norm = compute_norm_stats(records)

    run = RunConfig(attn_kind=attn_kind, d_model=64, n_layers=2, n_heads=2,
                    n_classes=100, batch_size=n, seed=seed, augment=False)
    cfg = run.model_config()
    hp = run.hyperparams()
    params = init_params(cfg, seed)
    state = init_adamw_state(params)

    history = []
    reached_at = None
    for step in range(steps):
        batch = next(iter(batch_iter(records, n, seed, norm, False)))
        logits = forward(batch.images, params, cfg, training=True,
                         dropout_seed=step)
        loss = cross_entropy(logits, batch.labels)
        top1 = topk_accuracy(logits.data, batch.labels, 1)
        history.append((loss.item(), top1))
        if top1 >= target:
            reached_at = step
            break
        params.zero_grad()
        backward(loss)
        adamw_step(params, {k: t.grad for k, t in params.items()}, state, hp)
        if step % 25 == 0:
            say(f"step {step}: loss {loss.item():.4f}, top1 {top1:.1f}%")
        # drop this step's graph before the next forward builds one
        del logits, loss
    return {"reached": reached_at is not None, "steps": reached_at,
            "top1": history[-1][1], "history": history,
            "params": params, "cfg": cfg}
