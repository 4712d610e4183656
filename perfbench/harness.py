"""End-to-end training benchmark: workloads, phases, output checks, metrics.

Each run is one process and one workload. It drives the stack only through
public functions of `cct.data`, `cct.model`, `cct.attention`, `cct.tensor`,
`cct.optim`, `cct.checkpoint` and `cct.train`, in a closed loop: one caller,
and each operation starts when the previous one has ended. The train step is
the sequence `cct.train.train` runs:
batch_iter -> forward -> cross_entropy -> zero_grad -> backward -> adamw_step.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from cct import attention as ca
from cct import checkpoint as ck
from cct import data as cd
from cct import model as cm
from cct import optim as co
from cct import tensor as ct
from cct import train as ctr

import gen_data
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = ROOT / ".perfbench"

# The official CIFAR-100 binary split sizes.
OFFICIAL_BYTES = {cd.TRAIN_FILE: 153_700_000, cd.TEST_FILE: 30_740_000}


# Train steps before timing starts: the first two run about 30 % slow while
# the allocator takes memory from the system.
WARMUP_STEPS = 2
INGEST_BATCH = 1024            # the full.cfg batch
CHECKPOINT_ROUND_TRIPS = 12


class SetupError(RuntimeError):
    pass


@dataclass(frozen=True)
class Workload:
    attn_kind: str
    n_train: int              # records in the generated train split
    n_test: int
    main: str                 # the phase --seconds sizes: "train" or "eval"
    unit_s: float             # nominal seconds of one main-phase unit
    eval_batch: int
    min_units: int = 1
    train_steps: int = 3      # timed steps when the main phase is eval
    eval_reps: int = 2        # eval batches when the main phase is train
    train_batch: int = 32
    ingest_passes: int = 1
    load_reps: int = 2
    model: tuple = ()         # ModelConfig overrides as (field, value) pairs

    def units(self, seconds: float) -> int:
        return max(self.min_units, math.ceil(seconds / self.unit_s))


WORKLOADS = {
    "train_super": Workload("super", 2048, 512, "train", unit_s=4.0,
                            eval_batch=32, min_units=3, ingest_passes=16,
                            load_reps=24),
    "train_sdpa": Workload("sdpa", 2048, 512, "train", unit_s=4.0,
                           eval_batch=32, min_units=3, ingest_passes=16,
                           load_reps=24),
    "eval_ingest": Workload("super", cd.TRAIN_RECORDS, cd.TEST_RECORDS, "eval",
                            unit_s=19.0, eval_batch=256, train_batch=8,
                            ingest_passes=2),
}


# ---------------------------------------------------------------------------
# environment and bookkeeping
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_version(lib) -> str:
    try:
        blas = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def environment() -> dict:
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_version(np),
        "scipy_blas": _blas_version(scipy),
    }


def source_digest(dirs) -> str:
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            h.update(str(path.relative_to(d.parent)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def tape_nodes(root) -> int:
    """Recorded ops reachable from a tensor, as backward would replay them."""
    seen, stack = set(), [root]
    while stack:
        t = stack.pop()
        if id(t) in seen or t._op is None:
            continue
        seen.add(id(t))
        stack.extend(t._parents)
    return len(seen)


def _finite(arr) -> bool:
    return bool(np.isfinite(arr).all())


def _bits(arr) -> bytes:
    return np.ascontiguousarray(arr).tobytes()


class Ledger:
    """Operation attempts, failures and output-check problems of one run."""

    def __init__(self, out):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.out = out

    def attempt(self, what: str, fn) -> bool:
        """Run one operation; an exception or a False result is a failure."""
        self.attempted += 1
        try:
            ok = fn()
        except Exception:  # an operation that raises is counted, not fatal
            self.out(f"FAILED {what}:\n{traceback.format_exc()}")
            ok = None
        if not ok:
            if ok is not None:
                self.out(f"FAILED {what}: output check")
            self.failed += 1
            self.problems.append(what)
        return bool(ok)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.out(f"CHECK FAILED: {what}")
            self.problems.append(what)


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def generate(work: Path, wl: Workload, seed: int) -> None:
    """Write the workload's splits with generator processes, two parts per
    split of more than one chunk so that they share the cores."""
    work.mkdir(parents=True, exist_ok=True)
    jobs = []
    for split_index, (fname, n, official) in enumerate((
            (cd.TRAIN_FILE, wl.n_train, cd.TRAIN_RECORDS),
            (cd.TEST_FILE, wl.n_test, cd.TEST_RECORDS))):
        mid = math.ceil(n / 2 / gen_data.CHUNK) * gen_data.CHUNK
        bounds = [(0, mid), (mid, n)] if mid < n else [(0, n)]
        parts = [work / f"{fname}.part{i}" for i in range(len(bounds))]
        procs = [subprocess.Popen([sys.executable, str(HERE / "gen_data.py"), str(part),
                                   str(seed), str(split_index), str(a), str(b)])
                 for part, (a, b) in zip(parts, bounds)]
        expected = OFFICIAL_BYTES[fname] if n == official else n * cd.RECORD_BYTES
        jobs.append((work / fname, parts, procs, expected))
    failed = [p.args for _, _, procs, _ in jobs for p in procs if p.wait() != 0]
    if failed:
        raise SetupError(f"data generator failed: {failed}")
    for path, parts, _, expected in jobs:
        with open(path, "wb") as out:
            for part in parts:
                with open(part, "rb") as f:
                    shutil.copyfileobj(f, out)
                part.unlink()
        if path.stat().st_size != expected:
            raise SetupError(f"{path.name}: generated {path.stat().st_size} bytes, "
                             f"expected {expected}")


class Run:
    def __init__(self, name: str, wl: Workload, seed: int, seconds: float,
                 trace: bool, state_dir: Path, out):
        self.name, self.wl, self.seed = name, wl, seed
        self.units = wl.units(seconds)
        self.trace = trace
        self.state_dir = state_dir
        self.out = out
        self.ledger = Ledger(out)
        self.rec = tracing.Recorder(enabled=False)
        self.work = state_dir / f"work-{name}-{seed}-{os.getpid()}"
        self.metrics = {}
        self.losses = []

    # -- set-up -------------------------------------------------------------

    def setup(self, t0: float) -> None:
        wl, seed = self.wl, self.seed
        generate(self.work, wl, seed)
        self.train_path = self.work / cd.TRAIN_FILE
        self.test_path = self.work / cd.TEST_FILE
        self.norm_path = self.work / "norm_stats.txt"
        self.train_records = cd.load_records(self.train_path)
        self.test_records = cd.load_records(self.test_path)
        self.norm = cd.cached_norm_stats(self.train_records, self.norm_path)
        self.label_counts = np.bincount([r.fine_label for r in self.train_records],
                                        minlength=100)
        self.eval_records = self.test_records[:wl.eval_batch]
        self.cfg = cm.ModelConfig(attn_kind=wl.attn_kind, seed=seed, **dict(wl.model))
        self.hp = co.AdamWHyperParams()
        self.params = cm.init_params(self.cfg, seed)
        self.opt = co.init_adamw_state(self.params)
        self.step = 0
        self.batches = self._batch_stream()
        self.walls = {"train": []}
        for _ in range(WARMUP_STEPS):
            self._train_step()
        self.metrics["setup_s"] = time.perf_counter() - t0

    def _batch_stream(self):
        epoch = 0
        while True:
            yield from cd.batch_iter(self.train_records, self.wl.train_batch,
                                     self.seed, self.norm, True, epoch=epoch)
            epoch += 1

    def _train_step(self):
        """One closed-loop train step as `cct.train.train` runs it: the
        previous step's loss, and with it that step's whole graph, stays
        referenced until the new loss replaces it."""
        rec = self.rec

        def step():
            t = time.perf_counter()
            with rec.span("train.step"):
                with rec.span("data.batch"):
                    batch = next(self.batches)
                with rec.span("model.forward"):
                    logits = cm.forward(batch.images, self.params, self.cfg,
                                        training=True, dropout_seed=self.step)
                self.loss = ct.cross_entropy(logits, batch.labels)
                with rec.span("model.zero_grad"):
                    self.params.zero_grad()
                with rec.span("tensor.backward"):
                    ct.backward(self.loss)
                with rec.span("optim.adamw_step"):
                    grads = {n: p.grad for n, p in self.params.items()}
                    co.adamw_step(self.params, grads, self.opt, self.hp)
            self.walls["train"].append(time.perf_counter() - t)
            self.losses.append(self.loss.item())
            if rec.enabled:
                self.tape_nodes = tape_nodes(self.loss)
            self.step += 1
            return (_finite(self.loss.data) and _finite(logits.data)
                    and all(_finite(g) for g in grads.values()))

        self.ledger.attempt(f"train step {self.step}", step)

    # -- timed phases -------------------------------------------------------

    def measure(self) -> None:
        """Run the timed units in rounds of one train step each.

        The machine's speed drifts by tens of percent over seconds, so every
        metric samples the whole run instead of one stretch of it.
        """
        wl = self.wl
        counts = {
            self._train_step: self.units if wl.main == "train" else wl.train_steps,
            self.unit_eval: self.units if wl.main == "eval" else wl.eval_reps,
            self.unit_ingest: wl.ingest_passes,
            self.unit_load: wl.load_reps,
            self.unit_checkpoint: CHECKPOINT_ROUND_TRIPS,
        }
        self.walls = {k: [] for k in ("train", "eval", "ingest", "load", "save", "restore")}
        rounds = counts[self._train_step]
        for r in range(rounds):
            for unit, n in counts.items():
                for _ in range(n * (r + 1) // rounds - n * r // rounds):
                    unit()
        w = self.walls
        self.samples = {"train_step_s": [round(x, 3) for x in w["train"]],
                        **{k: len(v) for k, v in w.items() if k != "train"}}
        self.metrics.update({
            "train_img_per_s": wl.train_batch / _median(w["train"]),
            # the mean over every step of the run, as a metrics.csv train row
            # logs it; one step's loss swings too much from seed to seed
            "train_loss_final": (math.fsum(self.losses) / len(self.losses)
                                 if self.losses else math.nan),
            "eval_img_per_s": len(self.eval_records) / _median(w["eval"]),
            # Ingest and loading are single-threaded Python, whose speed
            # flips by about 40 % between rounds as the host gives this core
            # more or less speed, so they report their best sample, as timeit
            # does; the other units swing far less and report the median.
            "ingest_img_per_s": wl.n_train / _best(w["ingest"]),
            "data_load_s": _best(w["load"]),
            "checkpoint_save_s": _median(w["save"]),
            "checkpoint_load_s": _median(w["restore"]),
        })
        self._compare_with_earlier_runs(counts[self._train_step])

    def _compare_with_earlier_runs(self, steps: int) -> None:
        """train_loss_final must be bitwise equal across runs of one source
        and seed. An untraced run also leaves its throughput, so that a
        traced run of the same seed can report the tracing overhead."""
        digest = source_digest([ROOT / "src", HERE])
        path = self.state_dir / "runs" / f"{self.name}-seed{self.seed}-steps{steps}-{digest}.json"
        earlier = json.loads(path.read_text()) if path.exists() else {}
        loss = float(self.metrics["train_loss_final"]).hex()
        if "train_loss_final" in earlier:
            self.ledger.check(earlier["train_loss_final"] == loss,
                              f"train_loss_final {loss} differs from "
                              f"{earlier['train_loss_final']} of an earlier run ({path.name})")
        record = {"train_loss_final": loss, **earlier}
        if not self.trace:
            record["untraced_train_img_per_s"] = self.metrics["train_img_per_s"]
        self.untraced_img_per_s = record.get("untraced_train_img_per_s")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record) + "\n")

    def unit_eval(self) -> None:
        def once():
            t = time.perf_counter()
            with self.rec.span("train.evaluate_params"):
                res = ctr.evaluate_params(self.params, self.cfg, self.eval_records,
                                          self.norm, self.wl.eval_batch)
            self.walls["eval"].append(time.perf_counter() - t)
            return (all(math.isfinite(v) for v in res.values())
                    and 0 <= res["top1"] <= res["top5"] <= 100)

        self.ledger.attempt(f"eval batch {len(self.walls['eval'])}", once)

    def unit_ingest(self) -> None:
        """One augmented pass over the train split, timed as the wait for
        `batch_iter`; each batch is one operation."""
        p = len(self.walls["ingest"])
        it = cd.batch_iter(self.train_records, INGEST_BATCH, self.seed, self.norm,
                           True, epoch=p)
        wait, seen = 0.0, np.zeros(100, dtype=np.int64)
        while True:
            t = time.perf_counter()
            batch = tracing.next_batch(self.rec, it)
            wait += time.perf_counter() - t
            if batch is None:
                break

            def check(batch=batch):
                x = batch.images.data
                seen[:] += np.bincount(batch.labels, minlength=100)
                return (x.shape == (len(batch.labels), *cd.IMG_SHAPE)
                        and x.dtype == np.float32 and _finite(x))

            self.ledger.attempt(f"ingest pass {p} batch", check)
        self.walls["ingest"].append(wait)
        self.ledger.check(np.array_equal(seen, self.label_counts),
                          f"ingest pass {p} did not yield every record once")

    def unit_load(self) -> None:
        """Both splits through `load_records`, then stats on a fresh data dir."""
        rec = self.rec
        self.norm_path.unlink(missing_ok=True)
        t = time.perf_counter()
        with rec.span("data.load_records"):
            train = cd.load_records(self.train_path)
        with rec.span("data.load_records"):
            test = cd.load_records(self.test_path)
        with rec.span("data.norm_stats"):
            norm = cd.cached_norm_stats(train, self.norm_path)
        self.walls["load"].append(time.perf_counter() - t)
        self.ledger.check(len(train) == self.wl.n_train and len(test) == self.wl.n_test,
                          "load_records returned the wrong record count")
        self.ledger.check(_bits(norm.mean) == _bits(self.norm.mean)
                          and _bits(norm.std) == _bits(self.norm.std)
                          and self.norm_path.exists(),
                          "norm stats of a fresh data dir differ from set-up's")

    def unit_checkpoint(self) -> None:
        rec, path = self.rec, self.work / "checkpoint.bin"

        def round_trip():
            t = time.perf_counter()
            with rec.span("checkpoint.save"):
                ck.save_checkpoint(path, self.cfg, self.params, self.seed, 1,
                                   self.hp, self.opt)
            t1 = time.perf_counter()
            with rec.span("checkpoint.load"):
                back = ck.load_checkpoint(path)
            self.walls["restore"].append(time.perf_counter() - t1)
            self.walls["save"].append(t1 - t)
            self.checkpoint_bytes = os.path.getsize(path)
            names = self.params.names()
            return (back.cfg == self.cfg and back.hp == self.hp
                    and back.seed == self.seed and back.epoch == 1
                    and back.params.names() == names
                    and back.opt_state.t == self.opt.t
                    and all(_bits(back.params[n].data) == _bits(self.params[n].data)
                            and _bits(back.opt_state.m[n]) == _bits(self.opt.m[n])
                            and _bits(back.opt_state.v[n]) == _bits(self.opt.v[n])
                            for n in names))

        self.ledger.attempt(f"checkpoint round trip {len(self.walls['save'])}", round_trip)

    # -- traced output ------------------------------------------------------

    def layer_metrics(self) -> dict:
        summary = tracing.summarize(self.rec)

        def get(name, key="total_s"):
            return summary.get(name, {}).get(key, 0.0)

        m = {
            "data.load_records_s": get("data.load_records"),
            "data.norm_stats_s": get("data.norm_stats"),
            "data.batch_s": get("data.batch"),
            "data.batches": get("data.batch", "calls"),
            "model.tokenize_s": get("model.tokenize"),
            "model.encoder_block_s": get("model.encoder_block"),
            "attention.forward_s": get("attention.forward"),
            "attention.forward_gflops": _rate(get("attention.forward", "flops"),
                                              get("attention.forward")),
            "tensor.backward_s": get("tensor.backward"),
            "tensor.tape_nodes": getattr(self, "tape_nodes", 0),
        }
        for op in tracing.OPS:
            fwd, bwd = f"tensor.{op}.fwd", f"tensor.{op}.bwd"
            m[f"tensor.{op}.fwd_s"] = get(fwd)
            m[f"tensor.{op}.bwd_s"] = get(bwd)
            m[f"tensor.{op}.calls"] = get(fwd, "calls")
            if op in tracing.FORWARD_FLOPS:
                m[f"tensor.{op}.gflops"] = _rate(get(fwd, "flops") + get(bwd, "flops"),
                                                 get(fwd) + get(bwd))
        steps = tracing.step_accounting(self.rec)
        wall = sum(s["wall_s"] for s in steps)
        m.update({
            "optim.adamw_step_s": get("optim.adamw_step"),
            "checkpoint.save_s": get("checkpoint.save"),
            "checkpoint.load_s": get("checkpoint.load"),
            "checkpoint.bytes": getattr(self, "checkpoint_bytes", 0),
            "train.evaluate_params_s": get("train.evaluate_params"),
            "trace.train_img_per_s": self.metrics["train_img_per_s"],
            "trace.step_covered": sum(sum(s["parts"].values()) for s in steps) / wall,
        })
        self.summary, self.steps = summary, steps
        return m

    def report_trace(self, m: dict, env: dict) -> None:
        say, summary = self.out, self.summary
        say("per-op table (totals over the traced phases; GEMM FLOPs 2*m*k*n, "
            "conv2d as its im2col GEMM)")
        say(f"{'op':<14}{'calls':>7}{'fwd_s':>10}{'bwd_s':>10}{'fwd_GFLOP':>11}"
            f"{'fwd_GFLOP/s':>13}{'bwd_GFLOP/s':>13}")
        for op in tracing.OPS:
            f = summary.get(f"tensor.{op}.fwd", {})
            b = summary.get(f"tensor.{op}.bwd", {})
            flops = f.get("flops", 0.0)
            line = (f"{op:<14}{f.get('calls', 0):>7}{f.get('total_s', 0.0):>10.3f}"
                    f"{b.get('total_s', 0.0):>10.3f}")
            if op in tracing.FORWARD_FLOPS:
                line += (f"{flops / 1e9:>11.2f}{_rate(flops, f.get('total_s', 0)):>13.2f}"
                         f"{_rate(b.get('flops', 0.0), b.get('total_s', 0)):>13.2f}")
            say(line)
        acfg = self.cfg.attn_config()
        stages = ca.attention_flops(acfg).stages
        say(f"attention stages ({acfg.kind}, analytic GFLOP per forward at batch "
            f"{self.wl.train_batch}): "
            + ", ".join(f"{k} {v * self.wl.train_batch / 1e9:.3f}" for k, v in stages.items()))
        seen = tracing.subtree_flops(self.rec, "attention.forward", "tensor.")
        say(f"attention forward: analytic "
            f"{summary.get('attention.forward', {}).get('flops', 0.0) / 1e9:.2f} "
            f"GFLOP, GEMM FLOPs seen by the op wrappers {seen / 1e9:.2f} GFLOP, "
            f"{m['attention.forward_gflops']:.2f} GFLOP/s")
        if self.steps:
            n = len(self.steps)
            parts = {}
            for s in self.steps:
                for k, v in s["parts"].items():
                    parts[k] = parts.get(k, 0.0) + v / n
            wall = sum(s["wall_s"] for s in self.steps) / n
            say(f"train step self-time accounting (mean of {n} traced steps, wall "
                f"{wall:.3f} s): " + ", ".join(f"{k} {v:.3f}" for k, v in parts.items())
                + f", unattributed {wall - sum(parts.values()):.4f}")
        if self.untraced_img_per_s:
            base = self.untraced_img_per_s
            say(f"tracing overhead: {m['trace.train_img_per_s']:.3f} img/s traced vs "
                f"{base:.3f} untraced for this seed "
                f"({(base - m['trace.train_img_per_s']) / base:+.1%} of untraced)")
        path = self.state_dir / "traces" / f"{self.name}-seed{self.seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump({"workload": self.name, "seed": self.seed, "env": env,
                       "span_fields": ["name", "start", "end", "parent", "flops"],
                       "spans": self.rec.spans, "summary": summary,
                       "metrics": m}, f)
        say(f"spans written to {path}")


END_TO_END_UNITS = {
    "train_img_per_s": "img/s", "train_loss_final": "nats",
    "eval_img_per_s": "img/s", "ingest_img_per_s": "img/s",
    "data_load_s": "s", "checkpoint_save_s": "s", "checkpoint_load_s": "s",
    "peak_rss_mb": "MB", "setup_s": "s", "success_rate": "ratio",
}
_LAYER_UNIT_SUFFIXES = (("_img_per_s", "img/s"), ("_s", "s"), (".calls", "count"),
                        (".batches", "count"), (".tape_nodes", "count"),
                        ("gflops", "GFLOP/s"), (".bytes", "bytes"),
                        (".step_covered", "ratio"))


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    for suffix, unit in _LAYER_UNIT_SUFFIXES:
        if name.endswith(suffix):
            return unit
    raise KeyError(f"no unit for metric {name!r}")


def _number(v):
    # keep the printed object valid JSON when a failed run has no value
    return v if math.isfinite(v) else None


def _median(xs) -> float:
    return statistics.median(xs) if xs else math.nan


def _best(xs) -> float:
    return min(xs) if xs else math.nan


def _rate(flops: float, seconds: float) -> float:
    return flops / seconds / 1e9 if seconds > 0 else 0.0


def run(name: str, wl: Workload, seed: int, seconds: float, trace: bool,
        t0: float, state_dir: Path = STATE_DIR, out=print) -> dict:
    """One workload run; returns the result object the benchmark prints."""
    env = environment()
    out("env: " + json.dumps(env, sort_keys=True))
    r = Run(name, wl, seed, seconds, trace, state_dir, out)
    restore = None
    if trace:
        restore = tracing.install(r.rec, {"tensor": ct, "model": cm,
                                          "attention": ca, "train": ctr})
    try:
        r.setup(t0)
        r.rec.enabled = trace
        r.measure()
        r.rec.enabled = False
        r.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        r.metrics["success_rate"] = (r.ledger.attempted - r.ledger.failed) / r.ledger.attempted
        out(f"samples: {json.dumps(r.samples)}; ops attempted {r.ledger.attempted}, "
            f"failed {r.ledger.failed}")
        metrics = r.metrics
        if trace:
            metrics = r.layer_metrics()
            r.report_trace(metrics, env)
    finally:
        if restore is not None:
            restore()
        shutil.rmtree(r.work, ignore_errors=True)
    return {"correct": not r.ledger.problems, "attempted": r.ledger.attempted,
            "failed": r.ledger.failed,
            "metrics": {k: {"value": _number(v), "unit": unit_of(k)}
                        for k, v in metrics.items()}}
