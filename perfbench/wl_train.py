"""Workload ``train``: ``ElasticTrainer`` on auto-labeled 64-px tiles.

Batch 16 split into a fixed 2 micro-shards, a depth-3 / 16-channel U-Net,
and a checkpoint every 4 steps into a temporary directory.  Labels come
from the auto-labeler during input generation and are not timed.
Training forward/backward, the gradient fold, weight publish and
checkpointing do the work; the inference plans are bypassed.

The timed rounds run one worker.  With two workers each worker's BLAS
pool oversubscribes the two cores and single steps range from 0.7 to 5 s
(quartile spread about half the median), so no run short enough for the
benchmark's time budget gives a steady median.  The two-worker trainer
is measured in the traced run instead, as ``distributed.speedup_2v1``
(two-worker over one-worker steps per second; below 1 today), and its
final weights must match the one-worker rounds bit for bit.

Each round starts a fresh trainer from the same seed and trains
``EPOCHS`` epochs of ``STEPS`` steps, so every round must end on the same
``weights_digest``.  Starting the trainer (shared segments, forked
workers) is the set-up; one operation is one training step, timed between
successive batch hand-offs of the loader, so a step includes its
checkpoint when one is due.  The checkpoint interval equals the epoch
length, so only the last step of an epoch checkpoints (twice: the interval
and the epoch-end checkpoint coincide) and most steps are alike; the
median step is then a plain step, and the checkpoint cost is reported by
the traced run as ``distributed.ckpt_ms``.
"""

from __future__ import annotations

import importlib
import math
import os
import tempfile
import time

from . import inputs
from .core import Outcome, PeakMemory, iqm, log, median

TILE = 64
#: one 512-px scene cuts into 64 tiles: one epoch of STEPS batches
SCENE_SIZE = 512
BATCH = 16
STEPS = 4
EPOCHS = 2
MICRO_SHARDS = 2
WORKERS = 1
#: fleet size of the traced run's comparison round
COMPARE_WORKERS = 2
CHECKPOINT_EVERY = STEPS
DEPTH, CHANNELS = 3, 16
MIN_ROUNDS = 2


def _stamped_loader(data_mod):
    class StampedLoader(data_mod.BatchLoader):
        """A ``BatchLoader`` that notes when each batch is handed to the trainer."""

        def __post_init__(self):
            super().__post_init__()
            self.stamps: list[float] = []

        def __iter__(self):
            for item in super().__iter__():
                self.stamps.append(time.perf_counter())
                yield item

    return StampedLoader


class _Rounds:
    """Runs training rounds and checks every round ends on the first round's weights."""

    def __init__(self, root, seed, tiles, labels, out: Outcome):
        self.dist = importlib.import_module("repro.distributed")
        self.unet = importlib.import_module("repro.unet")
        self.loader_cls = _stamped_loader(importlib.import_module("repro.data"))
        self.root, self.seed, self.tiles, self.labels, self.out = root, seed, tiles, labels, out
        self.digest = None

    def round(self, workers: int) -> tuple[float, list[float]]:
        """One fresh trainer, ``EPOCHS`` epochs; returns (start seconds, per-step seconds)."""
        with tempfile.TemporaryDirectory(dir=os.path.join(self.root, ".perfbench")) as ckpt:
            t0 = time.perf_counter()
            trainer = self.dist.ElasticTrainer(
                num_workers=workers,
                config=self.unet.UNetConfig(depth=DEPTH, base_channels=CHANNELS, dropout=0.0, seed=self.seed),
                micro_shards=MICRO_SHARDS, seed=self.seed,
                checkpoint_dir=ckpt, checkpoint_every=CHECKPOINT_EVERY,
            )
            try:
                trainer.start()
                start_s = time.perf_counter() - t0
                loader = self.loader_cls(self.tiles, self.labels, batch_size=BATCH, seed=self.seed, drop_last=True)
                history = trainer.fit(loader, epochs=EPOCHS)
                loader.stamps.append(time.perf_counter())
                digest = trainer.weights_digest()
            finally:
                trainer.close()
        steps = [b - a for a, b in zip(loader.stamps, loader.stamps[1:])]
        self.out.attempted += len(steps)
        losses = history.losses
        self.out.check(all(math.isfinite(v) for v in losses), f"train: non-finite loss {losses}")
        if self.digest is None:
            self.digest = digest
        self.out.check(digest == self.digest, f"train ({workers} workers): weights_digest {digest[:12]} "
                                              f"differs from the first round's {self.digest[:12]}")
        return start_s, steps

    def repeat(self, seconds: float, workers: int = WORKERS) -> tuple[list, list]:
        starts, steps = [], []
        deadline = time.perf_counter() + seconds
        while len(starts) < MIN_ROUNDS or time.perf_counter() < deadline:
            start_s, round_steps = self.round(workers)
            starts.append(start_s)
            steps.extend(round_steps)
        return starts, steps


def run(root: str, seed: int, seconds: float, tracer) -> Outcome:
    out = Outcome()
    t0 = time.perf_counter()
    importlib.import_module("repro.distributed")
    labeling = importlib.import_module("repro.labeling.autolabel")
    import_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    tiles = inputs.tiles(seed, 1, SCENE_SIZE, TILE)[: STEPS * BATCH]
    labels = labeling.autolabel_batch(tiles, apply_cloud_filter=True)
    out.info["input_gen_s"] = time.perf_counter() - t0
    log(f"train: {tiles.shape[0]} tiles of {TILE}px, {EPOCHS} x {STEPS} steps of {BATCH} per round")
    os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)

    rounds = _Rounds(root, seed, tiles, labels, out)
    with PeakMemory(os.getpid()) as mem:
        run_s = seconds / 2 if tracer.enabled else seconds
        starts, steps = rounds.repeat(run_s)
        if tracer.enabled:
            _traced(out, tracer, rounds, run_s, steps)

    step_s = iqm(steps)
    mpx = BATCH * TILE * TILE / 1e6
    out.end_to_end = {
        "setup_s": import_s + median(starts),
        "peak_rss_mb": mem.peak_mb,
        "mpx_s": mpx / step_s,
        "op_ms": step_s * 1e3,
    }
    out.info.update({
        "train_samples_s": BATCH / step_s,
        "steps": len(steps),
        "rounds": len(starts),
        "import_s": import_s,
        "weights_digest": rounds.digest[:16],
        "step_ms": " ".join(f"{v * 1e3:.0f}" for v in steps),
    })
    return out


def _traced(out, tracer, rounds: _Rounds, run_s, untraced_steps) -> None:
    obs = importlib.import_module("repro.obs")
    elastic = importlib.import_module("repro.distributed.elastic")
    data = importlib.import_module("repro.data")
    registry = obs.get_registry()

    def snap():
        fold = registry.get("repro_train_allreduce_ms").snapshot()
        return fold["sum"], fold["count"], registry.get("repro_train_allreduce_bytes_total").value()

    fold0_ms, fold0_n, bytes0 = snap()
    tracer.wrap(rounds.dist.ElasticTrainer, "train_step", "distributed.step")
    tracer.wrap(elastic, "save_checkpoint", "distributed.ckpt")
    tracer.wrap_iter(data.BatchLoader, "__iter__", "data.batch_wait")
    steps = []
    deadline = time.perf_counter() + run_s
    while not steps or time.perf_counter() < deadline:
        with tracer.span("train.round", op=f"round-{len(steps) // (EPOCHS * STEPS)}"):
            steps.extend(rounds.round(WORKERS)[1])
    tracer.unwrap_all()
    fold1_ms, fold1_n, bytes1 = snap()
    folds = max(1, fold1_n - fold0_n)

    # Two-worker round on the same data: same digest, and the 2-vs-1 ratio.
    two_steps = rounds.round(COMPARE_WORKERS)[1]

    # Single-process baseline of the per-phase step costs.
    trainer = rounds.unet.UNetTrainer(config=rounds.unet.UNetConfig(
        depth=DEPTH, base_channels=CHANNELS, dropout=0.0, seed=rounds.seed))
    trainer.enable_profiling()
    stats = trainer.train_epoch(data.BatchLoader(rounds.tiles, rounds.labels, batch_size=BATCH,
                                                 seed=rounds.seed, drop_last=True))
    phases = stats.profile["phases_ms"]
    n_single = len(rounds.tiles) // BATCH

    def mean_ms(name: str) -> float:
        spans = tracer.named(name)
        return sum(s.duration for s in spans) * 1e3 / max(1, len(spans))

    out.per_layer.update({
        "train.forward_ms": phases["forward_ms"] / n_single,
        "train.backward_ms": (phases["loss_ms"] + phases["backward_ms"]) / n_single,
        "train.optimizer_ms": phases["optimizer_ms"] / n_single,
        "data.batch_wait_ms": mean_ms("data.batch_wait"),
        "distributed.step_ms": mean_ms("distributed.step"),
        "distributed.fold_ms": (fold1_ms - fold0_ms) / folds,
        "distributed.fold_bytes": (bytes1 - bytes0) / folds,
        "distributed.ckpt_ms": mean_ms("distributed.ckpt"),
        "distributed.speedup_2v1": iqm(steps) / iqm(two_steps),
        "trace.overhead_frac": iqm(steps) / iqm(untraced_steps) - 1.0,
    })
