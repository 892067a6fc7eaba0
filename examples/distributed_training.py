"""Synchronous data-parallel U-Net training on forked workers.

Mirrors the paper's §III-C.1 workflow on CPU: ``ElasticTrainer`` forks the
workers, publishes the master weights to them through shared memory,
splits every global batch into micro-shards, and folds the per-shard
gradients in a fixed order before applying one update.  The example checks
that 2-worker training reproduces single-worker training step for step,
shows the ring all-reduce traffic model behind Horovod's bandwidth
argument, and prints the DGX A100 performance-model sweep that regenerates
the paper's Table III.

Run with:  PYTHONPATH=src python examples/distributed_training.py
"""

from __future__ import annotations

import numpy as np

from repro.data import BatchLoader, build_dataset, train_test_split
from repro.distributed import (
    DGXTrainingModel,
    ElasticTrainer,
    naive_allreduce,
    paper_table3,
    ring_allreduce,
)
from repro.nn import SGD
from repro.unet import UNet, UNetConfig, UNetTrainer


def main() -> None:
    config = UNetConfig(depth=2, base_channels=8, dropout=0.0, seed=3)
    dataset = build_dataset(num_scenes=3, scene_size=64, tile_size=32, base_seed=21)
    train, _ = train_test_split(dataset, test_fraction=0.2, seed=0)

    def loader() -> BatchLoader:
        return BatchLoader(train.images, train.labels, batch_size=4, shuffle=False, drop_last=True)

    # ------------------------------------------------------------------ #
    # 1. Synchronous data-parallel training equals single-worker training.
    # ------------------------------------------------------------------ #
    print("1. verifying 2-worker synchronous training matches 1-worker training ...")
    serial = UNetTrainer(model=UNet(config), learning_rate=1e-2)
    serial.optimizer = SGD(serial.model.parameters(), lr=1e-2)
    serial.fit(loader(), epochs=1)

    with ElasticTrainer(num_workers=2, config=config, micro_shards=2) as parallel:
        parallel.optimizer = SGD(parallel.master.parameters(), lr=1e-2)
        parallel.fit(loader(), epochs=1)
        steps = parallel.global_step

    max_diff = max(
        float(np.abs(a.value - b.value).max())
        for a, b in zip(serial.model.parameters(), parallel.master.parameters())
    )
    print(f"   {steps} steps; max weight difference after one epoch: {max_diff:.2e}")
    if max_diff >= 2e-4:
        raise SystemExit("data-parallel training diverged from single-worker training")

    # ------------------------------------------------------------------ #
    # 2. The ring all-reduce traffic model (Horovod's bandwidth argument).
    # ------------------------------------------------------------------ #
    rng = np.random.default_rng(0)
    gradients = [rng.normal(size=(50_000,)) for _ in range(8)]
    reduced, ring_stats = ring_allreduce(gradients)
    _, naive_stats = naive_allreduce(gradients)
    assert np.allclose(reduced[0], np.mean(gradients, axis=0))
    print("2. all-reduce over 8 workers, per-worker traffic as a multiple of the buffer:")
    print(f"   ring {ring_stats.traffic_fraction:.2f}x (theory: 2(p-1)/p = {2 * 7 / 8:.2f}) "
          f"in {ring_stats.communication_steps} steps; "
          f"gather-broadcast {naive_stats.traffic_fraction:.2f}x")

    # ------------------------------------------------------------------ #
    # 3. The DGX A100 sweep of Table III / Figure 12.
    # ------------------------------------------------------------------ #
    print("3. DGX A100 performance-model sweep (Table III / Figure 12):")
    model = DGXTrainingModel()
    for row in model.sweep():
        print(f"   {row}")
    print("   paper's published rows:")
    for row in paper_table3():
        print(f"   {row}")
    print(f"   mean relative error vs the paper: {model.relative_error_vs_paper():.1%}")


if __name__ == "__main__":
    main()
