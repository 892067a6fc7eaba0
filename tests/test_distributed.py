"""Tests for repro.distributed (all-reduce traffic model, elastic trainer, DGX model)."""

from __future__ import annotations

import multiprocessing as mp
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import BatchLoader
from repro.distributed import (
    DGXTrainingModel,
    ElasticTrainer,
    RingBroken,
    latest_checkpoints,
    naive_allreduce,
    paper_table3,
    ring_allreduce,
)
from repro.nn import SGD
from repro.reliability import reset_faults
from repro.unet import UNet, UNetConfig, UNetTrainer

fork_only = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="fork start method unavailable"
)

#: Tiny elastic-trainer config shared by the elastic tests below.
ELASTIC_CONFIG = UNetConfig(depth=2, base_channels=4, dropout=0.2, seed=7)


@pytest.fixture(autouse=True)
def disarm_faults():
    yield
    reset_faults()


class TestRingAllReduce:
    def test_matches_mean(self):
        rng = np.random.default_rng(0)
        buffers = [rng.normal(size=(33,)) for _ in range(4)]
        reduced, _ = ring_allreduce(buffers)
        expected = np.mean(buffers, axis=0)
        for out in reduced:
            np.testing.assert_allclose(out, expected, rtol=1e-10)

    def test_sum_mode(self):
        buffers = [np.ones(5), 2 * np.ones(5)]
        reduced, _ = ring_allreduce(buffers, average=False)
        np.testing.assert_allclose(reduced[0], 3.0)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(1)
        buffers = [rng.normal(size=(4, 7)) for _ in range(5)]
        ring, _ = ring_allreduce(buffers)
        naive, _ = naive_allreduce(buffers)
        np.testing.assert_allclose(ring[2], naive[2], rtol=1e-10)

    def test_single_worker(self):
        reduced, stats = ring_allreduce([np.arange(5.0)])
        np.testing.assert_array_equal(reduced[0], np.arange(5.0))
        assert stats.communication_steps == 0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 7), st.integers(1, 40))
    def test_property_any_worker_count_and_size(self, workers, size):
        rng = np.random.default_rng(workers * 100 + size)
        buffers = [rng.normal(size=(size,)) for _ in range(workers)]
        reduced, stats = ring_allreduce(buffers)
        expected = np.mean(buffers, axis=0)
        for out in reduced:
            np.testing.assert_allclose(out, expected, rtol=1e-9, atol=1e-12)
        assert stats.communication_steps == 2 * (workers - 1)

    def test_bandwidth_optimality_traffic(self):
        """Per-worker traffic approaches 2(p-1)/p of the buffer — the ring's defining property."""
        buffers = [np.ones(1000) for _ in range(8)]
        _, ring_stats = ring_allreduce(buffers)
        assert ring_stats.traffic_fraction == pytest.approx(2 * 7 / 8, rel=0.05)
        _, naive_stats = naive_allreduce(buffers)
        # The centralised scheme moves ~p times the buffer through the root.
        assert naive_stats.elements_sent_per_worker > ring_stats.elements_sent_per_worker * 3

    def test_preserves_shape(self):
        buffers = [np.ones((3, 4, 5)) for _ in range(3)]
        reduced, _ = ring_allreduce(buffers)
        assert reduced[0].shape == (3, 4, 5)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            ring_allreduce([np.ones(3), np.ones(4)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ring_allreduce([])

    def test_ring_broken_carries_rank(self):
        err = RingBroken(2)
        assert err.rank == 2
        assert "rank 2" in str(err)
        assert isinstance(err, RuntimeError)


class TestDGXModel:
    def test_default_calibration_matches_paper(self):
        model = DGXTrainingModel()
        assert model.relative_error_vs_paper() < 0.05
        row8 = model.predict_row(8)
        assert row8["speedup"] == pytest.approx(7.21, abs=0.3)

    def test_monotone_speedup_and_throughput(self):
        model = DGXTrainingModel()
        rows = model.sweep()
        speedups = [r["speedup"] for r in rows]
        throughputs = [r["images_per_s"] for r in rows]
        assert speedups == sorted(speedups)
        assert throughputs == sorted(throughputs)

    def test_efficiency_degrades_with_gpus(self):
        """The paper observes GPU starvation from the input pipeline at high GPU counts."""
        model = DGXTrainingModel()
        eff = [model.speedup(g) / g for g in (1, 2, 4, 8)]
        assert eff[0] == pytest.approx(1.0)
        assert eff[-1] < eff[1]

    def test_paper_table3_shape(self):
        rows = paper_table3()
        assert len(rows) == 5
        assert rows[-1]["speedup"] == 7.21

    def test_allreduce_cost_grows_then_saturates(self):
        model = DGXTrainingModel()
        assert model.allreduce_time_per_step(1) == 0.0
        assert model.allreduce_time_per_step(8) > model.allreduce_time_per_step(2)

    def test_calibrated_from_measurement(self):
        model = DGXTrainingModel.calibrated_from_measurement(
            measured_epoch_time=10.0, images_per_epoch=100, model_parameters=10_000
        )
        assert model.epoch_time(1) == pytest.approx(10.0, rel=0.05)
        assert model.speedup(4) > 2.5

    def test_validation(self):
        with pytest.raises(ValueError):
            DGXTrainingModel(images_per_epoch=0)
        with pytest.raises(ValueError):
            DGXTrainingModel().epoch_time(0)
        with pytest.raises(ValueError):
            DGXTrainingModel.calibrated_from_measurement(0.0, 10, 10)


# --------------------------------------------------------------------------- #
# Elastic fault-tolerant trainer
# --------------------------------------------------------------------------- #
def _elastic_loader(split, seed: int = 5) -> BatchLoader:
    train, _ = split
    return BatchLoader(train.images, train.labels, batch_size=4,
                       shuffle=True, augment=True, seed=seed)


class TestLoaderRngState:
    def test_rng_state_roundtrip_replays_exact_batches(self, tiny_split):
        loader = _elastic_loader(tiny_split)
        state = loader.rng_state()
        first = [(x.copy(), y.copy()) for x, y in loader]
        loader.set_rng_state(state)
        second = [(x.copy(), y.copy()) for x, y in loader]
        assert len(first) == len(second) > 0
        for (xa, ya), (xb, yb) in zip(first, second):
            np.testing.assert_array_equal(xa, xb)
            np.testing.assert_array_equal(ya, yb)

    def test_rng_state_is_json_serialisable(self, tiny_split):
        import json

        loader = _elastic_loader(tiny_split)
        encoded = json.loads(json.dumps(loader.rng_state()))
        loader.set_rng_state(encoded)
        assert len(list(loader)) > 0


@fork_only
class TestElasticTrainer:
    def test_bit_identical_across_worker_counts(self, tiny_split):
        """The left-fold over a fixed micro-shard count must make the
        trajectory independent of the fleet size — the property that makes
        elastic shrink/grow trajectory-preserving."""
        results = {}
        for workers in (1, 3):
            loader = _elastic_loader(tiny_split)
            with ElasticTrainer(num_workers=workers, config=ELASTIC_CONFIG,
                                micro_shards=4, seed=0, step_timeout_s=30.0) as trainer:
                history = trainer.fit(loader, epochs=2)
                results[workers] = (list(history.losses), trainer.weights_digest())
        assert results[1][0] == results[3][0]
        assert results[1][1] == results[3][1]

    def test_distributed_equals_serial_training(self, tiny_split):
        """Synchronous data parallelism must match single-worker training on
        the same global batches (the correctness claim behind Horovod)."""
        train, _ = tiny_split
        config = UNetConfig(depth=2, base_channels=4, dropout=0.0, seed=7)

        serial_trainer = UNetTrainer(model=UNet(config), optimizer=None, learning_rate=1e-2)
        serial_trainer.optimizer = SGD(serial_trainer.model.parameters(), lr=1e-2)
        loader_a = BatchLoader(train.images, train.labels, batch_size=4, shuffle=False, drop_last=True)
        serial_trainer.fit(loader_a, epochs=1)

        loader_b = BatchLoader(train.images, train.labels, batch_size=4, shuffle=False, drop_last=True)
        with ElasticTrainer(num_workers=2, config=config, micro_shards=2,
                            seed=0, step_timeout_s=30.0) as parallel:
            parallel.optimizer = SGD(parallel.master.parameters(), lr=1e-2)
            parallel.fit(loader_b, epochs=1)
            assert parallel.global_step == 1

        for (name_a, pa), (name_b, pb) in zip(
            serial_trainer.model.named_parameters().items(), parallel.master.named_parameters().items()
        ):
            assert name_a == name_b
            np.testing.assert_allclose(pa.value, pb.value, atol=2e-4)

    def test_skips_too_small_batches(self):
        with ElasticTrainer(num_workers=1, config=UNetConfig(depth=1, base_channels=2, seed=0),
                            micro_shards=4) as trainer:
            x = np.zeros((2, 3, 16, 16), dtype=np.float32)
            y = np.zeros((2, 16, 16), dtype=np.int64)
            assert trainer.train_step(x, y) is None
            assert trainer.global_step == 0

    def test_epoch_counts_only_trained_images(self, tiny_split):
        """A batch of 5 over 2 micro-shards trains 4 images; the remainder
        (and a trailing 1-image batch, which is skipped) must not count."""
        train, _ = tiny_split
        assert train.images.shape[0] == 6
        loader = BatchLoader(train.images, train.labels, batch_size=5, shuffle=False, drop_last=False)
        with ElasticTrainer(num_workers=1, config=ELASTIC_CONFIG, micro_shards=2,
                            seed=0, step_timeout_s=30.0) as trainer:
            stats = trainer.fit(loader, epochs=1).epochs[0]
            assert trainer.global_step == 1
        assert stats.images_per_s * stats.time_s == pytest.approx(4.0)

    def test_checkpoint_resume_bit_identical(self, tiny_split, tmp_path):
        """SIGKILL-and-resume semantics: a fresh trainer resuming from the
        newest checkpoint must reproduce the uninterrupted run bit-for-bit
        (losses and weights), including the loader's shuffle/augment draws."""
        loader = _elastic_loader(tiny_split)
        with ElasticTrainer(num_workers=2, config=ELASTIC_CONFIG, micro_shards=4,
                            seed=0, step_timeout_s=30.0) as trainer:
            reference = trainer.fit(loader, epochs=3)
            ref_losses = list(reference.losses)
            ref_digest = trainer.weights_digest()

        loader = _elastic_loader(tiny_split)
        with ElasticTrainer(num_workers=2, config=ELASTIC_CONFIG, micro_shards=4,
                            seed=0, step_timeout_s=30.0,
                            checkpoint_dir=tmp_path, checkpoint_every=1) as trainer:
            trainer.fit(loader, epochs=1)
        assert latest_checkpoints(tmp_path)

        loader = _elastic_loader(tiny_split)  # fresh process-equivalent state
        with ElasticTrainer(num_workers=2, config=ELASTIC_CONFIG, micro_shards=4,
                            seed=0, step_timeout_s=30.0,
                            checkpoint_dir=tmp_path, checkpoint_every=1) as trainer:
            resumed = trainer.fit(loader, epochs=3, resume=True)
            assert trainer.resumes == 1
            assert list(resumed.losses) == ref_losses
            assert trainer.weights_digest() == ref_digest

    def test_resume_without_checkpoints_starts_fresh(self, tiny_split, tmp_path):
        loader = _elastic_loader(tiny_split)
        with ElasticTrainer(num_workers=1, config=ELASTIC_CONFIG, micro_shards=2,
                            seed=0, checkpoint_dir=tmp_path) as trainer:
            history = trainer.fit(loader, epochs=1, resume=True)
            assert trainer.resumes == 0
            assert len(history.losses) == 1

    def test_keep_checkpoints_prunes_old_archives(self, tiny_split, tmp_path):
        loader = _elastic_loader(tiny_split)
        with ElasticTrainer(num_workers=1, config=ELASTIC_CONFIG, micro_shards=2,
                            seed=0, checkpoint_dir=tmp_path, checkpoint_every=1,
                            keep_checkpoints=2) as trainer:
            trainer.fit(loader, epochs=3)
        assert len(latest_checkpoints(tmp_path)) == 2

    def test_stats_surface(self, tiny_split):
        loader = _elastic_loader(tiny_split)
        with ElasticTrainer(num_workers=2, config=ELASTIC_CONFIG, micro_shards=2,
                            seed=0) as trainer:
            trainer.fit(loader, epochs=1)
            stats = trainer.stats()
            assert stats["global_step"] >= 1
            assert stats["live_workers"] == stats["target_workers"] == 2
            assert stats["ring_rebuilds"] == 0 and stats["resumes"] == 0
            assert len(stats["weights_digest"]) == 64
            assert trainer.ping()  # every worker answers the heartbeat

    def test_validation(self):
        with pytest.raises(ValueError):
            ElasticTrainer(num_workers=0)
        with pytest.raises(ValueError):
            ElasticTrainer(num_workers=2, micro_shards=0)
        with pytest.raises(ValueError):
            ElasticTrainer(num_workers=2, start_method="spawn")


class TestLatestCheckpoints:
    def test_orders_newest_first_and_ignores_strangers(self, tmp_path):
        for name in ("ckpt-00000002.npz", "ckpt-00000010.npz", "ckpt-00000001.npz",
                     "weights.npz", "ckpt-123.npz", "notes.txt"):
            (tmp_path / name).write_bytes(b"x")
        found = latest_checkpoints(tmp_path)
        assert [os.path.basename(p) for p in found] == [
            "ckpt-00000010.npz", "ckpt-00000002.npz", "ckpt-00000001.npz"]

    def test_missing_directory_is_empty(self, tmp_path):
        assert latest_checkpoints(tmp_path / "nope") == []
