"""Tests for repro.unet (model, trainer, inference)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import BatchLoader
from repro.unet import (
    SceneClassifier,
    InferenceConfig,
    UNet,
    UNetConfig,
    UNetTrainer,
    build_unet,
    paper_unet_config,
    tiny_unet_config,
)


@pytest.fixture(scope="module")
def tiny_model():
    return UNet(tiny_unet_config(seed=1))


class TestUNetModel:
    def test_output_shape(self, tiny_model):
        x = np.random.default_rng(0).random((2, 3, 32, 32)).astype(np.float32)
        logits = tiny_model.forward(x)
        assert logits.shape == (2, 3, 32, 32)

    def test_paper_configuration_matches_description(self):
        """Paper: 28 convolutional layers, 5 down-sampling steps, 256x256 inputs."""
        model = UNet(paper_unet_config())
        assert model.num_conv_layers() == 28
        assert len(model.encoders) == 5
        assert len(model.decoders) == 5
        assert model.config.min_input_size() == 32  # 256 is a valid input size
        assert 256 % model.config.min_input_size() == 0

    def test_predict_returns_valid_classes(self, tiny_model):
        x = np.random.default_rng(1).random((1, 3, 32, 32)).astype(np.float32)
        pred = tiny_model.predict(x)
        assert pred.shape == (1, 32, 32)
        assert set(np.unique(pred)).issubset({0, 1, 2})

    def test_predict_proba_sums_to_one(self, tiny_model):
        x = np.random.default_rng(2).random((1, 3, 32, 32)).astype(np.float32)
        probs = tiny_model.predict_proba(x)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-5)

    def test_predict_restores_training_mode(self, tiny_model):
        tiny_model.train()
        tiny_model.predict(np.zeros((1, 3, 32, 32), dtype=np.float32))
        assert tiny_model.training

    def test_rejects_indivisible_input(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model.forward(np.zeros((1, 3, 30, 30), dtype=np.float32))

    def test_rejects_wrong_channels(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model.forward(np.zeros((1, 4, 32, 32), dtype=np.float32))

    def test_backward_shape(self, tiny_model):
        x = np.random.default_rng(3).random((1, 3, 32, 32)).astype(np.float32)
        logits = tiny_model.forward(x)
        grad = tiny_model.backward(np.ones_like(logits))
        assert grad.shape == x.shape

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            UNet(tiny_unet_config()).backward(np.zeros((1, 3, 32, 32), dtype=np.float32))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            UNetConfig(depth=0)
        with pytest.raises(ValueError):
            UNetConfig(base_channels=0)
        with pytest.raises(ValueError):
            UNetConfig(dropout=1.5)

    def test_build_unet_factory(self):
        assert isinstance(build_unet(), UNet)

    def test_deterministic_construction(self):
        a, b = UNet(UNetConfig(seed=5, depth=2, base_channels=4)), UNet(UNetConfig(seed=5, depth=2, base_channels=4))
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.value, pb.value)


class TestTrainer:
    def test_loss_decreases_on_tiny_problem(self, tiny_split):
        train, _ = tiny_split
        loader = BatchLoader(train.images, train.labels, batch_size=4, seed=0)
        trainer = UNetTrainer(config=tiny_unet_config(seed=0), learning_rate=3e-3)
        history = trainer.fit(loader, epochs=5)
        assert history.losses[-1] < history.losses[0]
        assert history.total_time > 0
        assert history.mean_throughput > 0

    def test_learns_trivial_mapping(self):
        """A tiny U-Net must learn to map a constant-class image to its class."""
        rng = np.random.default_rng(0)
        images, labels = [], []
        values = {0: 240, 1: 120, 2: 15}
        for cls in (0, 1, 2):
            for _ in range(4):
                noise = rng.integers(-5, 6, size=(16, 16, 3))
                images.append(np.clip(values[cls] + noise, 0, 255).astype(np.uint8))
                labels.append(np.full((16, 16), cls, dtype=np.uint8))
        images, labels = np.stack(images), np.stack(labels)
        loader = BatchLoader(images, labels, batch_size=6, seed=1)
        trainer = UNetTrainer(config=UNetConfig(depth=2, base_channels=8, dropout=0.0, seed=2), learning_rate=5e-3)
        trainer.fit(loader, epochs=40)
        report = trainer.evaluate(images, labels)
        assert report.accuracy > 0.9

    def test_evaluate_report_structure(self, tiny_split):
        train, test = tiny_split
        trainer = UNetTrainer(config=tiny_unet_config(seed=3))
        report = trainer.evaluate(test.images, test.labels, class_names=["thick", "thin", "water"])
        assert 0.0 <= report.accuracy <= 1.0
        assert report.confusion.shape == (3, 3)

    def test_fit_rejects_zero_epochs(self, tiny_split):
        train, _ = tiny_split
        loader = BatchLoader(train.images, train.labels, batch_size=4)
        with pytest.raises(ValueError):
            UNetTrainer(config=tiny_unet_config()).fit(loader, epochs=0)


class TestInference:
    def test_classify_tiles_shape(self, tiny_model, tiny_dataset):
        config = InferenceConfig(tile_size=32, batch_size=2, apply_cloud_filter=False)
        preds = SceneClassifier(model=tiny_model, config=config).classify_tiles(tiny_dataset.images[:3])
        assert preds.shape == (3, 32, 32)
        assert preds.dtype == np.uint8

    def test_classify_tiles_with_filter(self, tiny_model, tiny_dataset):
        from repro.cloudshadow import CloudShadowFilter
        from repro.unet import predict_batch_probabilities

        tiles = tiny_dataset.images[:2]
        classifier = SceneClassifier(model=tiny_model, config=InferenceConfig(tile_size=32))
        preds = classifier.classify_tiles(tiles)
        assert preds.shape == (2, 32, 32)
        # The filter really runs: the maps match the filtered seam exactly.
        ref = predict_batch_probabilities(tiles, tiny_model, CloudShadowFilter(), classifier.engine)
        np.testing.assert_array_equal(preds, ref.argmax(axis=1))

    def test_classify_tiles_rejects_bad_input(self, tiny_model, tiny_dataset):
        with pytest.raises(ValueError):
            SceneClassifier(model=tiny_model).classify_tiles(tiny_dataset.labels)
        with pytest.raises(ValueError):
            InferenceConfig(batch_size=0)

    def test_scene_classifier_full_scene(self, tiny_model, clear_scene):
        classifier = SceneClassifier(
            model=tiny_model, config=InferenceConfig(tile_size=32, apply_cloud_filter=False, batch_size=4)
        )
        class_map = classifier.classify_scene(clear_scene.rgb)
        assert class_map.shape == clear_scene.class_map.shape
        assert set(np.unique(class_map)).issubset({0, 1, 2})

    def test_scene_classifier_rejects_bad_scene(self, tiny_model):
        classifier = SceneClassifier(model=tiny_model)
        with pytest.raises(ValueError):
            classifier.classify_scene(np.zeros((32, 32), dtype=np.uint8))

    def test_trained_classifier_beats_chance_on_scene(self, clear_scene, tiny_split):
        from repro.metrics import accuracy_score

        train, _ = tiny_split
        loader = BatchLoader(train.images, train.labels, batch_size=4, seed=0, augment=True)
        trainer = UNetTrainer(config=UNetConfig(depth=2, base_channels=8, dropout=0.0, seed=4), learning_rate=3e-3)
        trainer.fit(loader, epochs=12)
        classifier = SceneClassifier(
            model=trainer.model, config=InferenceConfig(tile_size=32, apply_cloud_filter=False)
        )
        prediction = classifier.classify_scene(clear_scene.rgb)
        assert accuracy_score(clear_scene.class_map, prediction) > 0.6
