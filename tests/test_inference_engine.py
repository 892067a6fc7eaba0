"""Tests for the overlap-aware batched scene-inference engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.losses import softmax
from repro.unet import (
    InferenceConfig,
    SceneClassifier,
    UNet,
    tiny_unet_config,
)
from repro.backend import available_backends


@pytest.fixture(scope="module")
def engine_model():
    return UNet(tiny_unet_config(seed=9))


class _PixelwiseModel:
    """Stub whose per-pixel probabilities depend only on that pixel, making
    predictions tiling-invariant — the property the blend tests rely on."""

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        r, g, b = x[:, 0], x[:, 1], x[:, 2]
        logits = np.stack([3.0 * r - g, 2.0 * g - 0.5 * b, 1.5 * b + 0.25 * r], axis=1)
        return softmax(logits.astype(np.float32), axis=1)


class TestInferenceConfig:
    def test_defaults_valid(self):
        config = InferenceConfig()
        assert config.overlap == 0 and config.num_workers == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tile_size": 0},
            {"overlap": -1},
            {"tile_size": 32, "overlap": 32},
            {"batch_size": 0},
            {"num_workers": 0},
        ],
    )
    def test_rejects_bad_options(self, kwargs):
        with pytest.raises(ValueError):
            InferenceConfig(**kwargs)

    def test_dict_roundtrip(self):
        config = InferenceConfig(tile_size=48, overlap=8, apply_cloud_filter=False,
                                 batch_size=4, num_workers=2)
        data = config.to_dict()
        import json

        assert json.loads(json.dumps(data)) == data  # JSON-safe
        assert InferenceConfig.from_dict(data) == config

    def test_from_dict_partial_uses_defaults(self):
        config = InferenceConfig.from_dict({"tile_size": 64})
        assert config == InferenceConfig(tile_size=64)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown InferenceConfig keys.*'typo_size'"):
            InferenceConfig.from_dict({"typo_size": 32})
        with pytest.raises(ValueError, match="dict"):
            InferenceConfig.from_dict([("tile_size", 32)])

    def test_from_dict_validates_values(self):
        with pytest.raises(ValueError):
            InferenceConfig.from_dict({"tile_size": 32, "overlap": 32})
        # Values from JSON are not coerced: "false" is not a bool, 32.9 is
        # not an int, and a bool is not an int either.
        for key, value in [("apply_cloud_filter", "false"), ("apply_cloud_filter", 0),
                           ("tile_size", 32.9), ("tile_size", "32"),
                           ("batch_size", True), ("overlap", float("nan"))]:
            with pytest.raises(ValueError, match=key):
                InferenceConfig.from_dict({key: value})
        assert InferenceConfig.from_dict({"tile_size": 64.0}) == InferenceConfig(tile_size=64)

    def test_backend_key_round_trips(self):
        config = InferenceConfig(backend="thread", num_workers=3)
        data = config.to_dict()
        assert data["backend"] == "thread"
        assert InferenceConfig.from_dict(data) == config

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            InferenceConfig(backend="gpu")

    def test_fork_backend_rejected_at_config_time_without_fork(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.setattr("repro.backend.base._fork_available", lambda: False)
        with pytest.raises(ValueError, match="fork"):
            InferenceConfig(backend="fork")
        # ... while "auto" quietly degrades instead of failing.
        config = InferenceConfig(backend="auto", num_workers=4)
        assert config.resolved_backend() == "serial"

    def test_resolved_backend_heuristic(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert InferenceConfig().resolved_backend() == "serial"
        assert InferenceConfig(backend="serial", num_workers=8).resolved_backend() == "serial"


def _tile_classifier(model, **kwargs) -> SceneClassifier:
    """A classifier for pre-tiled 32-px stacks, cloud filter off unless asked.

    Hold it (``with``) while reading ``_predict_stack`` results: under a fork
    backend they are views onto the classifier's shared output arena.
    """
    kwargs.setdefault("apply_cloud_filter", False)
    return SceneClassifier(model=model, config=InferenceConfig(tile_size=32, **kwargs))


class TestPredictTiles:
    """``SceneClassifier.classify_tiles`` and its probability stack."""

    def test_empty_stack_returns_empty_map(self, engine_model):
        with _tile_classifier(engine_model) as classifier:
            out = classifier.classify_tiles(np.empty((0, 32, 32, 3), dtype=np.uint8))
        assert out.shape == (0, 32, 32)
        assert out.dtype == np.uint8

    def test_empty_stack_probabilities(self, engine_model):
        with _tile_classifier(engine_model) as classifier:
            out = classifier._predict_stack(np.empty((0, 32, 32, 3), dtype=np.uint8))
        assert out.shape == (0, 3, 32, 32)
        assert out.dtype == np.float32

    def test_probabilities_shape_and_norm(self, engine_model, tiny_dataset):
        with _tile_classifier(engine_model, batch_size=2) as classifier:
            probs = classifier._predict_stack(tiny_dataset.images[:3])
            assert probs.shape == (3, 3, 32, 32)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-5)

    def test_probabilities_match_labels(self, engine_model, tiny_dataset):
        tiles = tiny_dataset.images[:4]
        with _tile_classifier(engine_model, batch_size=2) as classifier:
            labels = classifier.classify_tiles(tiles)
            probs = classifier._predict_stack(tiles)
            np.testing.assert_array_equal(probs.argmax(axis=1).astype(np.uint8), labels)

    def test_multiprocess_matches_serial(self, engine_model, tiny_dataset):
        tiles = tiny_dataset.images[:6]
        maps = {}
        for backend in [b for b in ("serial", "thread", "fork") if b in available_backends()]:
            with _tile_classifier(engine_model, batch_size=2, apply_cloud_filter=True,
                                  backend=backend, num_workers=2) as classifier:
                assert (classifier.backend is None) == (backend == "serial")
                maps[backend] = classifier._predict_stack(tiles).copy()
        for backend, probs in maps.items():
            np.testing.assert_array_equal(maps["serial"], probs, err_msg=backend)

    def test_rejects_bad_stack(self, engine_model, tiny_dataset):
        with pytest.raises(ValueError), _tile_classifier(engine_model) as classifier:
            classifier.classify_tiles(tiny_dataset.labels)
        with pytest.raises(ValueError):
            InferenceConfig(batch_size=0)
        with pytest.raises(ValueError):
            InferenceConfig(num_workers=0)


class TestOverlapBlending:
    def _scene(self):
        rng = np.random.default_rng(11)
        return rng.integers(0, 255, size=(100, 140, 3), dtype=np.uint8)

    def test_blended_output_matches_non_overlap(self):
        """With a tiling-invariant model, overlap blending must reproduce the
        non-overlap classification exactly (interiors and seams)."""
        scene = self._scene()
        stub = _PixelwiseModel()

        def classify(overlap):
            config = InferenceConfig(tile_size=32, overlap=overlap, apply_cloud_filter=False, batch_size=4)
            return SceneClassifier(model=stub, config=config).classify_scene_proba(scene)

        probs0 = classify(0)
        probs8 = classify(8)
        np.testing.assert_allclose(probs8, probs0, atol=1e-6)
        np.testing.assert_array_equal(probs8.argmax(axis=-1), probs0.argmax(axis=-1))

    def test_proba_map_shape_and_norm(self, engine_model):
        scene = self._scene()
        config = InferenceConfig(tile_size=32, overlap=8, apply_cloud_filter=False, batch_size=4)
        probs = SceneClassifier(model=engine_model, config=config).classify_scene_proba(scene)
        assert probs.shape == (100, 140, 3)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-5)

    def test_classify_scene_with_overlap_and_workers(self, engine_model):
        scene = self._scene()
        config = InferenceConfig(
            tile_size=32, overlap=8, apply_cloud_filter=False, batch_size=4, num_workers=2
        )
        class_map = SceneClassifier(model=engine_model, config=config).classify_scene(scene)
        assert class_map.shape == scene.shape[:2]
        assert set(np.unique(class_map)).issubset({0, 1, 2})


class TestSmallSceneHandling:
    """Scenes (or tile sizes) the model cannot ingest directly must pad-and-crop."""

    @pytest.fixture(scope="class")
    def deep_model(self):
        # depth 3 → forward requires spatial sizes divisible by 8.
        from repro.unet import UNetConfig

        return UNet(UNetConfig(depth=3, base_channels=4, dropout=0.0, seed=2))

    def test_tile_size_not_divisible_by_model_step(self, deep_model):
        """Regression: tile_size 20 with a depth-3 model used to raise."""
        scene = np.random.default_rng(0).integers(0, 255, size=(20, 20, 3), dtype=np.uint8)
        config = InferenceConfig(tile_size=20, apply_cloud_filter=False)
        class_map = SceneClassifier(model=deep_model, config=config).classify_scene(scene)
        assert class_map.shape == (20, 20)

    def test_scene_smaller_than_tile(self, deep_model):
        scene = np.random.default_rng(1).integers(0, 255, size=(13, 9, 3), dtype=np.uint8)
        config = InferenceConfig(tile_size=32, apply_cloud_filter=False)
        class_map = SceneClassifier(model=deep_model, config=config).classify_scene(scene)
        assert class_map.shape == (13, 9)

    def test_one_pixel_band_after_padding(self, deep_model):
        """A 33-row scene with 32-px tiles leaves a 1-pixel remainder band."""
        scene = np.random.default_rng(2).integers(0, 255, size=(33, 1, 3), dtype=np.uint8)
        config = InferenceConfig(tile_size=32, apply_cloud_filter=False)
        class_map = SceneClassifier(model=deep_model, config=config).classify_scene(scene)
        assert class_map.shape == (33, 1)

    def test_padding_does_not_change_divisible_results(self, engine_model, tiny_dataset):
        """The pad-and-crop seam is a no-op when sizes already divide evenly."""
        tiles = tiny_dataset.images[:4]
        with _tile_classifier(engine_model, batch_size=2) as classifier:
            probs = classifier._predict_stack(tiles)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-5)
            assert probs.shape[2:] == tiles.shape[1:3]

    def test_odd_tiles_through_classify_tiles(self, deep_model):
        tiles = np.random.default_rng(3).integers(0, 255, size=(3, 20, 28, 3), dtype=np.uint8)
        with _tile_classifier(deep_model, batch_size=2) as classifier:
            labels = classifier.classify_tiles(tiles)
            assert labels.shape == (3, 20, 28)
            probs = classifier._predict_stack(tiles)
            assert probs.shape == (3, 3, 20, 28)
            np.testing.assert_array_equal(probs.argmax(axis=1).astype(np.uint8), labels)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-5)


class TestEvalModeMemory:
    def test_inference_leaves_no_backward_caches(self, engine_model):
        """Eval-mode forward must not pin backward state (the seed kept the
        full im2col matrix of every conv alive during inference)."""
        engine_model.predict(np.zeros((1, 3, 32, 32), dtype=np.float32))
        with pytest.raises(RuntimeError):
            engine_model.backward(np.zeros((1, 3, 32, 32), dtype=np.float32))

    def test_eval_forward_matches_train_forward_without_dropout(self):
        from repro.unet import UNetConfig

        model = UNet(UNetConfig(depth=2, base_channels=4, dropout=0.0, seed=3))
        x = np.random.default_rng(0).random((2, 3, 32, 32)).astype(np.float32)
        train_logits = model.train().forward(x)
        eval_logits = model.eval().forward(x)
        np.testing.assert_allclose(eval_logits, train_logits, atol=1e-4)


class TestPaddingAvoidsCopies:
    """Tile padding must be a no-op (same object, no reflect recompute) when
    the stack already matches the model's input multiple."""

    def test_pad_stack_already_multiple_returns_same_object(self, rng):
        from repro.unet.inference import _pad_stack_to_multiple

        stack = rng.integers(0, 255, size=(3, 32, 32, 3), dtype=np.uint8)
        assert _pad_stack_to_multiple(stack, 4) is stack
        assert _pad_stack_to_multiple(stack, 1) is stack

    def test_pad_stack_only_copies_when_needed(self, rng):
        from repro.unet.inference import _pad_stack_to_multiple

        stack = rng.integers(0, 255, size=(2, 30, 32, 3), dtype=np.uint8)
        padded = _pad_stack_to_multiple(stack, 8)
        assert padded is not stack and padded.shape == (2, 32, 32, 3)
        # Reflect padding: row 30 mirrors row 28, row 31 mirrors row 27.
        np.testing.assert_array_equal(padded[:, 30], stack[:, 28])
        np.testing.assert_array_equal(padded[:, 31], stack[:, 27])

    def test_pad_to_multiple_already_multiple_is_identity(self, rng):
        from repro.imops.resize import _pad_bottom_right, pad_to_multiple

        image = rng.integers(0, 255, size=(64, 96, 3), dtype=np.uint8)
        assert pad_to_multiple(image, 32) is image
        assert _pad_bottom_right(image, 0, 0, "reflect") is image

    def test_seam_output_equals_unpadded_forward(self, engine_model, rng):
        from repro.unet.inference import predict_batch_probabilities

        batch = rng.integers(0, 255, size=(2, 16, 16, 3), dtype=np.uint8)
        probs = predict_batch_probabilities(batch, engine_model, None)
        assert probs.shape[2:] == (16, 16)
