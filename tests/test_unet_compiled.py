"""Forward-parity and integration tests of the compiled U-Net inference plans.

The compiled runtime must reproduce ``UNet.predict_proba`` exactly (it runs
the same offset-GEMM convolutions over the same values, just into a
preallocated arena), across depths, tile sizes and batch sizes — and slot
transparently into every consumer of the shared prediction seam.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.imops.resize import assemble_from_tiles, split_into_tiles
from repro.serving import MicroBatcher
from repro.unet import (
    CompiledUNet,
    InferenceConfig,
    SceneClassifier,
    UNet,
    UNetConfig,
    compile_unet_plan,
)
from repro.unet.inference import predict_batch_probabilities


def _model(depth: int, seed: int = 0, dropout: float = 0.2) -> UNet:
    return UNet(UNetConfig(depth=depth, base_channels=4, dropout=dropout, seed=seed))


class TestForwardParity:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("size", [8, 24, 40])
    @pytest.mark.parametrize("batch", [1, 8])
    def test_matches_eval_forward(self, depth, size, batch, rng):
        model = _model(depth, seed=depth)
        x = rng.random((batch, 3, size, size), dtype=np.float32)
        ref = model.predict_proba(x)
        out = compile_unet_plan(model, x.shape).run(x)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-6)
        np.testing.assert_array_equal(out.argmax(axis=1), ref.argmax(axis=1))

    def test_plan_is_stateless_across_runs(self, rng):
        model = _model(2)
        plan = compile_unet_plan(model, (2, 3, 16, 16))
        x1 = rng.random((2, 3, 16, 16), dtype=np.float32)
        x2 = rng.random((2, 3, 16, 16), dtype=np.float32)
        first = plan.run(x1)
        plan.run(x2)
        again = plan.run(x1)
        np.testing.assert_array_equal(first, again)

    def test_non_contiguous_input(self, rng):
        # image_to_tensor hands the seam a transposed (non-contiguous) view.
        model = _model(2)
        nhwc = rng.random((2, 16, 16, 3), dtype=np.float32)
        x = np.transpose(nhwc, (0, 3, 1, 2))
        assert not x.flags.c_contiguous
        ref = model.predict_proba(x)
        out = compile_unet_plan(model, x.shape).run(x)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-6)

    def test_shape_mismatch_raises(self, rng):
        model = _model(1)
        plan = compile_unet_plan(model, (1, 3, 8, 8))
        with pytest.raises(ValueError, match="compiled for input"):
            plan.run(rng.random((2, 3, 8, 8), dtype=np.float32))

    def test_compile_validates_input_shape(self):
        model = _model(2)
        with pytest.raises(ValueError, match="divisible"):
            compile_unet_plan(model, (1, 3, 10, 10))
        with pytest.raises(ValueError, match="channels"):
            compile_unet_plan(model, (1, 4, 16, 16))
        with pytest.raises(TypeError, match="requires a UNet"):
            compile_unet_plan(object(), (1, 3, 16, 16))  # type: ignore[arg-type]

    def test_plans_snapshot_weights(self, rng):
        """A compiled plan keeps serving the weights *and biases* it was
        compiled from (an in-place optimizer step must not half-apply)."""
        model = _model(1, dropout=0.0)
        x = rng.random((1, 3, 8, 8), dtype=np.float32)
        engine = CompiledUNet(model)
        before = engine.predict_proba(x)
        model.head.weight.value += 1.0
        model.head.bias.value += 1.0  # in-place, like Adam.step
        stale = engine.predict_proba(x)
        np.testing.assert_array_equal(stale, before)  # snapshot, not live weights
        engine.clear()
        fresh = engine.predict_proba(x)
        np.testing.assert_allclose(fresh, model.predict_proba(x), rtol=0, atol=1e-6)
        assert not np.array_equal(fresh, before)


class TestCompiledUNetCache:
    def test_shapes_compile_once_and_evict_lru(self, rng):
        model = _model(1, dropout=0.0)
        engine = CompiledUNet(model, max_plans=2)
        for n in (1, 2, 1, 4):  # third call hits the (1, ...) plan
            engine.predict_proba(rng.random((n, 3, 8, 8), dtype=np.float32))
        info = engine.cache_info()
        assert info["plans"] == 2
        assert info["misses"] == 3 and info["hits"] == 1 and info["evictions"] == 1
        assert info["arena_bytes"] > 0

    def test_arena_is_reused_not_regrown(self, rng):
        model = _model(2, dropout=0.0)
        plan = compile_unet_plan(model, (1, 3, 16, 16))
        nbytes = plan.arena_nbytes
        for _ in range(3):
            plan.run(rng.random((1, 3, 16, 16), dtype=np.float32))
        assert plan.arena_nbytes == nbytes


class TestSeamIntegration:
    def test_predict_batch_probabilities_engine_parity(self, rng):
        model = _model(2, dropout=0.0)
        engine = CompiledUNet(model)
        batch = rng.integers(0, 255, size=(3, 16, 16, 3), dtype=np.uint8)
        ref = predict_batch_probabilities(batch, model, None)
        out = predict_batch_probabilities(batch, model, None, engine=engine)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-6)

    def test_engine_handles_padded_odd_tiles(self, rng):
        # 30x30 is not divisible by the depth-2 input multiple: the seam
        # reflect-pads to 32 and crops back; the compiled plan must agree.
        model = _model(2, dropout=0.0)
        engine = CompiledUNet(model)
        batch = rng.integers(0, 255, size=(2, 30, 30, 3), dtype=np.uint8)
        ref = predict_batch_probabilities(batch, model, None)
        out = predict_batch_probabilities(batch, model, None, engine=engine)
        assert out.shape == ref.shape == (2, model.config.num_classes, 30, 30)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-6)

    def test_scene_classifier_compiled_matches_uncompiled(self, rng):
        model = _model(2, dropout=0.0)
        scene = rng.integers(0, 255, size=(48, 64, 3), dtype=np.uint8)
        config = InferenceConfig(tile_size=16, overlap=4, apply_cloud_filter=False, batch_size=4)
        compiled = SceneClassifier(model=model, config=config)
        assert compiled.engine is not None
        # Reference: the model-only seam (the generic eval forward), stitched.
        tiles, grid = split_into_tiles(scene, tile_size=16, overlap=4)
        probs = predict_batch_probabilities(tiles, model, None)
        reference = np.asarray(assemble_from_tiles(np.moveaxis(probs, 1, -1), grid))
        np.testing.assert_allclose(compiled.classify_scene_proba(scene), reference, rtol=0, atol=1e-6)
        info = compiled.plan_cache_info()
        assert info is not None and info["misses"] >= 1

    def test_warm_plans_precompiles_serving_shape(self):
        model = _model(2, dropout=0.0)
        classifier = SceneClassifier(
            model=model, config=InferenceConfig(tile_size=30, apply_cloud_filter=False)
        )
        classifier.warm_plans(batch_sizes=(1, 4))
        info = classifier.plan_cache_info()
        # tile 30 rounds up to the model's input multiple (32).
        assert info["plans"] == 2 and info["misses"] == 2

    def test_invalidate_plans_after_weight_change(self, rng):
        model = _model(1, dropout=0.0)
        classifier = SceneClassifier(
            model=model, config=InferenceConfig(tile_size=8, apply_cloud_filter=False)
        )
        tiles = rng.integers(0, 255, size=(2, 8, 8, 3), dtype=np.uint8)
        classifier.classify_tiles(tiles)
        model.head.weight.value += 0.5
        classifier.invalidate_plans()
        ref = predict_batch_probabilities(tiles, model, None)
        np.testing.assert_allclose(classifier._predict_stack(tiles), ref, rtol=0, atol=1e-6)
        np.testing.assert_array_equal(classifier.classify_tiles(tiles), ref.argmax(axis=1))

    def test_config_roundtrip_with_plan_knobs(self):
        config = InferenceConfig(plan_cache_size=3)
        restored = InferenceConfig.from_dict(config.to_dict())
        assert restored == config
        # The legacy key of archives written before plans were the only
        # runtime loads, ignored, with a deprecation warning.
        with pytest.warns(DeprecationWarning, match="compile_plans"):
            legacy = InferenceConfig.from_dict({"compile_plans": False, "plan_cache_size": 3})
        assert legacy == config
        with pytest.raises(ValueError, match="plan_cache_size"):
            InferenceConfig(plan_cache_size=0)


class TestMicroBatcherConcurrency:
    def test_concurrent_mixed_shapes_through_shared_engine(self, rng):
        """Many threads hammering one engine-backed batcher must each get the
        map direct prediction would produce (plans are lock-protected)."""
        model = _model(2, dropout=0.0)
        engine = CompiledUNet(model, max_plans=4)

        def predict_fn(stack: np.ndarray) -> np.ndarray:
            return predict_batch_probabilities(stack, model, None, engine=engine)

        tiles = [
            rng.integers(0, 255, size=(16 if i % 2 else 24, 16 if i % 2 else 24, 3), dtype=np.uint8)
            for i in range(24)
        ]
        results: list = [None] * len(tiles)
        with MicroBatcher(predict_fn, max_batch=6, max_delay_s=0.002) as batcher:
            def worker(index: int) -> None:
                results[index] = batcher.predict(tiles[index], timeout=30.0)

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(tiles))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        for tile, probs in zip(tiles, results):
            expected = predict_batch_probabilities(tile[None], model, None)[0]
            np.testing.assert_allclose(probs, expected, rtol=0, atol=1e-6)
