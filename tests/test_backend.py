"""Tests for the unified execution-backend seam (serial / thread / fork).

The load-bearing properties: every backend produces **bit-identical**
probability maps (they all execute the same prediction seam), the fork
backend's shared-memory segments are cleaned up in every exit path
(close, release, re-publish, worker crash), and a killed worker surfaces
as a :class:`BackendError` then respawns with its models republished.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.backend import (
    BackendError,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    available_backends,
    make_backend,
    resolve_backend_name,
)
from repro.backend.store import SEGMENT_PREFIX, SharedModelStore, attach_model
from repro.cloudshadow import CloudShadowFilter
from repro.unet import InferenceConfig, SceneClassifier, UNet, tiny_unet_config
from repro.unet.inference import predict_batch_probabilities

BACKENDS = ["serial", "thread", "fork"]

pytestmark = pytest.mark.skipif(
    "fork" not in available_backends(), reason="fork start method unavailable"
)


def _segments() -> list[str]:
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return []
    return [name for name in os.listdir("/dev/shm") if name.startswith(SEGMENT_PREFIX)]


@pytest.fixture(scope="module")
def model():
    return UNet(tiny_unet_config(seed=3))


@pytest.fixture(scope="module")
def stack():
    rng = np.random.default_rng(11)
    return rng.integers(0, 256, size=(9, 32, 32, 3), dtype=np.uint8)


def _build(name: str):
    if name == "serial":
        return SerialBackend()
    if name == "thread":
        return ThreadBackend(num_workers=2)
    return ProcessBackend(num_workers=2)


class TestResolution:
    def test_explicit_names_resolve_to_themselves(self):
        for name in BACKENDS:
            assert resolve_backend_name(name, 1) == name

    def test_auto_uses_num_workers_heuristic(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend_name("auto", 1) == "serial"
        assert resolve_backend_name("auto", 4) == "fork"

    def test_auto_honours_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "thread")
        assert resolve_backend_name("auto", 8) == "thread"
        assert resolve_backend_name(None, 1) == "thread"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend_name("dask", 1)

    def test_fork_rejected_without_fork(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.setattr("repro.backend.base._fork_available", lambda: False)
        with pytest.raises(ValueError, match="fork"):
            resolve_backend_name("fork", 4)
        assert resolve_backend_name("auto", 4) == "serial"

    def test_make_backend_builds_each_kind(self):
        for name, cls in [("serial", SerialBackend), ("thread", ThreadBackend),
                          ("fork", ProcessBackend)]:
            backend = make_backend(name, num_workers=2)
            assert isinstance(backend, cls)
            backend.close()


class TestCrossBackendParity:
    def test_predict_stack_bit_identical(self, model, stack):
        reference = None
        for name in BACKENDS:
            with _build(name) as backend:
                backend.publish_model("m", model, CloudShadowFilter())
                probs = backend.predict_stack("m", stack, batch_size=4)
            if reference is None:
                reference = probs
            else:
                assert np.array_equal(reference, probs), name
        # ... and identical to the raw compiled-plan seam run in-process.
        expected = np.concatenate([
            predict_batch_probabilities(stack[i : i + 4], model, CloudShadowFilter())
            for i in range(0, stack.shape[0], 4)
        ])
        assert np.array_equal(reference, expected)

    def test_predict_single_batch_bit_identical(self, model, stack):
        results = []
        for name in BACKENDS:
            with _build(name) as backend:
                backend.publish_model("m", model)
                results.append(backend.predict("m", stack[:3]))
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[0], results[2])

    def test_map_preserves_order_everywhere(self):
        items = list(range(23))
        for name in BACKENDS:
            with _build(name) as backend:
                assert backend.map(_square, items, chunk_size=4) == [i * i for i in items]

    def test_scene_classifier_parity(self, model):
        rng = np.random.default_rng(5)
        scene = rng.integers(0, 256, size=(96, 96, 3), dtype=np.uint8)
        maps = {}
        for name in BACKENDS:
            config = InferenceConfig(tile_size=32, batch_size=2, backend=name, num_workers=2)
            with SceneClassifier(model, config) as classifier:
                maps[name] = classifier.classify_scene(scene)
        assert np.array_equal(maps["serial"], maps["thread"])
        assert np.array_equal(maps["serial"], maps["fork"])

    def test_thread_backend_predictions_race_free(self, model, stack):
        # Concurrent batches on the thread backend share one compiled-plan
        # cache; hammering it must reproduce the serial backend exactly.
        with _build("serial") as backend:
            backend.publish_model("m", model)
            expected = backend.predict_stack("m", stack, batch_size=3)
        with _build("thread") as backend:
            backend.publish_model("m", model)
            for _ in range(5):
                probs = backend.predict_stack("m", stack, batch_size=3)
                assert np.array_equal(probs, expected)


def _square(x: int) -> int:
    return x * x


def _boom(x: int) -> int:
    raise ValueError(f"boom on {x}")


def _blas_threads(_: int) -> int | None:
    from repro.backend.process import _openblas_threads

    return _openblas_threads()


class TestSharedModelStore:
    def test_attach_reads_weights_zero_copy(self, model):
        store = SharedModelStore()
        try:
            spec = store.publish("m", model)
            attached = attach_model(spec)
            try:
                for name, param in attached.model.named_parameters().items():
                    assert not param.value.flags.writeable
                    assert np.array_equal(param.value, model.named_parameters()[name].value)
            finally:
                attached.close()
        finally:
            store.close()
        assert not _segments()

    def test_attached_prediction_matches_direct(self, model, stack):
        store = SharedModelStore()
        try:
            attached = attach_model(store.publish("m", model, CloudShadowFilter()))
            try:
                got = attached.predict(stack[:4])
            finally:
                attached.close()
        finally:
            store.close()
        expected = predict_batch_probabilities(stack[:4], model, CloudShadowFilter())
        assert np.array_equal(got, expected)

    def test_predict_into_out_buffer_identical(self, model, stack):
        store = SharedModelStore()
        try:
            attached = attach_model(store.publish("m", model))
            try:
                direct = attached.predict(stack[:4])
                out = np.empty_like(direct)
                returned = attached.predict(stack[:4], out=out)
            finally:
                attached.close()
        finally:
            store.close()
        assert returned is out
        assert np.array_equal(direct, out)

    def test_republish_replaces_segment(self, model):
        store = SharedModelStore()
        try:
            first = store.publish("m", model).segment_name
            second = store.publish("m", model).segment_name
            assert first != second
            assert len(_segments()) == 1
        finally:
            store.close()
        assert not _segments()

    def test_non_unet_rejected(self):
        store = SharedModelStore()
        with pytest.raises(TypeError, match="UNet"):
            store.publish("m", object())


class TestSharedMemoryLifecycle:
    def test_close_unlinks_model_and_io_segments(self, model, stack):
        backend = ProcessBackend(num_workers=2)
        with backend:
            backend.publish_model("m", model)
            backend.predict_stack("m", stack, batch_size=4)
            assert _segments()  # model segment + reusable I/O arena pair
        assert not _segments()

    def test_release_model_unlinks_everything_for_key(self, model, stack):
        with ProcessBackend(num_workers=1) as backend:
            backend.publish_model("m", model)
            backend.predict_stack("m", stack, batch_size=4)
            backend.release_model("m")
            assert not _segments()
            assert not backend.has_model("m")
        assert not _segments()

    def test_io_segments_are_reused_across_calls(self, model, stack):
        with ProcessBackend(num_workers=1) as backend:
            backend.publish_model("m", model)
            backend.predict_stack("m", stack, batch_size=4)
            first = set(_segments())
            backend.predict_stack("m", stack, batch_size=4)
            assert set(_segments()) == first

    def test_idle_worker_crash_respawns_transparently(self, model, stack):
        with ProcessBackend(num_workers=1) as backend:
            backend.publish_model("m", model)
            before = backend.predict_stack("m", stack, batch_size=4)
            victim = backend._workers[0].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(5)
            # The next checkout notices the corpse, respawns the worker and
            # republishes the store — the caller never sees the crash.
            after = backend.predict_stack("m", stack, batch_size=4)
            assert np.array_equal(before, after)
            assert backend._workers[0].process.pid != victim.pid
            assert backend.occupancy()["alive_workers"] == 1
        assert not _segments()

    def test_mid_flight_worker_death_raises_backend_error(self, model, stack):
        with ProcessBackend(num_workers=1) as backend:
            backend.publish_model("m", model)
            worker = backend._workers[0]
            os.kill(worker.process.pid, signal.SIGKILL)
            worker.process.join(5)
            # A call already holding the worker (past checkout) hits the dead
            # pipe and surfaces it as BackendError, marking the worker dead.
            with pytest.raises(BackendError, match="died"):
                worker.call("predict_batch", "m", stack[:2])
            assert worker.dead
            # ... and the backend as a whole still recovers on the next call.
            assert backend.predict("m", stack[:2]).shape[0] == 2
        assert not _segments()

    def test_predict_stack_nocopy_returns_live_arena(self, model, stack):
        with ProcessBackend(num_workers=1) as backend:
            backend.publish_model("m", model)
            copied = backend.predict_stack("m", stack, batch_size=4, copy=True)
            arena = backend.predict_stack("m", stack, batch_size=4, copy=False)
            assert np.array_equal(copied, arena)
            snapshot = np.array(arena)
        assert np.array_equal(copied, snapshot)


class TestLifecycleAndErrors:
    def test_closed_backend_rejects_dispatch(self, model):
        backend = SerialBackend()
        backend.close()
        with pytest.raises(BackendError, match="closed"):
            backend.map(_square, [1, 2])

    def test_close_is_idempotent(self):
        for name in BACKENDS:
            backend = _build(name).start()
            backend.close()
            backend.close()

    def test_occupancy_reports_models_and_workers(self, model):
        with ProcessBackend(num_workers=2) as backend:
            backend.publish_model("m", model)
            info = backend.occupancy()
            assert info["backend"] == "fork"
            assert info["workers"] == 2
            assert info["models"] == ["m"]
            assert info["alive_workers"] == 2

    def test_fork_workers_split_blas_threads_between_them(self):
        cpus = len(os.sched_getaffinity(0))
        parent = _blas_threads(0)
        with ProcessBackend(num_workers=2) as backend:
            counts = backend.map(_blas_threads, [0, 1], chunk_size=1)
        if parent is None:  # not OpenBLAS: nothing to cap
            assert counts == [None, None]
        else:
            budget = max(1, cpus // min(2, cpus))
            assert all(1 <= count <= min(parent, budget) for count in counts), counts
        assert _blas_threads(0) == parent  # the parent's own pool is untouched

    def test_worker_task_error_does_not_kill_worker(self, model, stack):
        with ProcessBackend(num_workers=1) as backend:
            backend.publish_model("m", model)
            pid = backend._workers[0].process.pid
            with pytest.raises(BackendError, match="failed"):
                backend.map(_boom, [1, 2, 3])
            # Unknown model keys are rejected parent-side before dispatch.
            with pytest.raises(KeyError):
                backend.predict("missing-key", stack[:2])
            # Same worker still serves afterwards (no respawn needed).
            assert backend.predict("m", stack[:2]).shape[0] == 2
            assert backend._workers[0].process.pid == pid
