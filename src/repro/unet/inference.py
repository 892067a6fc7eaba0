"""U-Net scene-inference engine (paper §III-C.2, Figure 9).

A trained model classifies new Sentinel-2 scenes by: splitting the big scene
into 256×256 tiles (optionally with overlapping margins), optionally running
the thin-cloud/shadow filter on each tile, predicting per-pixel class
probabilities in batches — optionally fanned out through an execution
backend (:mod:`repro.backend`): ``thread`` workers share the classifier's
compiled plans directly, ``fork`` workers attach to a shared-memory copy of
the weights — and stitching the per-tile probability maps back into a
full-scene classification map.  Overlapping tiles are blend-averaged before
the final argmax, which removes the seam artifacts of hard tile boundaries.
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass, field, fields

import numpy as np

from ..backend.base import Backend, make_backend, resolve_backend_name
from ..classes import NUM_CLASSES
from ..reliability import Deadline, fault_point
from ..cloudshadow import CloudShadowFilter
from ..data.loader import image_to_tensor
from ..imops.resize import assemble_from_tiles, split_into_tiles
from .compiled import CompiledUNet
from .model import UNet

__all__ = [
    "InferenceConfig",
    "SceneClassifier",
    "predict_batch_probabilities",
]


@dataclass(frozen=True)
class InferenceConfig:
    """Options of the scene-inference pipeline.

    ``overlap`` is the number of pixels neighbouring tiles share; overlapped
    probability maps are blend-averaged at reassembly.  ``backend`` selects
    the execution backend prediction batches dispatch through —
    ``"serial"``, ``"thread"``, ``"fork"`` or ``"auto"`` (the default, which
    honours ``REPRO_BACKEND`` and otherwise forks when ``num_workers > 1``
    and the platform supports it).  ``num_workers`` sizes the worker pool
    and — kept as a deprecated alias of the pre-backend API — still turns
    fan-out on by itself under ``backend="auto"``.  Forward passes run
    through per-shape compiled plans executing into a preallocated workspace
    arena (:mod:`repro.nn.plan`); ``plan_cache_size`` bounds how many input
    shapes stay compiled (LRU).
    """

    tile_size: int = 256
    overlap: int = 0
    apply_cloud_filter: bool = True
    batch_size: int = 8
    num_workers: int = 1
    plan_cache_size: int = 8
    backend: str = "auto"

    def __post_init__(self) -> None:
        if self.tile_size < 1:
            raise ValueError("tile_size must be >= 1")
        if not 0 <= self.overlap < self.tile_size:
            raise ValueError("overlap must satisfy 0 <= overlap < tile_size")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.plan_cache_size < 1:
            raise ValueError("plan_cache_size must be >= 1")
        if self.backend != "auto":
            # Validate eagerly (and reject e.g. fork on fork-less platforms)
            # so a bad backend fails at config time, not inside a worker.
            resolve_backend_name(self.backend, self.num_workers)

    def resolved_backend(self) -> str:
        """The concrete backend name this config dispatches through."""
        return resolve_backend_name(self.backend, self.num_workers)

    def to_dict(self) -> dict:
        """JSON-safe dict of every option (inverse of :meth:`from_dict`)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "InferenceConfig":
        """Build a config from a (JSON-loaded) dict, rejecting unknown keys.

        Values must already have their field's type: ``"false"`` is not a
        bool and ``32.9`` is not an int.  ``compile_plans``, written by
        archives published before compiled plans became the only runtime,
        is accepted and ignored with a :class:`DeprecationWarning`.
        """
        if not isinstance(data, dict):
            raise ValueError(f"expected a dict of InferenceConfig options, got {type(data).__name__}")
        data = dict(data)
        if "compile_plans" in data:
            data.pop("compile_plans")
            warnings.warn(
                "InferenceConfig key 'compile_plans' is ignored: inference always runs compiled plans",
                DeprecationWarning, stacklevel=2,
            )
        defaults = {f.name: f.default for f in fields(cls)}
        unknown = sorted(set(data) - set(defaults))
        if unknown:
            raise ValueError(
                f"unknown InferenceConfig keys {unknown}; valid keys are {sorted(defaults)}"
            )
        kwargs = {}
        for key, value in data.items():
            kind = type(defaults[key])
            if kind is bool:
                if not isinstance(value, bool):
                    raise ValueError(f"InferenceConfig key {key!r} must be a bool, got {value!r}")
            elif kind is int:
                integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
                if isinstance(value, bool) or not integral:
                    raise ValueError(f"InferenceConfig key {key!r} must be an integer, got {value!r}")
                value = int(value)
            else:
                value = str(value)
            kwargs[key] = value
        return cls(**kwargs)


#: The store key scene-inference backends publish the model under.
_SCENE_MODEL_KEY = "scene-model"


def _validate_stack(tiles: np.ndarray) -> np.ndarray:
    stack = np.asarray(tiles)
    if stack.ndim != 4 or stack.shape[-1] != 3:
        raise ValueError(f"expected (N, H, W, 3) tile stack, got shape {stack.shape}")
    return stack


def _num_classes_of(model) -> int:
    config = getattr(model, "config", None)
    return int(getattr(config, "num_classes", NUM_CLASSES))


def _model_input_multiple(model) -> int:
    """Spatial divisor the model's forward pass requires (1 when unconstrained)."""
    config = getattr(model, "config", None)
    min_input_size = getattr(config, "min_input_size", None)
    if callable(min_input_size):
        return max(1, int(min_input_size()))
    return 1


def _pad_stack_to_multiple(stack: np.ndarray, multiple: int) -> np.ndarray:
    """Reflect-pad the bottom/right of every tile in an ``(N, H, W, C)`` stack
    so H and W are multiples of ``multiple`` (edge padding per axis when the
    tile is too small to reflect, matching :func:`repro.imops.resize.pad_to_multiple`)."""
    n, h, w = stack.shape[:3]
    pad_h, pad_w = (-h) % multiple, (-w) % multiple
    if pad_h == 0 and pad_w == 0:
        return stack
    out = stack
    if pad_h:
        spec = [(0, 0), (0, pad_h)] + [(0, 0)] * (out.ndim - 2)
        out = np.pad(out, spec, mode="reflect" if pad_h <= h - 1 else "edge")
    if pad_w:
        spec = [(0, 0), (0, 0), (0, pad_w)] + [(0, 0)] * (out.ndim - 3)
        out = np.pad(out, spec, mode="reflect" if pad_w <= w - 1 else "edge")
    return out


def predict_batch_probabilities(
    batch: np.ndarray,
    model: UNet | None = None,
    cloud_filter: CloudShadowFilter | None = None,
    engine: CompiledUNet | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Probability maps ``(N, K, H, W)`` for one ``(N, H, W, 3)`` tile batch.

    This is the single batchable prediction seam every consumer shares: the
    in-process loop, every execution backend's workers (serial and thread
    entries as well as fork workers attached to the shared-memory model
    store), and the serving micro-batcher — which is what makes the
    backends bit-identical by construction.  Tiles whose spatial size the
    model cannot ingest (not a multiple of ``config.min_input_size()``) are
    reflect-padded bottom/right before the forward pass and the probability
    maps cropped back, so small scenes and 1-pixel remainder bands classify
    cleanly.

    With ``engine`` (a :class:`~repro.unet.compiled.CompiledUNet` wrapping
    the same model) the forward pass runs through the per-shape compiled
    plan — the runtime every classifier and backend uses.  Without it the
    model's generic eval forward runs: the parity reference, and the path
    of models that cannot be compiled (non-:class:`UNet` stubs).  ``out``
    routes the result into a caller-provided ``(N, K, H, W)`` float32
    buffer (e.g. a shared-memory output arena); when no padding is needed
    the compiled plan softmaxes directly into it.
    """
    fault_point("slow_predict")  # chaos knob: every consumer funnels through here
    if engine is not None and model is None:
        model = engine.model
    if model is None:
        raise ValueError("predict_batch_probabilities requires a model or an engine")
    if cloud_filter is not None:
        batch = cloud_filter.apply_batch(batch)
    h, w = batch.shape[1:3]
    padded = _pad_stack_to_multiple(batch, _model_input_multiple(model))
    tensor = image_to_tensor(padded)
    if engine is not None:
        if out is not None and padded.shape[1] == h and padded.shape[2] == w:
            engine.predict_proba(tensor, out=out)
            return out
        probs = engine.predict_proba(tensor)
    else:
        probs = model.predict_proba(tensor)
    probs = probs.astype(np.float32, copy=False)
    result = probs[:, :, :h, :w]
    if out is not None:
        out[...] = result
        return out
    return result


@dataclass
class SceneClassifier:
    """Whole-scene inference engine (tile → filter → batched predict → blend-stitch).

    The classifier owns a :class:`~repro.unet.compiled.CompiledUNet`: every
    distinct batch shape it predicts is compiled once into an arena-backed
    plan and re-run allocation-free afterwards.  Plans snapshot weights — call
    :meth:`invalidate_plans` if the wrapped model is trained further.
    """

    model: UNet
    config: InferenceConfig = field(default_factory=InferenceConfig)
    cloud_filter: CloudShadowFilter = field(default_factory=CloudShadowFilter)
    _engine: CompiledUNet | None = field(default=None, init=False, repr=False, compare=False)
    _backend: Backend | None = field(default=None, init=False, repr=False, compare=False)
    _backend_ready: bool = field(default=False, init=False, repr=False, compare=False)
    _finalizer: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.model, UNet):
            self._engine = CompiledUNet(self.model, max_plans=self.config.plan_cache_size)

    # ------------------------------------------------------------------ #
    @property
    def engine(self) -> CompiledUNet | None:
        """The compiled-plan engine (``None`` only for non-:class:`UNet` models)."""
        return self._engine

    @property
    def backend(self) -> Backend | None:
        """The classifier's persistent execution backend (lazily created).

        ``None`` when the config resolves to in-process execution (the
        ``serial`` backend, or a model the backend store cannot publish).
        """
        if not self._backend_ready:
            self._backend_ready = True
            resolved = self.config.resolved_backend()
            if resolved != "serial" and isinstance(self.model, UNet):
                backend = make_backend(resolved, num_workers=self.config.num_workers)
                backend.start()
                self._publish(backend)
                self._backend = backend
                self._finalizer = weakref.finalize(self, backend.close)
        return self._backend

    def _publish(self, backend: Backend) -> None:
        filt = self.cloud_filter if self.config.apply_cloud_filter else None
        backend.publish_model(
            _SCENE_MODEL_KEY, self.model, filt,
            engine=self._engine,
            plan_cache_size=self.config.plan_cache_size,
        )

    def close(self) -> None:
        """Shut the persistent backend down (safe to call repeatedly)."""
        if self._backend is not None:
            self._backend.close()
            self._backend = None
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        self._backend_ready = False

    def __enter__(self) -> "SceneClassifier":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def warm_plans(self, batch_sizes: tuple[int, ...] = (1,)) -> None:
        """Pre-compile plans for the configured tile shape at ``batch_sizes``.

        Uses the shape the prediction seam would actually run: the tile size
        rounded up to the model's input multiple.
        """
        if self._engine is None:
            return
        multiple = _model_input_multiple(self.model)
        t = -(-self.config.tile_size // multiple) * multiple
        for n in batch_sizes:
            self._engine.warm((int(n), self.model.config.in_channels, t, t))

    def invalidate_plans(self) -> None:
        """Drop compiled plans (call after mutating the model's weights).

        A live backend gets the new weights republished — fork workers hold
        read-only views of the *published* copy, so a republish (not just a
        cache clear) is what propagates trained weights to them.
        """
        if self._engine is not None:
            self._engine.clear()
        if self._backend is not None:
            self._publish(self._backend)

    def plan_cache_info(self) -> dict | None:
        return None if self._engine is None else self._engine.cache_info()

    # ------------------------------------------------------------------ #
    def classify_scene_proba(self, scene_rgb: np.ndarray) -> np.ndarray:
        """Per-pixel class probabilities ``(H, W, K)`` of a full ``(H, W, 3)`` scene.

        Overlapping tile regions are blend-averaged (see
        :func:`repro.imops.resize.blend_window`) before any argmax, so seams
        between tiles cross-fade instead of switching abruptly.
        """
        scene = np.asarray(scene_rgb)
        if scene.ndim != 3 or scene.shape[-1] != 3:
            raise ValueError(f"expected (H, W, 3) scene, got shape {scene.shape}")
        cfg = self.config
        tiles, grid = split_into_tiles(scene, tile_size=cfg.tile_size, overlap=cfg.overlap)
        probs = self._predict_stack(tiles)
        prob_tiles = np.moveaxis(probs, 1, -1)  # (N, h, w, K)
        return np.asarray(assemble_from_tiles(prob_tiles, grid))

    def _predict_stack(self, tiles: np.ndarray) -> np.ndarray:
        """Dispatch a tile stack through the persistent backend (or in-process).

        An empty stack returns a correctly-shaped empty array.
        """
        stack = _validate_stack(tiles)
        n, h, w = stack.shape[:3]
        if n == 0:
            return np.zeros((0, _num_classes_of(self.model), h, w), dtype=np.float32)
        batch_size = self.config.batch_size
        backend = self.backend
        if backend is not None:
            # copy=False: the stack result is consumed (stitched or
            # argmax-reduced) before the next dispatch, so the fork
            # backend may hand back its shared output arena directly.
            return backend.predict_stack(_SCENE_MODEL_KEY, stack, batch_size, copy=False)
        filt = self.cloud_filter if self.config.apply_cloud_filter else None
        return np.concatenate([
            predict_batch_probabilities(stack[start : start + batch_size], self.model, filt,
                                        self._engine)
            for start in range(0, n, batch_size)
        ], axis=0)

    def classify_scene(self, scene_rgb: np.ndarray) -> np.ndarray:
        """Return the per-pixel class map of a full ``(H, W, 3)`` scene."""
        return self.classify_scene_proba(scene_rgb).argmax(axis=-1).astype(np.uint8)

    def classify_tiles(self, tiles: np.ndarray) -> np.ndarray:
        """Classify an already-tiled stack (honours ``config.backend``)."""
        return self._predict_stack(tiles).argmax(axis=1).astype(np.uint8)

    def predict_batch(self, batch: np.ndarray, deadline: Deadline | None = None) -> np.ndarray:
        """One batched prediction ``(N, H, W, 3) → (N, K, H, W)`` through the
        classifier's filter and compiled-plan engine — the seam the serving
        micro-batcher binds to.  With a non-serial config the batch is routed
        to the classifier's backend workers (same seam, bit-identical).
        ``deadline`` propagates into the backend dispatch, which drops
        expired work before computing."""
        backend = self.backend
        if backend is not None:
            return backend.predict(_SCENE_MODEL_KEY, np.asarray(batch), deadline=deadline)
        if deadline is not None:
            deadline.check("predict_batch")
        filt = self.cloud_filter if self.config.apply_cloud_filter else None
        return predict_batch_probabilities(batch, self.model, filt, engine=self._engine)
