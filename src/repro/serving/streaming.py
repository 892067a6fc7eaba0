"""Streaming scene inference: classify scenes larger than memory.

:class:`~repro.unet.SceneClassifier` materialises the full tile stack, every
per-tile probability map and a scene-sized float64 blend accumulator at
once — fine for one 2048² scene, hopeless for a 40000-row Sentinel-2 strip.
:class:`StreamingSceneClassifier` produces the *same* classification (the
identical argmax map — the blend sums are accumulated in the same order, so
they are bit-identical) while holding only one tile-row band at a time:

* the scene is addressed through any row-sliceable object (``np.ndarray``,
  ``np.memmap``, an HDF5 dataset) and fetched one ``tile_size``-row slab at
  a time, with the reflect/edge padding of
  :func:`repro.imops.resize.split_into_tiles` reproduced locally from a few
  rows of context;
* each band is cut into the same overlapped tiles the whole-scene
  :class:`TileGrid` would produce and predicted in ``batch_size`` chunks
  through the shared seam (:func:`repro.unet.predict_batch_probabilities`),
  accumulating into a rolling ``tile_size``-row blend buffer instead of a
  scene-sized one;
* once no later tile can touch a row it is finalised (blend-normalised,
  argmax) and yielded, and the buffer slides down by one tile stride.

Peak working memory is therefore bounded by the scene *width* (times
``tile_size``), not its area; the measured high-water mark is exposed as
``peak_buffer_bytes``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..cloudshadow import CloudShadowFilter
from ..imops.resize import _pad_bottom_right, blend_window
from ..unet import CompiledUNet, InferenceConfig, UNet
from ..unet.inference import predict_batch_probabilities

__all__ = ["StreamingSceneClassifier"]


def _grid_axis(extent: int, tile: int, stride: int) -> int:
    """Tile count along one axis (same formula as :func:`split_into_tiles`)."""
    return 1 if extent <= tile else int(np.ceil((extent - tile) / stride)) + 1


@dataclass
class StreamingSceneClassifier:
    """Row-band streaming version of :class:`~repro.unet.SceneClassifier`.

    ``scene`` arguments only need ``.shape`` and integer row slicing
    (``scene[a:b]`` returning ``(b - a, W, 3)`` uint8 rows), so memory-mapped
    arrays stream straight from disk.
    """

    model: UNet
    config: InferenceConfig = field(default_factory=InferenceConfig)
    cloud_filter: CloudShadowFilter = field(default_factory=CloudShadowFilter)
    #: High-water mark of live per-band buffers during the last run (bytes).
    peak_buffer_bytes: int = field(default=0, init=False)
    _engine: CompiledUNet | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # One compiled engine for the whole stream: every band re-runs the
        # same (batch, tile, tile) shapes, so after the first band each
        # forward hits a warm arena-backed plan.
        if isinstance(self.model, UNet):
            self._engine = CompiledUNet(self.model, max_plans=self.config.plan_cache_size)

    # ------------------------------------------------------------------ #
    def iter_row_bands(self, scene) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(row_start, class_rows)`` in order; rows cover the scene exactly.

        ``class_rows`` is a finalised uint8 ``(n, W)`` block: one tile stride
        per overlapped band, a whole tile-row for disjoint grids, the
        remainder at the bottom edge.
        """
        shape = tuple(scene.shape)
        if len(shape) != 3 or shape[2] != 3:
            raise ValueError(f"expected a row-sliceable (H, W, 3) scene, got shape {shape}")
        h, w = int(shape[0]), int(shape[1])
        cfg = self.config
        t, overlap = cfg.tile_size, cfg.overlap
        stride = t - overlap
        rows_n = _grid_axis(h, t, stride)
        cols_n = _grid_axis(w, t, stride)
        padded_w = (cols_n - 1) * stride + t
        pad_w = padded_w - w
        filt = self.cloud_filter if cfg.apply_cloud_filter else None
        window = blend_window(t, overlap)[..., None] if overlap else None

        self.peak_buffer_bytes = 0
        acc: np.ndarray | None = None  # rolling (t, padded_w, K) blend accumulator
        wts: np.ndarray | None = None
        for r in range(rows_n):
            y0 = r * stride
            band = self._fetch_band(scene, y0, h, t, pad_w)
            band_peak = band.nbytes

            # Predict the band's tiles in batch-sized chunks, accumulating
            # (or stitching) as we go so at most one chunk of probability
            # maps is ever alive.
            emit_probs: np.ndarray | None = None  # disjoint path: (t, padded_w, K)
            for q0 in range(0, cols_n, cfg.batch_size):
                qs = range(q0, min(q0 + cfg.batch_size, cols_n))
                stack = np.stack([band[:, q * stride : q * stride + t] for q in qs])
                probs = predict_batch_probabilities(stack, self.model, filt, engine=self._engine)
                band_peak = max(band_peak, band.nbytes + stack.nbytes + probs.nbytes)
                k = probs.shape[1]
                if overlap:
                    if acc is None:
                        acc = np.zeros((t, padded_w, k), dtype=np.float64)
                        wts = np.zeros((t, padded_w, 1), dtype=np.float64)
                    for q, prob in zip(qs, probs):
                        x = q * stride
                        acc[:, x : x + t] += window * np.moveaxis(prob, 0, -1)
                        wts[:, x : x + t] += window
                else:
                    if emit_probs is None:
                        emit_probs = np.empty((t, padded_w, k), dtype=np.float32)
                    for q, prob in zip(qs, probs):
                        emit_probs[:, q * stride : q * stride + t] = np.moveaxis(prob, 0, -1)

            if overlap:
                band_peak += acc.nbytes + wts.nbytes
                last = r == rows_n - 1
                final_rows = (h - y0) if last else stride
                out = acc[:final_rows] / wts[:final_rows]
                yield y0, out.argmax(axis=-1).astype(np.uint8)[:, :w]
                if not last:
                    # Slide the accumulator down one stride: the top `overlap`
                    # rows of the next band were already part-accumulated.
                    acc[:overlap] = acc[stride:]
                    acc[overlap:] = 0.0
                    wts[:overlap] = wts[stride:]
                    wts[overlap:] = 0.0
            else:
                band_peak += emit_probs.nbytes
                final_rows = min(t, h - y0)
                yield y0, emit_probs[:final_rows].argmax(axis=-1).astype(np.uint8)[:, :w]
            self.peak_buffer_bytes = max(self.peak_buffer_bytes, band_peak)

    # ------------------------------------------------------------------ #
    def classify_scene(self, scene) -> np.ndarray:
        """Full uint8 class map, assembled from the streamed bands.

        Identical (bit-for-bit) to ``SceneClassifier.classify_scene`` with
        the same model and config — the streaming engine accumulates the
        blend sums in the same tile order.
        """
        h, w = int(scene.shape[0]), int(scene.shape[1])
        out = np.empty((h, w), dtype=np.uint8)
        return self.classify_to(scene, out)

    def classify_to(self, scene, out: np.ndarray) -> np.ndarray:
        """Stream the classification into a preallocated ``(H, W)`` uint8 array.

        Pass a ``np.memmap`` to keep the *output* off-heap too, making the
        whole pipeline larger-than-memory on both ends.
        """
        h, w = int(scene.shape[0]), int(scene.shape[1])
        if out.shape[:2] != (h, w):
            raise ValueError(f"output shape {out.shape} does not match scene rows {(h, w)}")
        for y0, rows in self.iter_row_bands(scene):
            out[y0 : y0 + rows.shape[0]] = rows
        return out

    # ------------------------------------------------------------------ #
    def _fetch_band(self, scene, y0: int, h: int, t: int, pad_w: int) -> np.ndarray:
        """Rows ``[y0, y0 + t)`` of the padded scene, fetched with just enough
        context that local reflect padding matches what padding the whole
        scene would have produced."""
        pad_h = max(0, y0 + t - h)
        # Reflect needs pad_h rows above the bottom edge; fetch back to there.
        a = min(y0, max(0, h - pad_h - 1))
        slab = np.asarray(scene[a : min(y0 + t, h)])
        if pad_h:
            slab = _pad_bottom_right(slab, pad_h, 0, "reflect")
        band = slab[y0 - a : y0 - a + t]
        if pad_w:
            band = _pad_bottom_right(band, 0, pad_w, "reflect")
        return np.ascontiguousarray(band)
