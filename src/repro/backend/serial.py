"""The in-process reference backend: no workers, no copies, no surprises."""

from __future__ import annotations

import time
from typing import Callable, Sequence

import numpy as np

from ..reliability import Deadline
from .base import Backend, LocalModelEntry, ModelHandle, record_compute

__all__ = ["SerialBackend"]


class SerialBackend(Backend):
    """Runs every task inline in the calling thread.

    The behavioural reference the other backends are tested bit-identical
    against, and the fallback when fan-out is unavailable or pointless
    (``num_workers == 1``).
    """

    name = "serial"

    def __init__(self) -> None:
        super().__init__(num_workers=1)
        self._models: dict[object, LocalModelEntry] = {}

    def map(self, fn: Callable, items: Sequence, chunk_size: int | None = None) -> list:
        self._ensure_open()
        results = [fn(item) for item in items]
        self._count_task(len(results))
        return results

    def publish_model(self, key, model, cloud_filter=None, *, engine=None,
                      plan_cache_size: int = 8, warm_shapes: Sequence[tuple[int, ...]] = ()) -> ModelHandle:
        self._ensure_open()
        entry = LocalModelEntry(key, model, cloud_filter, engine, plan_cache_size, warm_shapes)
        self._models[key] = entry
        return entry.handle

    def release_model(self, key) -> None:
        self._models.pop(key, None)

    def has_model(self, key) -> bool:
        return key in self._models

    def predict(self, key, batch: np.ndarray, deadline: Deadline | None = None) -> np.ndarray:
        self._ensure_open()
        if deadline is not None:
            deadline.check("backend predict")
        self._count_task()
        start = time.perf_counter()
        result = self._models[key].predict(batch)
        record_compute(self.name, (time.perf_counter() - start) * 1e3)
        return result

    def _close(self) -> None:
        self._models.clear()

    def _model_keys(self) -> list:
        return list(self._models)
