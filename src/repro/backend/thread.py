"""Thread-pool backend: shared-address-space fan-out without fork.

Threads see the parent's objects directly, so the "model store" is the same
in-process entry the serial backend uses — one model, one compiled-plan
cache, zero copies.  NumPy releases the GIL inside BLAS, so threads overlap
the GEMM-heavy convolution work; for pure-Python task functions this backend
mainly buys I/O overlap.  It is also the fork-less-platform answer to
"fan out without pickling the model".
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from ..reliability import Deadline
from .base import Backend, LocalModelEntry, ModelHandle, _default_chunk_size, record_compute

__all__ = ["ThreadBackend"]


class ThreadBackend(Backend):
    """Dispatches tasks onto a persistent :class:`ThreadPoolExecutor`."""

    name = "thread"

    def __init__(self, num_workers: int = 2) -> None:
        super().__init__(num_workers=num_workers)
        self._models: dict[object, LocalModelEntry] = {}
        self._pool: ThreadPoolExecutor | None = None
        self._busy = 0
        self._busy_lock = threading.Lock()

    def _start(self) -> None:
        self._pool = ThreadPoolExecutor(
            max_workers=self.num_workers, thread_name_prefix="repro-backend"
        )

    def _close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._models.clear()

    # ------------------------------------------------------------------ #
    def _run(self, fn, *args):
        with self._busy_lock:
            self._busy += 1
        try:
            return fn(*args)
        finally:
            with self._busy_lock:
                self._busy -= 1

    def map(self, fn: Callable, items: Sequence, chunk_size: int | None = None) -> list:
        self._ensure_open()
        items = list(items)
        if not items:
            return []
        if chunk_size is None:
            chunk_size = _default_chunk_size(len(items), self.num_workers)
        chunks = [items[i : i + chunk_size] for i in range(0, len(items), chunk_size)]
        self._count_task(len(chunks))

        def run_chunk(chunk):
            return self._run(lambda: [fn(item) for item in chunk])

        results = []
        for chunk_result in self._pool.map(run_chunk, chunks):
            results.extend(chunk_result)
        return results

    # ------------------------------------------------------------------ #
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
        entry = self._models[key]
        if deadline is not None:
            deadline.check("backend predict")
        self._count_task()

        # Time inside the pool thread (where the model runs), report from the
        # calling thread (where the request's trace collector lives).
        def timed():
            start = time.perf_counter()
            result = self._run(entry.predict, batch)
            return result, (time.perf_counter() - start) * 1e3

        result, compute_ms = self._pool.submit(timed).result()
        record_compute(self.name, compute_ms)
        return result

    def predict_stack(self, key, stack: np.ndarray, batch_size: int,
                      copy: bool = True, deadline: Deadline | None = None) -> np.ndarray:
        """Batches run concurrently on the pool; results keep stack order.

        Bit-identical to serial: each batch is the same
        ``predict_batch_probabilities`` call, and distinct batch shapes (the
        remainder batch) compile distinct plans, so concurrent runs never
        share mutable state beyond the plan lock.
        """
        self._ensure_open()
        entry = self._models[key]
        spans = [(start, min(start + batch_size, stack.shape[0]))
                 for start in range(0, stack.shape[0], batch_size)]
        self._count_task(len(spans))
        if deadline is not None:
            deadline.check("backend predict_stack")
        futures = [self._pool.submit(self._run, entry.predict, stack[a:b]) for a, b in spans]
        return np.concatenate([f.result() for f in futures], axis=0)

    def _busy_workers(self) -> int:
        with self._busy_lock:
            return self._busy

    def _model_keys(self) -> list:
        return list(self._models)
