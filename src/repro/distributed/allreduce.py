"""Analytic all-reduce traffic model: ring (Patarasuk & Yuan 2009) vs gather.

Horovod averages the workers' gradients after every batch with a
bandwidth-optimal ring all-reduce: each of the ``p`` workers splits its
buffer into ``p`` chunks; during ``p - 1`` *reduce-scatter* steps every
worker sends one chunk to its right neighbour and accumulates the chunk
arriving from its left neighbour, after which each worker holds one fully
reduced chunk; ``p - 1`` *all-gather* steps then circulate the reduced
chunks until every worker has the full result.  Total traffic per worker is
``2 (p-1)/p`` of the buffer size, independent of ``p`` — the property that
makes it bandwidth optimal.

:func:`ring_allreduce` runs exactly that chunked schedule in-process over a
list of per-worker arrays and :func:`naive_allreduce` the centralised
gather-broadcast baseline; both report their communication volume in
:class:`AllReduceStats`.  They back the paper's ring-vs-gather ablation and
the communication term of :class:`~repro.distributed.perfmodel.DGXTrainingModel`.
Actual multi-process training reduces gradients with
:class:`~repro.distributed.elastic.ElasticTrainer`'s fixed-order fold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["AllReduceStats", "ring_allreduce", "naive_allreduce"]


@dataclass
class AllReduceStats:
    """Accounting of one all-reduce invocation (used by the performance model)."""

    num_workers: int
    elements_per_worker: int
    communication_steps: int
    elements_sent_per_worker: int

    @property
    def traffic_fraction(self) -> float:
        """Per-worker traffic divided by buffer size (→ ``2 (p-1)/p`` for the ring)."""
        if self.elements_per_worker == 0:
            return 0.0
        return self.elements_sent_per_worker / self.elements_per_worker


def _check_buffers(buffers: list[np.ndarray]) -> list[np.ndarray]:
    if not buffers:
        raise ValueError("need at least one worker buffer")
    arrays = [np.asarray(b, dtype=np.float64) for b in buffers]
    shape = arrays[0].shape
    for a in arrays:
        if a.shape != shape:
            raise ValueError("all worker buffers must have the same shape")
    return arrays


def naive_allreduce(buffers: list[np.ndarray], average: bool = True) -> tuple[list[np.ndarray], AllReduceStats]:
    """Parameter-server-style all-reduce: gather everything to rank 0, then broadcast.

    Used as the correctness reference and as the baseline of the ablation
    bench (its per-worker traffic grows linearly with the worker count seen
    by the root, which is why Horovod avoids it).
    """
    arrays = _check_buffers(buffers)
    p = len(arrays)
    total = np.sum(arrays, axis=0)
    if average:
        total = total / p
    results = [total.copy() for _ in range(p)]
    stats = AllReduceStats(
        num_workers=p,
        elements_per_worker=int(arrays[0].size),
        communication_steps=2 * (p - 1),
        # Root receives (p-1) buffers and sends (p-1) buffers.
        elements_sent_per_worker=int(arrays[0].size) * (p - 1),
    )
    return results, stats


def ring_allreduce(buffers: list[np.ndarray], average: bool = True) -> tuple[list[np.ndarray], AllReduceStats]:
    """Bandwidth-optimal ring all-reduce over a list of equal-shaped arrays.

    Returns ``(reduced_buffers, stats)`` where every entry of
    ``reduced_buffers`` equals the element-wise sum (or mean) of the inputs.
    """
    arrays = _check_buffers(buffers)
    p = len(arrays)
    shape = arrays[0].shape
    size = arrays[0].size

    if p == 1:
        out = arrays[0].copy()
        return [out], AllReduceStats(1, int(size), 0, 0)

    # Work on flat copies; chunk boundaries follow np.array_split semantics.
    flats = [a.ravel().copy() for a in arrays]
    chunk_slices = []
    start = 0
    for chunk in np.array_split(np.arange(size), p):
        chunk_slices.append(slice(start, start + len(chunk)))
        start += len(chunk)

    elements_sent = 0

    # Phase 1: reduce-scatter.  At step s, worker r sends chunk (r - s) mod p
    # to worker (r + 1) mod p, which accumulates it.
    for step in range(p - 1):
        sends = []
        for rank in range(p):
            chunk_idx = (rank - step) % p
            sends.append((rank, chunk_idx, flats[rank][chunk_slices[chunk_idx]].copy()))
        for rank, chunk_idx, payload in sends:
            dest = (rank + 1) % p
            flats[dest][chunk_slices[chunk_idx]] += payload
            elements_sent += payload.size

    # Phase 2: all-gather.  Worker (r + 1) now owns the fully reduced chunk r;
    # circulate the reduced chunks around the ring.
    for step in range(p - 1):
        sends = []
        for rank in range(p):
            chunk_idx = (rank + 1 - step) % p
            sends.append((rank, chunk_idx, flats[rank][chunk_slices[chunk_idx]].copy()))
        for rank, chunk_idx, payload in sends:
            dest = (rank + 1) % p
            flats[dest][chunk_slices[chunk_idx]] = payload
            elements_sent += payload.size

    if average:
        for flat in flats:
            flat /= p

    results = [flat.reshape(shape) for flat in flats]
    stats = AllReduceStats(
        num_workers=p,
        elements_per_worker=int(size),
        communication_steps=2 * (p - 1),
        elements_sent_per_worker=int(round(elements_sent / p)),
    )
    return results, stats
