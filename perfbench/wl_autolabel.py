"""Workload ``autolabel``: repeated sparklite auto-label jobs on two worker processes.

The paper's Table II path: ``run_mapreduce_autolabel(executor="processes",
parallelism=2)`` with the cloud filter on, over 256-px tiles (the paper's
tile size) cut from synthetic scenes, half of them cloudy.  The cloud
filter, HSV segmentation and the map-reduce driver do the work; no neural
network code runs.  One operation is one job over the whole tile stack.
"""

from __future__ import annotations

import importlib
import os
import time

import numpy as np

from . import inputs
from .core import NO_TRACE, Outcome, PeakMemory, iqm, log, median

TILE = 256
SCENES = 4
SCENE_SIZE = 512
WORKERS = 2
SETUP_REPS = 3
#: tiles in the job run at set-up (forks the pool and runs the UDF once)
WARM_TILES = 2


def _job(run_job, stack):
    return run_job(stack, executor="processes", parallelism=WORKERS)


def _loop(run_job, stack, ref, seconds, out: Outcome, tracer=NO_TRACE) -> tuple[list, list, list]:
    """Run jobs for ``seconds``; returns per-job wall, load and reduce seconds."""
    walls, loads, reduces = [], [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        op = f"job-{len(walls)}"
        t0 = time.perf_counter()
        with tracer.span("autolabel.job", op=op):
            result = _job(run_job, stack)
        walls.append(time.perf_counter() - t0)
        loads.append(result.timings.load_time)
        reduces.append(result.timings.reduce_time)
        out.attempted += 1
        out.check(np.array_equal(result.labels, ref), f"autolabel {op}: labels differ from serial autolabel_batch")
    out.info["mapreduce.partitions"] = result.num_partitions
    return walls, loads, reduces


def run(root: str, seed: int, seconds: float, tracer) -> Outcome:
    out = Outcome()
    t0 = time.perf_counter()
    job_mod = importlib.import_module("repro.mapreduce.autolabel_job")
    labeling = importlib.import_module("repro.labeling.autolabel")
    import_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    stack = inputs.tiles(seed, SCENES, SCENE_SIZE, TILE)
    ref = labeling.autolabel_batch(stack, apply_cloud_filter=True)
    out.info["input_gen_s"] = time.perf_counter() - t0
    mpx = stack.shape[0] * TILE * TILE / 1e6
    log(f"autolabel: {stack.shape[0]} tiles of {TILE}px ({mpx:.3f} Mpx) per job")

    run_job = job_mod.run_mapreduce_autolabel
    with PeakMemory(os.getpid()) as mem:
        setups = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            _job(run_job, stack[:WARM_TILES])
            setups.append(time.perf_counter() - t0)
        run_s = seconds / 2 if tracer.enabled else seconds
        walls, loads, reduces = _loop(run_job, stack, ref, run_s, out)
        if tracer.enabled:
            _traced(out, tracer, run_job, labeling, stack, ref, run_s, walls, mpx)

    job_s = iqm(walls)
    out.end_to_end = {
        "setup_s": import_s + median(setups),
        "peak_rss_mb": mem.peak_mb,
        "mpx_s": mpx / job_s,
        "op_ms": job_s * 1e3,
    }
    out.info.update({
        "autolabel_mpx_s": mpx / job_s,
        "jobs": len(walls),
        "job_ms": " ".join(f"{w * 1e3:.0f}" for w in walls),
        "import_s": import_s,
        "mapreduce.load_s": median(loads),
        "mapreduce.reduce_s": median(reduces),
    })
    return out


def _traced(out, tracer, run_job, labeling, stack, ref, run_s, untraced_walls, mpx) -> None:
    dataset = importlib.import_module("repro.mapreduce.dataset")
    cloudshadow = importlib.import_module("repro.cloudshadow")

    # Driver-side spans around the job's public phases.
    tracer.wrap(dataset.SparkLiteContext, "read_image_stack", "mapreduce.load")
    tracer.wrap(dataset.Dataset, "collect", "mapreduce.reduce")
    walls, loads, reduces = _loop(run_job, stack, ref, run_s, out, tracer)
    tracer.unwrap_all()

    # The UDF runs in forked executors, whose spans cannot reach this
    # process, so the per-tile layers are traced in one serial pass here.
    tracer.wrap(cloudshadow.CloudShadowFilter, "filter_image", "cloudshadow.filter")
    tracer.wrap(labeling, "rgb_to_hsv", "imops.rgb_to_hsv")
    tracer.wrap(labeling.ColorSegmentationLabeler, "segment", "labeling.segment")
    with tracer.span("autolabel.serial_pass", op="serial"):
        t0 = time.perf_counter()
        serial = labeling.autolabel_batch(stack, apply_cloud_filter=True)
        serial_s = time.perf_counter() - t0
    tracer.unwrap_all()
    out.check(np.array_equal(serial, ref), "autolabel serial traced pass: labels differ")

    self_ms = tracer.self_ms_by_name()
    out.per_layer.update({
        "cloudshadow.filter_ms_per_mpx": self_ms.get("cloudshadow.filter", 0.0) / mpx,
        "imops.rgb_to_hsv_ms_per_mpx": self_ms.get("imops.rgb_to_hsv", 0.0) / mpx,
        "labeling.segment_ms_per_mpx": self_ms.get("labeling.segment", 0.0) / mpx,
        "mapreduce.load_s": median(loads),
        "mapreduce.reduce_s": median(reduces),
        "mapreduce.partitions": float(out.info.get("mapreduce.partitions", 0)),
        "mapreduce.bytes_moved": float(stack.nbytes + ref.nbytes),
        "mapreduce.parallel_efficiency": serial_s / (WORKERS * median(reduces)),
        "trace.overhead_frac": iqm(walls) / iqm(untraced_walls) - 1.0,
    })
