"""Workload ``scene``: one persistent fork-backend ``SceneClassifier`` classifies a series of scenes.

Two fork workers, a depth-3 / 16-channel U-Net, 256-px tiles with a 32-px
overlap, batches of 4 and the cloud filter on.  Compiled-plan steps,
``backend.predict_stack`` and overlap blending dominate; there is no wire.
It shares the cloud filter with ``autolabel`` but runs it per batch inside
the workers.  Scenes are 480 x 928 px: with that overlap they cut into
exactly two batches of four tiles, one per worker, so every batch runs the
same compiled plan shape.  One operation is one scene.
"""

from __future__ import annotations

import importlib
import os
import time

import numpy as np

from . import inputs
from .core import NO_TRACE, Outcome, PeakMemory, iqm, log, median

SCENE_H, SCENE_W = 480, 928
TILE = 256
OVERLAP = 32
BATCH = 4
WORKERS = 2
DEPTH, CHANNELS = 3, 16
#: distinct scenes, alternately cloudy and clear, classified in turn
SCENES = 2
SETUP_REPS = 2
STEP_KINDS = {"ConvStep": "conv", "MaxPoolStep": "maxpool", "UpsamplePadStep": "upsample",
              "PadCopyStep": "pad", "SoftmaxStep": "softmax"}


def conv_flops_per_tile(model, tile: int) -> int:
    """Exact multiply-add FLOPs (2 per MAC) of every convolution for one ``tile`` x ``tile`` input.

    Walks the U-Net in plan order: encoder level ``e`` runs at ``tile >> e``,
    the bottleneck at ``tile >> depth``, decoder ``j`` at level
    ``depth - 1 - j`` and the head at full size.
    """
    depth = model.config.depth

    def conv(c, size: int) -> int:
        out = (size + 2 * c.padding - c.kernel_size) // c.stride + 1
        return 2 * c.out_channels * c.in_channels * c.kernel_size ** 2 * out * out

    total = 0
    for e, enc in enumerate(model.encoders):
        total += conv(enc.conv.conv1, tile >> e) + conv(enc.conv.conv2, tile >> e)
    total += conv(model.bottleneck.conv1, tile >> depth) + conv(model.bottleneck.conv2, tile >> depth)
    for j, dec in enumerate(model.decoders):
        size = tile >> (depth - 1 - j)
        total += conv(dec.upconv.conv, size) + conv(dec.conv.conv1, size) + conv(dec.conv.conv2, size)
    return total + conv(model.head, tile)


def run(root: str, seed: int, seconds: float, tracer) -> Outcome:
    out = Outcome()
    t0 = time.perf_counter()
    unet = importlib.import_module("repro.unet")
    import_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    scenes = [s.rgb for s in inputs.scenes(seed, SCENES, SCENE_H, SCENE_W)]
    model = unet.UNet(unet.UNetConfig(depth=DEPTH, base_channels=CHANNELS, seed=seed))
    model.eval()
    config = unet.InferenceConfig(tile_size=TILE, overlap=OVERLAP, batch_size=BATCH,
                                  num_workers=WORKERS, backend="fork")
    serial_config = unet.InferenceConfig(tile_size=TILE, overlap=OVERLAP, batch_size=BATCH,
                                         backend="serial")
    refs = _references(unet.SceneClassifier(model=model, config=serial_config), scenes)
    split = importlib.import_module("repro.imops.resize").split_into_tiles
    warm_tiles, _grid = split(scenes[0], tile_size=TILE, overlap=OVERLAP)
    out.info["input_gen_s"] = time.perf_counter() - t0
    mpx = SCENE_H * SCENE_W / 1e6
    log(f"scene: {SCENES} scenes of {SCENE_H}x{SCENE_W} ({warm_tiles.shape[0]} tiles each)")

    with PeakMemory(os.getpid()) as mem:
        setups, classifier = [], None
        try:
            for _ in range(SETUP_REPS):
                if classifier is not None:
                    classifier.close()
                t0 = time.perf_counter()
                classifier = unet.SceneClassifier(model=model, config=config)
                _ = classifier.backend  # forks the workers and publishes the model
                classifier.classify_tiles(warm_tiles)  # first plan compile in each worker
                setups.append(time.perf_counter() - t0)
            run_s = seconds / 2 if tracer.enabled else seconds
            walls = _loop(classifier, scenes, refs, run_s, out)
            if tracer.enabled:
                _traced(out, tracer, classifier, scenes, refs, run_s, walls, warm_tiles)
        finally:
            if classifier is not None:
                classifier.close()

    scene_s = iqm(walls)
    out.end_to_end = {
        "setup_s": import_s + median(setups),
        "peak_rss_mb": mem.peak_mb,
        "mpx_s": mpx / scene_s,
        "op_ms": scene_s * 1e3,
    }
    out.info.update({"classify_mpx_s": mpx / scene_s, "scenes": len(walls), "import_s": import_s,
                     "scene_ms": " ".join(f"{w * 1e3:.0f}" for w in walls)})
    return out


def _references(reference, scenes) -> list:
    """Class maps from the serial backend; its plan arenas are freed before the timed phase."""
    with reference:
        refs = [reference.classify_scene(s) for s in scenes]
    reference.invalidate_plans()
    return refs


def _loop(classifier, scenes, refs, seconds, out: Outcome, tracer=NO_TRACE) -> list:
    walls = []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        i = len(walls) % len(scenes)
        t0 = time.perf_counter()
        with tracer.span("scene.classify", op=f"scene-{len(walls)}"):
            class_map = classifier.classify_scene(scenes[i])
        walls.append(time.perf_counter() - t0)
        out.attempted += 1
        out.check(np.array_equal(class_map, refs[i]),
                  f"scene {len(walls) - 1}: class map differs from the serial-backend reference")
    return walls


def _compute_hist(obs) -> dict:
    """Fork-worker compute time as merged into this process's ``repro_backend_compute_ms``."""
    hist = obs.get_registry().get("repro_backend_compute_ms")
    return hist.snapshot(backend="fork") if hist is not None else {"sum": 0.0, "count": 0}


def _traced(out, tracer, classifier, scenes, refs, run_s, untraced_walls, warm_tiles) -> None:
    inference = importlib.import_module("repro.unet.inference")
    obs = importlib.import_module("repro.obs")
    cloudshadow = importlib.import_module("repro.cloudshadow")
    backend = classifier.backend
    before = _compute_hist(obs)
    occ_before = backend.occupancy()

    tracer.wrap(inference, "split_into_tiles", "unet.tile_split")
    tracer.wrap(type(backend), "predict_stack", "backend.predict_stack")
    tracer.wrap(inference, "assemble_from_tiles", "unet.blend")
    t0 = time.perf_counter()
    walls = _loop(classifier, scenes, refs, run_s, out, tracer)
    phase_ms = (time.perf_counter() - t0) * 1e3
    tracer.unwrap_all()

    after = _compute_hist(obs)
    occ = backend.occupancy()
    dispatches = max(1, after["count"] - before["count"])
    compute_ms = after["sum"] - before["sum"]
    n = len(walls)

    def per_scene(name: str) -> float:
        return sum(s.duration for s in tracer.named(name)) * 1e3 / n

    # Plan steps and the cloud filter run inside the fork workers; trace
    # them in-process on the classifier's own compiled engine, one batch
    # shape as the workers run it.
    engine = classifier.engine
    filt = cloudshadow.CloudShadowFilter()
    engine.warm((BATCH, 3, TILE, TILE))
    engine.enable_profiling()
    tracer.wrap(cloudshadow.CloudShadowFilter, "filter_image", "cloudshadow.filter")
    batches = [warm_tiles[i:i + BATCH] for i in range(0, warm_tiles.shape[0], BATCH)]
    with tracer.span("scene.plan_pass", op="plan"):
        for batch in batches:
            inference.predict_batch_probabilities(batch, cloud_filter=filt, engine=engine)
    tracer.unwrap_all()
    steps = {kind: 0.0 for kind in STEP_KINDS.values()}
    runs = 0
    for _shape, info in engine.profile_info().items():
        runs = max(runs, max((cell["calls"] for cell in info), default=0))
        for cell in info:
            steps[STEP_KINDS.get(cell["step"], cell["step"])] += cell["total_ms"]
    runs = max(1, runs)
    arena = engine.cache_info()["arena_bytes"]
    engine.enable_profiling(False)
    engine.clear()
    flops = conv_flops_per_tile(classifier.model, TILE)
    filtered_mpx = len(batches) * BATCH * TILE * TILE / 1e6

    out.per_layer.update({
        "cloudshadow.filter_ms_per_mpx": sum(s.duration for s in tracer.named("cloudshadow.filter")) * 1e3 / filtered_mpx,
        "backend.predict_stack_ms": per_scene("backend.predict_stack"),
        "backend.compute_ms": compute_ms / dispatches,
        "backend.worker_busy_frac": compute_ms / (WORKERS * phase_ms),
        "backend.retries": float(occ.get("dispatch_retries", 0)),
        "backend.respawns": float(occ.get("respawns", 0)),
        "unet.tile_split_ms": per_scene("unet.tile_split"),
        "unet.blend_ms": per_scene("unet.blend"),
        **{f"plan.step_ms.{kind}": ms / runs for kind, ms in steps.items()},
        "plan.conv_gflop_s": flops * BATCH / (steps["conv"] / runs / 1e3) / 1e9 if steps["conv"] else 0.0,
        "plan.flops_per_tile": float(flops),
        "plan.arena_bytes": float(arena),
        "trace.overhead_frac": iqm(walls) / iqm(untraced_walls) - 1.0,
    })
    out.info.update({
        "caveat backend.compute_ms": "fork-worker compute reaches this process only through the merged "
                                     "repro_backend_compute_ms histogram: a mean per dispatch, not a span",
        "caveat plan.step_ms": "plan steps and the cloud filter are timed in-process on one batch, "
                               "not inside the contending workers",
        "backend.dispatches": dispatches,
        "backend.retries_during_trace": occ.get("dispatch_retries", 0) - occ_before.get("dispatch_retries", 0),
    })
