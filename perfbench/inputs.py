"""Seeded input synthesis shared by the workloads.

Inputs come from the program's own scene synthesizer, driven by the
benchmark seed.  Cloud cover alternates between a cloudy and a clear scene,
so every workload sees about half cloudy input whatever the seed (the
program's ``synthesize_scenes`` draws cloudiness at random, which would let
the seed change how much filtering a run does).
"""

from __future__ import annotations

import numpy as np


def scenes(seed: int, count: int, height: int, width: int) -> list:
    """``count`` synthetic scenes; even indices cloudy, odd ones nearly clear."""
    from repro.data import SceneSpec, synthesize_scene

    rng = np.random.default_rng(seed)
    out = []
    for index in range(count):
        cloudy = index % 2 == 0
        thick = float(rng.uniform(0.35, 0.65))
        thin = float(rng.uniform(0.15, min(0.45, 0.95 - thick)))
        spec = SceneSpec(
            height=height,
            width=width,
            class_fractions=(thick, thin, max(0.05, 1.0 - thick - thin)),
            cloud_coverage=float(rng.uniform(0.2, 0.5)) if cloudy else float(rng.uniform(0.0, 0.04)),
            cloud_max_opacity=float(rng.uniform(0.45, 0.68)) if cloudy else 0.25,
            shadow_max_opacity=float(rng.uniform(0.4, 0.62)) if cloudy else 0.2,
            seed=int(rng.integers(0, 2**31 - 1)),
        )
        out.append(synthesize_scene(spec))
    return out


def tiles(seed: int, count: int, scene_size: int, tile_size: int) -> np.ndarray:
    """``(N, tile, tile, 3)`` uint8 tiles cut from ``count`` square scenes."""
    from repro.imops.resize import split_into_tiles

    return np.concatenate([split_into_tiles(s.rgb, tile_size)[0]
                           for s in scenes(seed, count, scene_size, scene_size)])
