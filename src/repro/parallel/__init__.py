"""Single-machine parallelism: process-pool map and scaling harness."""

from .autolabel_runner import AutoLabelRunConfig, autolabel_scaling_table, run_parallel_autolabel
from .pool import (
    ParallelMapResult,
    available_cpu_count,
    default_chunk_size,
    measure_scaling,
    parallel_map,
    serial_map,
)

__all__ = [
    "AutoLabelRunConfig",
    "autolabel_scaling_table",
    "run_parallel_autolabel",
    "ParallelMapResult",
    "available_cpu_count",
    "default_chunk_size",
    "measure_scaling",
    "parallel_map",
    "serial_map",
]
