"""Tests for repro.parallel (process-pool map, auto-label runner)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel import (
    AutoLabelRunConfig,
    autolabel_scaling_table,
    available_cpu_count,
    default_chunk_size,
    measure_scaling,
    parallel_map,
    run_parallel_autolabel,
    serial_map,
)


def square(x):
    return x * x


def double_array(a):
    return a * 2


class TestChunking:
    def test_available_cpu_count_positive(self):
        assert available_cpu_count() >= 1

    def test_default_chunk_size_bounds(self):
        assert default_chunk_size(0, 4) == 1
        assert default_chunk_size(100, 4) >= 1
        assert default_chunk_size(3, 8) == 1

    def test_default_chunk_size_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            default_chunk_size(10, 0)


class TestParallelMap:
    def test_serial_map_reference(self):
        assert serial_map(square, [1, 2, 3]) == [1, 4, 9]

    def test_single_worker_matches_serial(self):
        result = parallel_map(square, list(range(20)), num_workers=1)
        assert result.results == [square(i) for i in range(20)]
        assert result.num_workers == 1

    def test_multiworker_preserves_order_and_values(self):
        items = list(range(37))
        result = parallel_map(square, items, num_workers=2, chunk_size=5)
        assert result.results == [square(i) for i in items]
        assert result.num_workers == 2

    def test_works_on_arrays(self):
        arrays = [np.full((4, 4), i) for i in range(8)]
        result = parallel_map(double_array, arrays, num_workers=2)
        for i, out in enumerate(result.results):
            np.testing.assert_array_equal(out, arrays[i] * 2)

    def test_empty_input(self):
        result = parallel_map(square, [], num_workers=2)
        assert result.results == []

    def test_short_circuit_reports_what_ran(self):
        """When the serial fallback kicks in, the result must report the one
        in-process worker and single chunk that actually ran, not the
        requested worker count / computed chunk size."""
        result = parallel_map(square, [3], num_workers=4)
        assert result.results == [9]
        assert result.num_workers == 1
        assert result.chunk_size == 1

        result = parallel_map(square, [], num_workers=4, chunk_size=7)
        assert result.num_workers == 1
        assert result.chunk_size == 1

        result = parallel_map(square, list(range(10)), num_workers=1, chunk_size=3)
        assert result.num_workers == 1
        assert result.chunk_size == 10  # one serial pass over all items

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            parallel_map(square, [1], num_workers=0)

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            parallel_map(square, [1, 2], num_workers=2, chunk_size=0)

    def test_measure_scaling_rows(self):
        measurements = measure_scaling(square, list(range(50)), worker_counts=(1, 2))
        assert [m.num_workers for m in measurements] == [1, 2]
        for m in measurements:
            assert m.results == [square(i) for i in range(50)]
            assert m.elapsed > 0


class TestAutoLabelRunner:
    def test_parallel_matches_serial_labels(self, tiny_dataset):
        tiles = tiny_dataset.images[:4]
        serial_labels, _ = run_parallel_autolabel(tiles, AutoLabelRunConfig(num_workers=1))
        parallel_labels, _ = run_parallel_autolabel(tiles, AutoLabelRunConfig(num_workers=2))
        np.testing.assert_array_equal(serial_labels, parallel_labels)

    def test_output_shape(self, tiny_dataset):
        labels, elapsed = run_parallel_autolabel(tiny_dataset.images[:2], AutoLabelRunConfig(num_workers=1))
        assert labels.shape == (2, 32, 32)
        assert elapsed > 0

    def test_rejects_bad_stack(self, tiny_dataset):
        with pytest.raises(ValueError):
            run_parallel_autolabel(tiny_dataset.labels, AutoLabelRunConfig())

    def test_scaling_table_structure(self, tiny_dataset):
        table = autolabel_scaling_table(tiny_dataset.images[:4], worker_counts=(1, 2))
        rows = table.rows()
        assert len(rows) == 2
        assert rows[0]["workers"] == 1 and rows[0]["speedup"] == 1.0
        assert all("items_per_s" in r for r in rows)
