"""Tests for the recipe+machine-keyed HPC cache and golden vectors.

The HPC cache sits beside the characterization cache (same generation
recipe key, machine fingerprints + ``HPC_SIM_VERSION`` instead of the
config fingerprint).  These tests pin the key contract and that warm
dataset builds never run a pipeline model (via
:func:`repro.uarch.hpc_call_count`, the analogue of
``generation_call_count`` for generation), plus a golden-vector
regression over the eight-benchmark test population.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro.perf.cache as perf_cache
from repro.config import ReproConfig
from repro.experiments import build_dataset, clear_dataset_cache
from repro.experiments.dataset import _MEMORY_CACHE
from repro.perf import HpcCache, TraceRecipe, cached_collect_hpc
from repro.synth import WorkloadProfile, generate_trace
from repro.uarch import (
    EV56_CONFIG,
    EV67_CONFIG,
    collect_hpc,
    hpc_call_count,
)

SMALL_CONFIG = ReproConfig(trace_length=2_000)

GOLDEN_PATH = Path(__file__).parent / "data" / "hpc_golden.json"


@pytest.fixture(scope="module")
def small_recipe():
    return TraceRecipe(WorkloadProfile(name="hpc/cache/1"), 2_000)


class TestHpcCache:
    def test_hit_returns_identical_vector(self, small_recipe, tmp_path):
        cold = cached_collect_hpc(small_recipe, cache_dir=tmp_path)
        warm = cached_collect_hpc(small_recipe, cache_dir=tmp_path)
        assert np.array_equal(cold.values, warm.values)
        assert warm.name == small_recipe.name
        assert len(HpcCache(tmp_path)) == 1

    def test_hit_skips_the_pipeline_models(self, small_recipe, tmp_path):
        cached_collect_hpc(small_recipe, cache_dir=tmp_path)
        calls_before = hpc_call_count()
        cached_collect_hpc(small_recipe, cache_dir=tmp_path)
        assert hpc_call_count() == calls_before

    def test_distinct_trace_machine_version_miss(
        self, small_recipe, tmp_path
    ):
        cache = HpcCache(tmp_path)
        cached_collect_hpc(small_recipe, cache_dir=tmp_path)
        other_recipe = TraceRecipe(
            WorkloadProfile(name="hpc/cache/2"), 2_000
        )
        assert cache.load(other_recipe) is None
        slower = replace(
            EV56_CONFIG,
            latencies=replace(EV56_CONFIG.latencies, memory=300),
        )
        assert cache.load(small_recipe, inorder=slower) is None
        assert cache.load(small_recipe, ooo=replace(
            EV67_CONFIG, window_size=16
        )) is None
        assert cache.load(small_recipe) is not None

    def test_version_bump_invalidates(self, small_recipe, tmp_path,
                                      monkeypatch):
        cache = HpcCache(tmp_path)
        cached_collect_hpc(small_recipe, cache_dir=tmp_path)
        assert cache.load(small_recipe) is not None
        monkeypatch.setattr(
            perf_cache, "HPC_SIM_VERSION",
            perf_cache.HPC_SIM_VERSION + 1,
        )
        assert cache.load(small_recipe) is None

    def test_corrupt_entry_is_a_miss(self, small_recipe, tmp_path):
        cache = HpcCache(tmp_path)
        cached_collect_hpc(small_recipe, cache_dir=tmp_path)
        for path in tmp_path.glob("hpc-*.npz"):
            path.write_bytes(b"not an npz")
        assert cache.load(small_recipe) is None

    def test_no_cache_dir_is_plain_collect(self, small_recipe):
        direct = collect_hpc(small_recipe.trace)
        wrapped = cached_collect_hpc(small_recipe, cache_dir=None)
        assert np.array_equal(direct.values, wrapped.values)

    def test_clear(self, small_recipe, tmp_path):
        cache = HpcCache(tmp_path)
        cached_collect_hpc(small_recipe, cache_dir=tmp_path)
        assert cache.clear() == 1
        assert len(cache) == 0


class TestWarmDatasetBuildSkipsPipelines:
    def test_second_build_performs_zero_pipeline_runs(
        self, small_population, tmp_path
    ):
        population = small_population[:3]
        _MEMORY_CACHE.clear()
        cold = build_dataset(
            SMALL_CONFIG, benchmarks=population, cache_dir=tmp_path, jobs=1
        )
        # Drop the dataset-level matrices but keep the per-trace
        # caches, so the rebuild must go through the workers.
        removed = list(tmp_path.glob("dataset-*.npz"))
        assert removed, "cold build should have written the dataset cache"
        for path in removed:
            path.unlink()
        assert list(tmp_path.glob("hpc-*.npz")), (
            "cold build should have populated the HPC cache"
        )
        _MEMORY_CACHE.clear()

        calls_before = hpc_call_count()
        warm = build_dataset(
            SMALL_CONFIG, benchmarks=population, cache_dir=tmp_path, jobs=1
        )
        assert hpc_call_count() == calls_before
        assert np.array_equal(warm.mica, cold.mica)
        assert np.array_equal(warm.hpc, cold.hpc)
        _MEMORY_CACHE.clear()

    def test_clear_dataset_cache_removes_hpc_entries(
        self, small_population, tmp_path
    ):
        build_dataset(
            SMALL_CONFIG,
            benchmarks=small_population[:2],
            cache_dir=tmp_path,
            jobs=1,
        )
        assert list(tmp_path.glob("hpc-*.npz"))
        clear_dataset_cache(tmp_path)
        assert not list(tmp_path.glob("hpc-*.npz"))


class TestGoldenHpcVectors:
    """Regression fixtures for the eight-benchmark test population.

    The committed vectors were produced by the scalar-specification
    semantics; the engines are bit-exact, so any drift here is a
    semantic change and must come with an ``HPC_SIM_VERSION`` bump and
    a fixture refresh.
    """

    def test_vectors_match_goldens(self):
        from repro.workloads import get_benchmark

        payload = json.loads(GOLDEN_PATH.read_text())
        assert payload["vectors"], "golden fixture must not be empty"
        for name, expected in payload["vectors"].items():
            trace = generate_trace(
                get_benchmark(name).profile, payload["trace_length"],
                seed=payload["seed"],
            )
            vector = collect_hpc(trace)
            assert vector.values.tolist() == expected, (
                f"HPC vector drifted for {name}"
            )

    def test_goldens_cover_the_test_population(self, small_population):
        payload = json.loads(GOLDEN_PATH.read_text())
        assert set(payload["vectors"]) == {
            benchmark.full_name for benchmark in small_population
        }
