"""Tests for recipe-keyed per-trace cache entries and the static-code memo.

The characterization and HPC entries key on the trace's generation
recipe (profile fingerprint, length, seed, TRACE_GEN_VERSION), never on
its bytes.  These tests pin the recipe key contract, that warm dataset
builds never generate or hash a trace, that a cold build generates each
trace exactly once and writes no trace entry, and that clearing the
cache still removes trace entries older versions wrote.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.perf.cache as perf_cache
from repro.config import ReproConfig
from repro.experiments import build_dataset, clear_dataset_cache
from repro.experiments.dataset import _MEMORY_CACHE
from repro.perf import TraceRecipe
from repro.synth import (
    CodeSpec,
    WorkloadProfile,
    clear_code_cache,
    generate_trace,
    generation_call_count,
)
from repro.synth import generator

SMALL_CONFIG = ReproConfig(trace_length=2_000)

PROFILE = WorkloadProfile(name="cache/profile/1")


class TestProfileFingerprint:
    def test_deterministic(self):
        assert PROFILE.fingerprint() == PROFILE.fingerprint()

    def test_equal_knobs_equal_fingerprint(self):
        twin = WorkloadProfile(name="cache/profile/1")
        assert PROFILE.fingerprint() == twin.fingerprint()

    def test_behavior_mix_order_independent(self):
        forward = WorkloadProfile(
            name="cache/mix",
            memory=PROFILE.memory.__class__(
                load_mix={"scalar": 0.5, "random": 0.5},
            ),
        )
        backward = WorkloadProfile(
            name="cache/mix",
            memory=PROFILE.memory.__class__(
                load_mix={"random": 0.5, "scalar": 0.5},
            ),
        )
        assert forward.fingerprint() == backward.fingerprint()

    def test_distinct_knobs_distinct_fingerprint(self):
        assert PROFILE.fingerprint() != PROFILE.with_overrides(
            seed=1
        ).fingerprint()
        assert PROFILE.fingerprint() != PROFILE.with_overrides(
            name="cache/profile/2"
        ).fingerprint()


class TestTraceRecipe:
    def test_trace_is_generated_lazily_once(self, count_perf_cache_calls):
        calls = count_perf_cache_calls("generate_trace")
        recipe = TraceRecipe(PROFILE, 2_000, seed=4)
        recipe.key()
        assert calls["generate_trace"] == 0
        first = recipe.trace
        assert recipe.trace is first
        assert calls["generate_trace"] == 1
        direct = generate_trace(PROFILE, 2_000, seed=4)
        assert first.data.tobytes() == direct.data.tobytes()
        assert recipe.name == PROFILE.name

    def test_key_is_deterministic(self):
        assert (
            TraceRecipe(PROFILE, 2_000).key()
            == TraceRecipe(WorkloadProfile(name="cache/profile/1"),
                           2_000).key()
        )

    def test_distinct_seed_length_profile_keys(self):
        keys = {
            TraceRecipe(PROFILE, 2_000, seed=0).key(),
            TraceRecipe(PROFILE, 2_000, seed=1).key(),
            TraceRecipe(PROFILE, 1_999, seed=0).key(),
            TraceRecipe(PROFILE.with_overrides(seed=5), 2_000).key(),
            TraceRecipe(WorkloadProfile(name="cache/other/1"), 2_000).key(),
        }
        assert len(keys) == 5

    def test_generation_version_bump_changes_the_key(self, monkeypatch):
        before = TraceRecipe(PROFILE, 2_000).key()
        monkeypatch.setattr(
            perf_cache, "TRACE_GEN_VERSION", perf_cache.TRACE_GEN_VERSION + 1
        )
        assert TraceRecipe(PROFILE, 2_000).key() != before


class TestWarmDatasetBuildSkipsGeneration:
    def test_second_build_performs_zero_generator_calls(
        self, small_population, tmp_path
    ):
        population = small_population[:3]
        _MEMORY_CACHE.clear()
        cold = build_dataset(
            SMALL_CONFIG, benchmarks=population, cache_dir=tmp_path, jobs=1
        )
        # Drop the dataset-level matrices but keep the per-trace caches,
        # so the rebuild must go through the workers.
        removed = list(tmp_path.glob("dataset-*.npz"))
        assert removed, "cold build should have written the dataset cache"
        for path in removed:
            path.unlink()
        assert not list(tmp_path.glob("trace-*.npz")), (
            "a build must never cache the traces themselves"
        )
        _MEMORY_CACHE.clear()

        calls_before = generation_call_count()
        warm = build_dataset(
            SMALL_CONFIG, benchmarks=population, cache_dir=tmp_path, jobs=1
        )
        assert generation_call_count() == calls_before
        assert np.array_equal(warm.mica, cold.mica)
        assert np.array_equal(warm.hpc, cold.hpc)
        _MEMORY_CACHE.clear()

    def test_warm_build_touches_no_trace(
        self, small_population, tmp_path, count_perf_cache_calls
    ):
        population = small_population[:2]
        _MEMORY_CACHE.clear()
        cold = build_dataset(
            SMALL_CONFIG, benchmarks=population, cache_dir=tmp_path, jobs=1
        )
        for path in tmp_path.glob("dataset-*.npz"):
            path.unlink()
        _MEMORY_CACHE.clear()

        calls = count_perf_cache_calls("generate_trace",
                                       "trace_fingerprint")
        warm = build_dataset(
            SMALL_CONFIG, benchmarks=population, cache_dir=tmp_path, jobs=1
        )
        assert calls == {"generate_trace": 0, "trace_fingerprint": 0}
        assert warm.mica.tobytes() == cold.mica.tobytes()
        assert warm.hpc.tobytes() == cold.hpc.tobytes()
        _MEMORY_CACHE.clear()

    def test_cold_build_generates_each_trace_once(
        self, small_population, tmp_path, count_perf_cache_calls
    ):
        _MEMORY_CACHE.clear()
        calls = count_perf_cache_calls("generate_trace")
        build_dataset(
            SMALL_CONFIG, benchmarks=small_population[:1],
            cache_dir=tmp_path, jobs=1,
        )
        assert calls["generate_trace"] == 1
        assert list(tmp_path.glob("char-*.npz"))
        assert list(tmp_path.glob("hpc-*.npz"))
        assert not list(tmp_path.glob("trace-*.npz"))
        _MEMORY_CACHE.clear()

    def test_clear_dataset_cache_removes_trace_entries(
        self, small_population, tmp_path
    ):
        build_dataset(
            SMALL_CONFIG,
            benchmarks=small_population[:2],
            cache_dir=tmp_path,
            jobs=1,
        )
        # Trace entries, their quarantined copies and writer temps left
        # by older versions, which cached generated traces.
        legacy = [
            tmp_path / "trace-0123abcd.npz",
            tmp_path / "trace-4567ef01.npz.quarantined",
            tmp_path / "tmp-trace-89abcdef.npz",
        ]
        for path in legacy:
            path.write_bytes(b"legacy")
        assert clear_dataset_cache(tmp_path) >= len(legacy) + 5
        assert not list(tmp_path.iterdir())


class TestStaticCodeMemo:
    def test_build_code_runs_once_across_lengths_and_seeds(
        self, monkeypatch
    ):
        profile = WorkloadProfile(
            name="cache/memo/1", code=CodeSpec(num_functions=4)
        )
        clear_code_cache()
        calls = []
        real_build = generator.build_code

        def counting_build(*args, **kwargs):
            calls.append(1)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(generator, "build_code", counting_build)
        generate_trace(profile, 500)
        generate_trace(profile, 2_000)
        generate_trace(profile, 500, seed=9)
        assert len(calls) == 1

        generate_trace(profile.with_overrides(seed=1), 500)
        assert len(calls) == 2
        clear_code_cache()

    def test_memoized_code_replays_identically(self):
        profile = WorkloadProfile(name="cache/memo/2")
        clear_code_cache()
        first = generate_trace(profile, 3_000)
        second = generate_trace(profile, 3_000)
        assert np.array_equal(first.data, second.data)

    def test_code_is_length_and_seed_invariant(self):
        profile = WorkloadProfile(name="cache/memo/3")
        clear_code_cache()
        generate_trace(profile, 500)
        image = generator.code_for_profile(profile)
        generate_trace(profile, 4_000, seed=11)
        assert generator.code_for_profile(profile) is image
        clear_code_cache()
