"""Tests for the repro.perf subsystem: cache, harness, parallel builds."""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.perf.cache as perf_cache
from repro.config import DEFAULT_CONFIG, ReproConfig
from repro.experiments import build_dataset
from repro.experiments.dataset import _MEMORY_CACHE
from repro.mica import NUM_CHARACTERISTICS, characterize
from repro.perf import (
    CharacterizationCache,
    MicaBenchResult,
    TraceRecipe,
    cached_characterize,
    run_mica_bench,
    trace_fingerprint,
    write_bench_json,
)
from repro.synth import WorkloadProfile, generate_trace
from repro.trace import TraceBuilder

SMALL_CONFIG = ReproConfig(trace_length=2_000)


@pytest.fixture()
def tiny_trace():
    return generate_trace(WorkloadProfile(name="perf/t/1"), 2_000)


@pytest.fixture()
def tiny_recipe():
    return TraceRecipe(WorkloadProfile(name="perf/t/1"), 2_000)


class TestTraceFingerprint:
    def test_deterministic(self, tiny_trace):
        assert trace_fingerprint(tiny_trace) == trace_fingerprint(tiny_trace)

    def test_name_independent(self):
        first = generate_trace(WorkloadProfile(name="perf/a/1"), 500)
        renamed = type(first)(first.data.copy(), name="other/name")
        assert trace_fingerprint(first) == trace_fingerprint(renamed)

    def test_content_sensitive(self):
        builder = TraceBuilder()
        builder.alu(0x1000, dst=1)
        one = builder.build()
        builder2 = TraceBuilder()
        builder2.alu(0x1000, dst=2)
        other = builder2.build()
        assert trace_fingerprint(one) != trace_fingerprint(other)


class TestConfigFingerprint:
    def test_ignores_non_characterization_fields(self):
        base = DEFAULT_CONFIG
        other = base.with_overrides(trace_length=123, ga_generations=2)
        assert (
            base.characterization_fingerprint()
            == other.characterization_fingerprint()
        )

    def test_tracks_characterization_fields(self):
        base = DEFAULT_CONFIG
        other = base.with_overrides(ppm_max_order=6)
        assert (
            base.characterization_fingerprint()
            != other.characterization_fingerprint()
        )


class TestCharacterizationCache:
    def test_miss_then_hit(self, tiny_recipe, tmp_path):
        cache = CharacterizationCache(tmp_path)
        assert cache.load(tiny_recipe, SMALL_CONFIG) is None
        vector = characterize(tiny_recipe.trace, SMALL_CONFIG)
        cache.store(tiny_recipe, SMALL_CONFIG, vector.values)
        assert len(cache) == 1
        loaded = cache.load(tiny_recipe, SMALL_CONFIG)
        assert np.array_equal(loaded, vector.values)

    def test_config_keys_separate_entries(self, tiny_recipe, tmp_path):
        cache = CharacterizationCache(tmp_path)
        vector = characterize(tiny_recipe.trace, SMALL_CONFIG)
        cache.store(tiny_recipe, SMALL_CONFIG, vector.values)
        assert cache.load(
            tiny_recipe, SMALL_CONFIG.with_overrides(ppm_max_order=2)
        ) is None

    def test_corrupt_entry_is_a_miss(self, tiny_recipe, tmp_path):
        cache = CharacterizationCache(tmp_path)
        vector = characterize(tiny_recipe.trace, SMALL_CONFIG)
        path = cache.store(tiny_recipe, SMALL_CONFIG, vector.values)
        path.write_bytes(b"not an npz")
        assert cache.load(tiny_recipe, SMALL_CONFIG) is None

    def test_clear(self, tiny_recipe, tmp_path):
        cache = CharacterizationCache(tmp_path)
        vector = characterize(tiny_recipe.trace, SMALL_CONFIG)
        cache.store(tiny_recipe, SMALL_CONFIG, vector.values)
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_cached_characterize_warm_skips_analyzers(
        self, tiny_recipe, tmp_path, monkeypatch
    ):
        cold = cached_characterize(tiny_recipe, SMALL_CONFIG, tmp_path)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("analyzers ran on a warm cache")

        monkeypatch.setattr(perf_cache, "characterize", boom)
        warm = cached_characterize(tiny_recipe, SMALL_CONFIG, tmp_path)
        assert np.array_equal(cold.values, warm.values)
        assert warm.name == tiny_recipe.name

    def test_no_cache_dir_is_plain_characterize(self, tiny_recipe):
        direct = characterize(tiny_recipe.trace, SMALL_CONFIG)
        wrapped = cached_characterize(tiny_recipe, SMALL_CONFIG, None)
        assert np.array_equal(direct.values, wrapped.values)


class TestParallelDatasetBuilds:
    def test_jobs_warm_cache_matches_serial_cold(
        self, small_population, tmp_path
    ):
        population = small_population[:3]
        _MEMORY_CACHE.clear()
        serial_cold = build_dataset(
            SMALL_CONFIG,
            benchmarks=population,
            cache_dir=tmp_path,
            jobs=1,
        )
        # Remove the dataset-level matrices but keep the per-trace
        # entries, so the parallel build must go through the workers
        # and the warm repro.perf cache.
        removed = list(tmp_path.glob("dataset-*.npz"))
        for path in removed:
            path.unlink()
        assert removed, "serial build should have written the dataset cache"
        assert list(tmp_path.glob("char-*.npz")), (
            "serial build should have populated the per-trace cache"
        )
        _MEMORY_CACHE.clear()
        parallel_warm = build_dataset(
            SMALL_CONFIG,
            benchmarks=population,
            cache_dir=tmp_path,
            jobs=2,
        )
        assert parallel_warm.names == serial_cold.names
        assert np.array_equal(parallel_warm.mica, serial_cold.mica)
        assert np.array_equal(parallel_warm.hpc, serial_cold.hpc)
        _MEMORY_CACHE.clear()


class TestMicaBenchHarness:
    def test_smoke_run_structure(self, tiny_trace):
        result = run_mica_bench(trace=tiny_trace, repeats=1)
        names = {timing.name for timing in result.timings}
        assert {"ppm_predictabilities", "ilp_ipc", "characterize",
                "ppm_reference", "ilp_ipc_reference"} <= names
        assert set(result.speedups) == {"ppm", "ilp"}
        assert all(timing.seconds >= 0.0 for timing in result.timings)
        assert result.trace_length == len(tiny_trace)
        assert "Minstr/s" in result.format()

    def test_bench_json_round_trip(self, tiny_trace, tmp_path):
        result = run_mica_bench(
            trace=tiny_trace, repeats=1, include_reference=False
        )
        assert result.speedups == {}
        path = write_bench_json(result, tmp_path / "BENCH_mica.json")
        payload = json.loads(path.read_text())
        assert payload["schema"] == "BENCH_mica/v7"
        assert payload["meta"]["trace_length"] == len(tiny_trace)
        for entry in payload["analyzers"].values():
            assert entry["seconds"] >= 0.0
            assert entry["instructions_per_second"] >= 0.0

    def test_cli_bench_writes_json(self, tmp_path, capsys):
        from repro.cli import main

        output = tmp_path / "BENCH_mica.json"
        code = main([
            "--trace-length", "2000",
            "bench", "--repeats", "1", "--output", str(output),
            "--no-generation",
        ])
        assert code == 0
        assert output.is_file()
        payload = json.loads(output.read_text())
        assert "speedups" in payload
        assert "generation" not in payload
        assert "MICA perf harness" in capsys.readouterr().out

    def test_generation_section(self, tmp_path):
        result = run_mica_bench(
            trace=generate_trace(WorkloadProfile(name="perf/gen/1"), 2_000),
            config=ReproConfig(trace_length=3_000),
            repeats=1,
            include_reference=True,
            include_generation=True,
        )
        assert result.generation is not None
        payload = json.loads(
            write_bench_json(
                result, tmp_path / "BENCH_mica.json"
            ).read_text()
        )
        section = payload["generation"]
        assert set(section["speedups"]) == {"interpret", "expand", "engine"}
        for phase in (
            "generate_trace",
            "interpret",
            "interpret_reference",
            "expand",
            "expand_reference",
        ):
            assert section["phases"][phase]["seconds"] >= 0.0
        assert section["dataset"]["cold_seconds"] > 0.0
        assert section["dataset"]["warm_seconds"] > 0.0
        assert "generation engine" in result.format()


class TestHpcBenchSection:
    def test_hpc_section(self, tmp_path):
        result = run_mica_bench(
            trace=generate_trace(WorkloadProfile(name="perf/hpc/1"), 2_000),
            config=ReproConfig(trace_length=3_000),
            repeats=1,
            include_reference=True,
            include_hpc=True,
        )
        assert result.hpc is not None
        payload = json.loads(
            write_bench_json(
                result, tmp_path / "BENCH_mica.json"
            ).read_text()
        )
        section = payload["hpc"]
        assert set(section["speedups"]) == {
            "events", "events_ev56", "events_ev67",
            "pipelines", "pipeline_ev56", "pipeline_ev67",
            "cache_l1d", "tlb",
            "predictor_bimodal", "predictor_tournament",
            "producer_indices",
        }
        for engine in (
            "events_ev56", "events_ev56_reference",
            "events_ev67", "events_ev67_reference",
            "pipeline_ev56", "pipeline_ev56_reference",
            "pipeline_ev67", "pipeline_ev67_reference",
            "collect_hpc", "cache_l1d", "tlb",
            "predictor_bimodal", "predictor_tournament",
            "producer_indices", "producer_indices_reference",
        ):
            assert section["engines"][engine]["seconds"] >= 0.0
        assert section["cache"]["cold_seconds"] > 0.0
        assert section["cache"]["warm_seconds"] > 0.0
        assert "HPC engine" in result.format()

    def test_no_reference_skips_speedups(self):
        from repro.perf import run_hpc_bench

        result = run_hpc_bench(
            config=ReproConfig(trace_length=2_000),
            repeats=1,
            include_reference=False,
        )
        assert result.speedups == {}
        names = {timing.name for timing in result.timings}
        assert "events_ev56" in names
        assert "events_ev56_reference" not in names
        assert "HPC engine" in result.format()


class TestPhasesBenchSection:
    def test_phases_section(self, tmp_path):
        result = run_mica_bench(
            trace=generate_trace(WorkloadProfile(name="perf/ph/1"), 2_000),
            config=ReproConfig(trace_length=4_000),
            repeats=1,
            include_reference=True,
            include_phases=True,
        )
        assert result.phases is not None
        payload = json.loads(
            write_bench_json(
                result, tmp_path / "BENCH_mica.json"
            ).read_text()
        )
        section = payload["phases"]
        assert section["interval"] > 0
        assert set(section["speedups"]) == {"timeline"}
        for engine in (
            "mica_timeline", "mica_timeline_reference", "interval_mica",
            "basic_block_vectors", "interval_mix", "detect_phases",
        ):
            assert section["engines"][engine]["seconds"] >= 0.0
        # The acceptance ratio is surfaced at the top level too.
        assert payload["speedups"]["phases"] == (
            section["speedups"]["timeline"]
        )
        assert "phase engine" in result.format()

    def test_small_trace_shrinks_interval(self):
        from repro.perf import run_phases_bench

        result = run_phases_bench(
            config=ReproConfig(trace_length=2_000),
            repeats=1,
            interval=5_000,
        )
        assert result.interval == 500  # 2000 // 4

    def test_no_reference_skips_speedups(self):
        from repro.perf import run_phases_bench

        result = run_phases_bench(
            config=ReproConfig(trace_length=4_000),
            repeats=1,
            include_reference=False,
        )
        assert result.speedups == {}
        names = {timing.name for timing in result.timings}
        assert "mica_timeline" in names
        assert "mica_timeline_reference" not in names


@pytest.mark.slow
def test_hpc_events_speedup_floor_at_default_trace_length():
    """Acceptance floor for the HPC event engines: >=5x combined
    simulate_events over the scalar references at the default (100k)
    trace length."""
    from repro.perf import run_hpc_bench

    result = run_hpc_bench(repeats=3)
    assert result.trace_length == DEFAULT_CONFIG.trace_length
    assert result.speedups["events"] >= 5.0


@pytest.mark.slow
def test_pipeline_walk_never_slower_than_reference():
    """The batch pipeline walks must at least match the retained scalar
    loops at the default trace length (see ROADMAP: the serialized
    pipeline recurrence bounds how far ahead of the reference any exact
    engine can get).  The EV67 margin is only ~1.1x, so allow a little
    wall-clock noise without letting a real regression through."""
    from repro.perf import run_hpc_bench

    result = run_hpc_bench(repeats=3)
    assert result.speedups["pipelines"] >= 1.0
    assert result.speedups["pipeline_ev56"] >= 1.0
    assert result.speedups["pipeline_ev67"] >= 0.95


@pytest.mark.slow
def test_phases_speedup_floor_at_default_trace_length():
    """Acceptance floor for the segmented phase engine: >=5x over the
    chunked per-chunk reference for the default six-key timeline at the
    default (100k) trace length and 5k-instruction intervals (the
    committed ``BENCH_mica.json`` records the floor-qualifying run).
    The reference runs the scalar ILP/PPM/producer specifications per
    chunk and measures ~15x; the short engine runs are much more
    exposed to scheduler steal than the long reference runs, so — as
    with the pipeline-walk floor — leave headroom for wall-clock noise
    without letting a real regression through."""
    from repro.perf import run_phases_bench

    result = run_phases_bench(repeats=7)
    assert result.trace_length == DEFAULT_CONFIG.trace_length
    assert result.interval == 5_000
    assert result.speedups["timeline"] >= 4.0


@pytest.mark.slow
def test_speedup_floors_at_default_trace_length():
    """Acceptance floors for the vectorized engine: >=10x PPM, >=5x ILP
    over the scalar references at the default trace length."""
    result = run_mica_bench(repeats=3)
    assert result.trace_length == DEFAULT_CONFIG.trace_length
    assert result.speedups["ppm"] >= 10.0
    assert result.speedups["ilp"] >= 5.0


@pytest.mark.slow
def test_generation_speedup_floor_at_default_trace_length():
    """Acceptance floor for the generation engine: >=10x combined over
    the scalar interpret/expand references at the default (100k) trace
    length."""
    from repro.perf import run_generation_bench

    result = run_generation_bench(repeats=5)
    assert result.trace_length == DEFAULT_CONFIG.trace_length
    assert result.speedups["engine"] >= 10.0


def test_characteristic_vector_dimensions(tiny_recipe, tmp_path):
    vector = cached_characterize(tiny_recipe, SMALL_CONFIG, tmp_path)
    assert vector.values.shape == (NUM_CHARACTERISTICS,)
