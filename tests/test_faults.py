"""Deterministic fault-injection suite for dataset builds.

Pins the ISSUE invariant: **under every injected fault, a build that
completes produces matrices bit-for-bit identical to a cold serial
build.**  Corrupted cache entries at any level are verified misses that
trigger recompute; crashed/raising/timing-out workers are retried with
bounded backoff and, when they fail for good, named in a
:class:`~repro.experiments.DatasetBuildReport` instead of dying as a
bare ``BrokenProcessPool``.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro.config import ReproConfig
from repro.errors import CacheDegradedWarning, DatasetBuildError
from repro.experiments import build_dataset
from repro.experiments.dataset import _MEMORY_CACHE
from repro.perf import faults, reset_cache_degradation

SMALL_CONFIG = ReproConfig(trace_length=2_000)

pytestmark = pytest.mark.usefixtures("small_population")


@pytest.fixture(scope="module")
def population(small_population):
    return small_population[:3]


@pytest.fixture(scope="module")
def reference(population, tmp_path_factory):
    """Cold serial build; its cache directory seeds the fault tests."""
    directory = tmp_path_factory.mktemp("faults-reference")
    _MEMORY_CACHE.clear()
    dataset = build_dataset(
        SMALL_CONFIG, population, cache_dir=directory, jobs=1
    )
    _MEMORY_CACHE.clear()
    return dataset, directory


def _warm_copy(reference_dir, tmp_path):
    target = tmp_path / "cache"
    shutil.copytree(reference_dir, target)
    return target


class TestCorruptionEquivalence:
    """Corruption at any cache level never changes a completed build."""

    @pytest.mark.parametrize("prefix", ["char", "hpc", "dataset"])
    @pytest.mark.parametrize("mode", faults.CORRUPTION_MODES)
    def test_rebuild_matches_cold_serial(
        self, reference, population, tmp_path, mode, prefix
    ):
        ref, ref_dir = reference
        cache_dir = _warm_copy(ref_dir, tmp_path)
        if prefix != "dataset":
            # Force the build past the dataset-level cache so the
            # corrupted per-trace entry is actually consulted.
            for entry in cache_dir.glob("dataset-*.npz"):
                entry.unlink()
        victim = sorted(cache_dir.glob(f"{prefix}-*.npz"))[0]
        faults.corrupt_entry(victim, mode, seed=11)
        _MEMORY_CACHE.clear()
        rebuilt = build_dataset(
            SMALL_CONFIG, population, cache_dir=cache_dir, jobs=1
        )
        _MEMORY_CACHE.clear()
        assert np.array_equal(rebuilt.mica, ref.mica)
        assert np.array_equal(rebuilt.hpc, ref.hpc)
        # The corrupt bytes were moved aside (and the path may hold a
        # freshly recomputed, healthy entry again).
        assert victim.with_name(
            victim.name + ".quarantined"
        ).exists(), "corrupt entry must be quarantined"
        assert rebuilt.report is not None
        assert any(
            event.path == str(victim)
            for event in rebuilt.report.quarantines
        )

    def test_quarantines_are_reported(
        self, reference, population, tmp_path
    ):
        ref, ref_dir = reference
        cache_dir = _warm_copy(ref_dir, tmp_path)
        victim = sorted(cache_dir.glob("char-*.npz"))[0]
        faults.corrupt_entry(victim, "bitflip", seed=2)
        dataset_entry = sorted(cache_dir.glob("dataset-*.npz"))[0]
        faults.corrupt_entry(dataset_entry, "truncate")
        _MEMORY_CACHE.clear()
        rebuilt = build_dataset(
            SMALL_CONFIG, population, cache_dir=cache_dir, jobs=1
        )
        _MEMORY_CACHE.clear()
        assert np.array_equal(rebuilt.mica, ref.mica)
        report = rebuilt.report
        assert report is not None
        assert len(report.dataset_quarantines) == 1
        assert len(report.quarantines) >= 2  # dataset entry + char entry


class TestWorkerCrashIsolation:
    def test_crash_once_retries_and_matches(
        self, reference, population, tmp_path
    ):
        ref, _ = reference
        victim = population[1].full_name
        _MEMORY_CACHE.clear()
        with faults.inject_worker_faults(
            [faults.WorkerFault(victim, mode="crash", times=1)],
            tmp_path / "state",
        ):
            dataset = build_dataset(
                SMALL_CONFIG, population, cache_dir=tmp_path / "cache",
                jobs=2, retry_backoff=0.0,
            )
        _MEMORY_CACHE.clear()
        assert np.array_equal(dataset.mica, ref.mica)
        assert np.array_equal(dataset.hpc, ref.hpc)
        report = dataset.report
        assert report is not None
        assert report.pool_rebuilds >= 1
        status = next(s for s in report.statuses if s.name == victim)
        # A crash with pool-mates in flight is uncharged (the casualty
        # re-runs in isolation), so 1 charged attempt is legitimate.
        assert status.ok and status.attempts >= 1

    def test_persistent_crash_strict_names_the_benchmark(
        self, population, tmp_path
    ):
        victim = population[0].full_name
        _MEMORY_CACHE.clear()
        with faults.inject_worker_faults(
            [faults.WorkerFault(victim, mode="crash", times=99)],
            tmp_path / "state",
        ):
            with pytest.raises(DatasetBuildError) as excinfo:
                build_dataset(
                    SMALL_CONFIG, population,
                    cache_dir=tmp_path / "cache",
                    jobs=2, retry_backoff=0.0,
                )
        _MEMORY_CACHE.clear()
        assert victim in str(excinfo.value)
        report = excinfo.value.report
        assert report is not None
        assert [s.name for s in report.failed] == [victim]
        status = report.failed[0]
        assert status.attempts == 3
        assert "crash" in (status.error or "").lower() or status.error

    def test_salvage_mode_keeps_surviving_rows_bit_identical(
        self, reference, population, tmp_path
    ):
        ref, _ = reference
        victim = population[1].full_name
        survivors = [0, 2]
        _MEMORY_CACHE.clear()
        with faults.inject_worker_faults(
            [faults.WorkerFault(victim, mode="crash", times=99)],
            tmp_path / "state",
        ):
            dataset = build_dataset(
                SMALL_CONFIG, population, cache_dir=tmp_path / "cache",
                jobs=2, retry_backoff=0.0, strict=False,
            )
        _MEMORY_CACHE.clear()
        assert dataset.names == tuple(
            population[i].full_name for i in survivors
        )
        assert np.array_equal(dataset.mica, ref.mica[survivors])
        assert np.array_equal(dataset.hpc, ref.hpc[survivors])
        assert [s.name for s in dataset.report.failed] == [victim]
        # A salvage build must never poison the dataset-level cache.
        assert not list((tmp_path / "cache").glob("dataset-*.npz"))

    def test_error_mode_attempts_accounting(self, population, tmp_path):
        victim = population[2].full_name
        _MEMORY_CACHE.clear()
        with faults.inject_worker_faults(
            [faults.WorkerFault(victim, mode="error", times=2)],
            tmp_path / "state",
        ):
            dataset = build_dataset(
                SMALL_CONFIG, population, cache_dir=tmp_path / "cache",
                jobs=2, retry_backoff=0.0, max_attempts=3,
            )
        _MEMORY_CACHE.clear()
        status = next(
            s for s in dataset.report.statuses if s.name == victim
        )
        assert status.ok and status.attempts == 3

    def test_error_mode_exhausts_attempts_strict(
        self, population, tmp_path
    ):
        victim = population[2].full_name
        _MEMORY_CACHE.clear()
        with faults.inject_worker_faults(
            [faults.WorkerFault(victim, mode="error", times=5)],
            tmp_path / "state",
        ):
            with pytest.raises(DatasetBuildError, match="1 of 3"):
                build_dataset(
                    SMALL_CONFIG, population,
                    cache_dir=tmp_path / "cache",
                    jobs=2, retry_backoff=0.0, max_attempts=2,
                )
        _MEMORY_CACHE.clear()

    def test_timeout_mode_serial_retry(
        self, reference, population, tmp_path
    ):
        ref, _ = reference
        victim = population[0].full_name
        _MEMORY_CACHE.clear()
        with faults.inject_worker_faults(
            [faults.WorkerFault(victim, mode="timeout", times=1)],
            tmp_path / "state",
        ):
            dataset = build_dataset(
                SMALL_CONFIG, population, cache_dir=tmp_path / "cache",
                jobs=1, retry_backoff=0.0,
            )
        _MEMORY_CACHE.clear()
        assert np.array_equal(dataset.mica, ref.mica)
        status = next(
            s for s in dataset.report.statuses if s.name == victim
        )
        assert status.ok and status.attempts == 2

    def test_serial_persistent_error_strict(self, population, tmp_path):
        victim = population[1].full_name
        _MEMORY_CACHE.clear()
        with faults.inject_worker_faults(
            [faults.WorkerFault(victim, mode="error", times=99)],
            tmp_path / "state",
        ):
            with pytest.raises(DatasetBuildError) as excinfo:
                build_dataset(
                    SMALL_CONFIG, population,
                    cache_dir=tmp_path / "cache",
                    jobs=1, retry_backoff=0.0,
                )
        _MEMORY_CACHE.clear()
        assert [s.name for s in excinfo.value.report.failed] == [victim]


class TestDegradedBuild:
    def test_store_faults_degrade_but_build_matches(
        self, reference, population, tmp_path
    ):
        ref, _ = reference
        reset_cache_degradation()
        _MEMORY_CACHE.clear()
        with pytest.warns(CacheDegradedWarning):
            with faults.inject_io_faults("store", indices=range(64)):
                dataset = build_dataset(
                    SMALL_CONFIG, population,
                    cache_dir=tmp_path / "cache", jobs=1,
                )
        _MEMORY_CACHE.clear()
        reset_cache_degradation()
        assert np.array_equal(dataset.mica, ref.mica)
        assert np.array_equal(dataset.hpc, ref.hpc)
        assert not list((tmp_path / "cache").glob("tmp-*.npz"))
