"""Concurrency tests for the on-disk cache (satellite: torn reads).

Real ``ProcessPoolExecutor`` workers hammer one cache key — several
writers racing each other and readers loading mid-write.  The atomic
temp-file + rename protocol plus integrity verification must guarantee:
a reader observes either a miss or one writer's *complete* entry (never
a torn mix), the last writer wins, and nobody leaves ``tmp-*.npz``
litter or quarantine files behind.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, wait

import numpy as np
import pytest

from repro.config import ReproConfig
from repro.mica import NUM_CHARACTERISTICS, characterize
from repro.perf import CharacterizationCache, TraceRecipe
from repro.synth import WorkloadProfile

SMALL_CONFIG = ReproConfig(trace_length=2_000)
PROFILE = WorkloadProfile(name="concurrency/p/1")
LENGTH = 2_000


def _shared_recipe():
    # Every worker builds the identical recipe, so all processes
    # address the same cache key.
    return TraceRecipe(PROFILE, LENGTH)


def _writer_job(directory, worker_id, stores):
    """Repeatedly store a worker-identifiable vector under one key."""
    recipe = _shared_recipe()
    cache = CharacterizationCache(directory)
    values = np.full(NUM_CHARACTERISTICS, float(worker_id))
    for _ in range(stores):
        cache.store(recipe, SMALL_CONFIG, values)
    return worker_id


def _reader_job(directory, loads):
    """Load the racing key in a loop; report every observed vector."""
    recipe = _shared_recipe()
    cache = CharacterizationCache(directory)
    observed = []
    for _ in range(loads):
        values = cache.load(recipe, SMALL_CONFIG)
        if values is not None:
            observed.append(values.copy())
    return observed


def _real_writer_job(directory, stores):
    """Store the genuine characterization vector repeatedly."""
    recipe = _shared_recipe()
    values = characterize(recipe.trace, SMALL_CONFIG).values
    cache = CharacterizationCache(directory)
    for _ in range(stores):
        cache.store(recipe, SMALL_CONFIG, values)
    return values


class TestConcurrentSameKeyWriters:
    def test_last_writer_wins_and_no_torn_reads(self, tmp_path):
        writer_ids = [1, 2, 3]
        with ProcessPoolExecutor(max_workers=len(writer_ids) + 2) as pool:
            writers = [
                pool.submit(_writer_job, tmp_path, wid, 25)
                for wid in writer_ids
            ]
            readers = [
                pool.submit(_reader_job, tmp_path, 50) for _ in range(2)
            ]
            wait(writers + readers)
            observed = [
                vector for future in readers for vector in future.result()
            ]
            for future in writers:
                future.result()

        # Every mid-write load was a miss or ONE writer's complete
        # vector — constant fill, never a mix of two writers' bytes.
        for vector in observed:
            assert vector.shape == (NUM_CHARACTERISTICS,)
            fill = vector[0]
            assert fill in {float(wid) for wid in writer_ids}
            assert np.all(vector == fill), "torn read detected"

        # Last writer wins: the surviving entry is one complete vector.
        final = CharacterizationCache(tmp_path).load(
            _shared_recipe(), SMALL_CONFIG
        )
        assert final is not None
        assert np.all(final == final[0])
        assert final[0] in {float(wid) for wid in writer_ids}

        # Atomic protocol leaves no litter and quarantined nothing.
        assert not list(tmp_path.glob("tmp-*.npz"))
        assert not list(tmp_path.glob("*.quarantined"))
        assert len(list(tmp_path.glob("char-*.npz"))) == 1

    def test_warm_read_during_write_serves_verified_entries(
        self, tmp_path
    ):
        expected = characterize(_shared_recipe().trace, SMALL_CONFIG).values
        with ProcessPoolExecutor(max_workers=4) as pool:
            writers = [
                pool.submit(_real_writer_job, tmp_path, 15)
                for _ in range(2)
            ]
            readers = [
                pool.submit(_reader_job, tmp_path, 40) for _ in range(2)
            ]
            wait(writers + readers)
            observed = [
                vector for future in readers for vector in future.result()
            ]
            for future in writers:
                assert np.array_equal(future.result(), expected)

        # Identical writers: every non-miss load is bit-for-bit the
        # true vector (a torn read would fail its checksum and show up
        # as a quarantine instead).
        for vector in observed:
            assert np.array_equal(vector, expected)
        assert not list(tmp_path.glob("tmp-*.npz"))
        assert not list(tmp_path.glob("*.quarantined"))

        warm = CharacterizationCache(tmp_path).load(
            _shared_recipe(), SMALL_CONFIG
        )
        assert np.array_equal(warm, expected)
