"""Segmented-engine-vs-chunked-reference equivalence for the phase layer.

The segmented interval-characterization engine
(:func:`repro.mica.segmented_characterize` and the
:func:`repro.phases.mica_timeline` built on it) must produce
*bit-identical* values to characterizing every chunk separately — the
retained :func:`repro.phases.mica_timeline_reference` per-chunk loop —
on the real registry population, randomized traces, hand-built edge
cases, per-key partial requests, and odd interval/window geometries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ReproConfig
from repro.errors import CharacterizationError
from repro.mica import (
    characterize,
    characteristic_names,
    producer_indices,
    segmented_characterize,
    segmented_producer_indices,
)
from repro.mica.ilp import NO_PRODUCER
from repro.phases import (
    DEFAULT_TIMELINE_KEYS,
    detect_phases,
    interval_mica_vectors,
    mica_timeline,
    mica_timeline_reference,
)
from repro.synth import WorkloadProfile, generate_trace
from repro.trace import TraceBuilder
from test_mica_vectorized_equivalence import random_branchy_trace

CONFIG = ReproConfig(trace_length=5_000)


def chunk_rows(trace, interval, config=CONFIG):
    """Per-chunk characterize rows — the ground truth."""
    count = len(trace) // interval
    return np.vstack([
        characterize(trace[i * interval : (i + 1) * interval], config).values
        for i in range(count)
    ])


def assert_segmented_matches(trace, interval, config=CONFIG):
    segmented = segmented_characterize(trace, interval, config)
    assert np.array_equal(segmented, chunk_rows(trace, interval, config))


class TestSegmentedProducerIndices:
    @pytest.mark.parametrize("interval", [1, 7, 333, 1000])
    def test_matches_per_chunk_producers(self, interval):
        trace = random_branchy_trace(1, 2_000)
        count = len(trace) // interval
        producer1, producer2 = segmented_producer_indices(trace, interval)
        for index in range(count):
            chunk = trace[index * interval : (index + 1) * interval]
            chunk1, chunk2 = producer_indices(chunk)
            base = index * interval
            for segmented, chunked in (
                (producer1, chunk1), (producer2, chunk2)
            ):
                rebased = np.where(
                    chunked != NO_PRODUCER, chunked + base, NO_PRODUCER
                )
                window = segmented[base : base + interval]
                assert np.array_equal(window, rebased)

    def test_same_register_in_both_slots(self):
        builder = TraceBuilder(name="dup-read")
        for index in range(400):
            register = 1 + (index + 1) % 3
            builder.alu(0x1000 + 4 * (index % 8), dst=1 + index % 3,
                        src1=register, src2=register)
        assert_segmented_matches(builder.build(), 100)


class TestSegmentedCharacterize:
    def test_population_bit_identical(self, small_population):
        for benchmark in small_population:
            trace = generate_trace(benchmark.profile, 4_000)
            assert_segmented_matches(trace, 500)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("interval", [1, 7, 250, 1000, 1499])
    def test_randomized_traces(self, seed, interval):
        assert_segmented_matches(random_branchy_trace(seed, 3_000), interval)

    def test_interval_not_dividing_windows(self):
        """Interval sizes that leave trailing short ILP windows."""
        trace = random_branchy_trace(5, 2_500)
        config = ReproConfig(
            trace_length=5_000, ilp_window_sizes=(1, 3, 300, 7),
            ppm_max_order=2,
        )
        for interval in (9, 50, 299, 1250):
            segmented = segmented_characterize(trace, interval, config)
            assert np.array_equal(
                segmented, chunk_rows(trace, interval, config)
            )

    def test_branchless_memoryless_trace(self):
        builder = TraceBuilder(name="alu-only")
        for index in range(1_200):
            builder.alu(0x1000 + 4 * (index % 16), dst=1 + index % 4,
                        src1=1 + (index + 1) % 4)
        assert_segmented_matches(builder.build(), 100)

    def test_deep_ppm_order_fallback(self):
        """Orders beyond the packed-key ceiling use the per-chunk path."""
        trace = random_branchy_trace(9, 600)
        config = ReproConfig(trace_length=5_000, ppm_max_order=25)
        segmented = segmented_characterize(trace, 150, config)
        assert np.array_equal(segmented, chunk_rows(trace, 150, config))

    def test_every_single_key_partial_request(self):
        """Per-key requests match the full rows on their column and
        skip everything else (NaN or exact sibling values)."""
        trace = random_branchy_trace(3, 2_000)
        rows = chunk_rows(trace, 500)
        for index, key in enumerate(characteristic_names()):
            segmented = segmented_characterize(
                trace, 500, CONFIG, indices=[index]
            )
            assert np.array_equal(segmented[:, index], rows[:, index]), key

    def test_numpy_integer_interval(self):
        trace = random_branchy_trace(6, 1_000)
        segmented = segmented_characterize(trace, np.int64(250), CONFIG)
        assert segmented.tobytes() == (
            segmented_characterize(trace, 250, CONFIG).tobytes()
        )

    @pytest.mark.parametrize("interval", [2.5, "10", 250.0])
    def test_non_integer_interval_rejected(self, interval):
        trace = random_branchy_trace(6, 1_000)
        with pytest.raises(CharacterizationError, match="integer"):
            segmented_characterize(trace, interval, CONFIG)

    def test_partial_categories_leave_nan(self):
        trace = random_branchy_trace(4, 1_000)
        segmented = segmented_characterize(
            trace, 250, CONFIG, categories=("instruction mix",)
        )
        assert np.isfinite(segmented[:, :6]).all()
        assert np.isnan(segmented[:, 6:]).all()


class TestTimelineEquivalence:
    def test_default_keys_bit_identical(self, small_population):
        for benchmark in small_population:
            trace = generate_trace(benchmark.profile, 4_000)
            engine = mica_timeline(trace, 500, config=CONFIG)
            reference = mica_timeline_reference(trace, 500, config=CONFIG)
            assert np.array_equal(engine.values, reference.values)
            assert engine.keys == reference.keys

    @pytest.mark.parametrize("keys", [
        ("mix_loads",),
        ("ilp_w64",),
        ("ppm_PAs",),
        ("stride_global_store_le512", "ws_instr_pages"),
        DEFAULT_TIMELINE_KEYS,
    ])
    def test_key_subsets_bit_identical(self, keys):
        trace = random_branchy_trace(7, 2_000)
        engine = mica_timeline(trace, 250, keys=keys, config=CONFIG)
        reference = mica_timeline_reference(
            trace, 250, keys=keys, config=CONFIG
        )
        assert np.array_equal(engine.values, reference.values)

    def test_detect_phases_mica_signatures_match_chunks(self):
        trace = random_branchy_trace(8, 2_000)
        result = detect_phases(
            trace, interval=500, signature="mica", config=CONFIG
        )
        assert np.array_equal(result.signatures, chunk_rows(trace, 500))

    def test_interval_mica_vectors_match_chunks(self, small_trace):
        vectors = interval_mica_vectors(small_trace, 1_000, CONFIG)
        assert np.array_equal(vectors, chunk_rows(small_trace, 1_000))


class TestSyntheticProfiles:
    @pytest.mark.parametrize("seed", [21, 22])
    def test_generated_traces(self, seed):
        profile = WorkloadProfile(name=f"segeq/synth/{seed}")
        trace = generate_trace(profile, 6_000, seed=seed)
        assert_segmented_matches(trace, 1_000)
        assert_segmented_matches(trace, 999)
