"""Tests for the extension experiments (input sensitivity, subsetting)."""

import numpy as np
import pytest

from repro.config import ReproConfig
from repro.experiments import (
    build_dataset,
    run_input_sensitivity,
    run_subsetting,
)
from repro.workloads import get_benchmark

SMALL_CONFIG = ReproConfig(
    trace_length=8_000, ga_generations=6, ga_population=12
)


@pytest.fixture(scope="module")
def multi_input_dataset():
    """A small population including multi-input programs."""
    names = [
        "spec2000/bzip2/graphic",
        "spec2000/bzip2/program",
        "spec2000/bzip2/source",
        "spec2000/gzip/graphic",
        "spec2000/gzip/log",
        "spec2000/mcf/ref",
        "mibench/adpcm/rawcaudio",
        "mibench/adpcm/rawdaudio",
        "bioinfomark/blast/protein",
    ]
    return build_dataset(
        SMALL_CONFIG,
        benchmarks=[get_benchmark(name) for name in names],
        use_cache=False,
        jobs=1,
    )


class TestInputSensitivity:
    def test_multi_input_programs_found(self, multi_input_dataset):
        result = run_input_sensitivity(multi_input_dataset)
        assert set(result.per_program) == {"bzip2", "gzip", "adpcm"}
        assert result.per_program["bzip2"][0] == 3

    def test_same_program_closer_than_cross(self, multi_input_dataset):
        result = run_input_sensitivity(multi_input_dataset)
        assert result.intra_mean < result.inter_mean
        assert result.separation > 1.0

    def test_percentile_low(self, multi_input_dataset):
        result = run_input_sensitivity(multi_input_dataset)
        assert result.intra_percentile < 0.5

    def test_format_renders(self, multi_input_dataset):
        text = run_input_sensitivity(multi_input_dataset).format()
        assert "bzip2" in text
        assert "separation" in text


class TestSubsetting:
    def test_subset_smaller_than_population(self, multi_input_dataset):
        result = run_subsetting(
            multi_input_dataset, SMALL_CONFIG
        )
        assert 1 <= result.subset.size < len(multi_input_dataset)
        assert 0.0 < result.reduction < 1.0

    def test_representatives_are_population_members(
        self, multi_input_dataset
    ):
        result = run_subsetting(multi_input_dataset, SMALL_CONFIG)
        for representative in result.subset.representatives:
            assert 0 <= representative < len(multi_input_dataset)

    def test_errors_finite(self, multi_input_dataset):
        result = run_subsetting(multi_input_dataset, SMALL_CONFIG)
        assert np.isfinite(result.hpc_errors).all()
        assert (result.hpc_errors >= 0.0).all()

    def test_format_renders(self, multi_input_dataset):
        text = run_subsetting(multi_input_dataset, SMALL_CONFIG).format()
        assert "representative subset" in text
        assert "simulation reduction" in text


class TestPhaseHomogeneity:
    @pytest.fixture(scope="class")
    def homogeneity_result(self):
        from repro.experiments import run_phase_homogeneity

        return run_phase_homogeneity(
            ReproConfig(trace_length=6_000),
            benchmarks=("spec2000/gcc/166", "spec2000/mcf/ref"),
            interval=1_000,
        )

    def test_one_row_per_benchmark(self, homogeneity_result):
        assert len(homogeneity_result.rows) == 2
        names = [row.name for row in homogeneity_result.rows]
        assert names == ["spec2000/gcc/166", "spec2000/mcf/ref"]

    def test_rows_are_consistent(self, homogeneity_result):
        for row in homogeneity_result.rows:
            assert row.intervals == 6
            assert 1 <= row.k <= row.intervals
            assert row.within_std <= row.overall_std + 1e-9
            assert row.true_mean > 0.0
            assert np.isfinite(row.simpoint_estimate)
            assert row.simpoint_error < 1.0

    def test_simpoint_estimate_near_truth(self, homogeneity_result):
        # The SimPoint premise on this substrate: the phase-weighted
        # simulation-point IPC approximates the whole-run interval mean.
        assert homogeneity_result.mean_simpoint_error < 0.25

    def test_signature_choice_respected(self):
        from repro.experiments import run_phase_homogeneity

        result = run_phase_homogeneity(
            ReproConfig(trace_length=4_000),
            benchmarks=("spec2000/mcf/ref",),
            interval=1_000,
            signature="mica",
        )
        assert result.signature == "mica"
        assert len(result.rows) == 1

    def test_format_renders(self, homogeneity_result):
        text = homogeneity_result.format()
        assert "Phase homogeneity" in text
        assert "ipc_ev56" in text
        assert "simpoint err" in text
