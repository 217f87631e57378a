"""Tests for the full-report runner (including extensions)."""

import pytest

from repro.config import ReproConfig
from repro.experiments import build_dataset, run_all

SMALL_CONFIG = ReproConfig(
    trace_length=8_000, ga_generations=6, ga_population=12
)


@pytest.fixture(scope="module")
def report(small_population):
    dataset = build_dataset(
        SMALL_CONFIG, benchmarks=small_population, use_cache=False, jobs=1
    )
    return run_all(SMALL_CONFIG, dataset=dataset, include_extensions=True)


class TestFullReport:
    def test_extension_sections_present(self, report):
        assert report.input_sensitivity is not None
        assert report.subsetting is not None
        text = report.format()
        assert "Input-set sensitivity" in text
        assert "Benchmark subsetting" in text

    def test_extensions_optional(self, small_population):
        dataset = build_dataset(
            SMALL_CONFIG, benchmarks=small_population, use_cache=False,
            jobs=1,
        )
        plain = run_all(SMALL_CONFIG, dataset=dataset)
        assert plain.input_sensitivity is None
        assert plain.subsetting is None
        assert "Input-set sensitivity" not in plain.format()

    def test_report_sections_ordered(self, report):
        text = report.format()
        positions = [
            text.index(marker)
            for marker in ("Figure 1", "Table III", "Figures 2-3",
                           "Figure 4", "Figure 5", "Table IV", "Figure 6")
        ]
        assert positions == sorted(positions)

    def test_kiviat_toggle(self, report):
        with_kiviats = report.format(kiviat_plots=True)
        without = report.format(kiviat_plots=False)
        assert len(with_kiviats) > len(without)
