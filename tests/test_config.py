"""Tests for repro.config."""

import pytest

from repro.config import DEFAULT_CONFIG, SMOKE_CONFIG, ReproConfig
from repro.errors import ConfigurationError


class TestReproConfig:
    def test_defaults_are_paper_values(self):
        config = ReproConfig()
        assert config.block_bytes == 32
        assert config.page_bytes == 4096
        assert config.ilp_window_sizes == (32, 64, 128, 256)
        assert config.reg_dep_thresholds == (1, 2, 4, 8, 16, 32, 64)
        assert config.stride_thresholds == (0, 8, 64, 512, 4096)
        assert config.similarity_threshold == 0.20
        assert config.kmeans_k_range == (1, 70)
        assert config.bic_score_fraction == 0.90

    def test_with_overrides_returns_new_instance(self):
        config = ReproConfig()
        other = config.with_overrides(trace_length=1234)
        assert other.trace_length == 1234
        assert config.trace_length != 1234
        assert other is not config

    def test_is_frozen(self):
        with pytest.raises(AttributeError):
            ReproConfig().trace_length = 5  # type: ignore[misc]

    def test_smoke_config_is_smaller(self):
        assert SMOKE_CONFIG.trace_length < DEFAULT_CONFIG.trace_length

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trace_length": 0},
            {"trace_length": -5},
            {"block_bytes": 0},
            {"block_bytes": 33},
            {"page_bytes": 1000},
            {"similarity_threshold": 0.0},
            {"similarity_threshold": 1.0},
            {"bic_score_fraction": 0.0},
            {"bic_score_fraction": 1.5},
            {"kmeans_k_range": (0, 10)},
            {"kmeans_k_range": (10, 5)},
            {"ppm_max_order": 0},
            {"ga_generations": 0},
            {"ga_population": 1},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ReproConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ilp_window_sizes": (32, 64)},
            {"ilp_window_sizes": (0, 32, 64, 128)},
            {"ilp_window_sizes": 32},
            {"reg_dep_thresholds": (1, 2, 4)},
            {"stride_thresholds": (0, 8, 64)},
            {"stride_thresholds": (0, 8, 64, 512, 4096, 8192)},
        ],
    )
    def test_section_tuples_must_fit_table_two(self, kwargs):
        """4 window sizes, 7 register and 5 stride thresholds: the
        widths of the 47-value schema (wrong lengths used to surface as
        a shape or numpy broadcast error deep in characterization)."""
        with pytest.raises(ConfigurationError):
            ReproConfig(**kwargs)
