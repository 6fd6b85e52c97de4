"""Tests for the configuration dataclasses and constants."""

import math

import pytest

from repro import constants
from repro.config import (
    AuthenticationConfig,
    BeepConfig,
    DistanceEstimationConfig,
    EchoImageConfig,
    FeatureConfig,
    ImagingConfig,
    MonitoringConfig,
)


class TestConstants:
    def test_paper_values(self):
        assert constants.CHIRP_LOW_HZ == 2000.0
        assert constants.CHIRP_HIGH_HZ == 3000.0
        assert constants.CHIRP_DURATION_S == 0.002
        assert constants.BEEP_INTERVAL_S == 0.5
        assert constants.ECHO_PERIOD_S == 0.01
        assert constants.DEFAULT_SAMPLE_RATE == 48_000
        assert constants.RESPEAKER_NUM_MICS == 6


class TestBeepConfig:
    def test_defaults(self):
        beep = BeepConfig()
        assert beep.center_hz == 2500.0
        assert beep.bandwidth_hz == 1000.0
        assert beep.num_samples == 96

    def test_invalid_band(self):
        with pytest.raises(ValueError):
            BeepConfig(low_hz=3000.0, high_hz=2000.0)

    def test_nyquist(self):
        with pytest.raises(ValueError):
            BeepConfig(sample_rate=4000)


class TestDistanceConfig:
    def test_defaults_match_paper(self):
        config = DistanceEstimationConfig()
        assert config.steer_azimuth_rad == pytest.approx(math.pi / 2)
        assert math.pi / 3 <= config.steer_elevation_rad <= 2 * math.pi / 3
        assert config.echo_period_s == 0.01

    def test_invalid_elevation(self):
        with pytest.raises(ValueError):
            DistanceEstimationConfig(steer_elevation_rad=0.0)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            DistanceEstimationConfig(peak_threshold_ratio=1.0)


class TestImagingConfig:
    def test_paper_scale_supported(self):
        config = ImagingConfig(grid_resolution=180)
        assert config.num_grids == 32_400
        assert config.grid_size_m == pytest.approx(0.01)

    def test_invalid(self):
        with pytest.raises(ValueError):
            ImagingConfig(grid_resolution=1)
        with pytest.raises(ValueError):
            ImagingConfig(safeguard_s=0.0)


class TestFeatureConfig:
    def test_pool_depth_check(self):
        with pytest.raises(ValueError):
            FeatureConfig(input_size=16)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            FeatureConfig(widths=(8, 16, 0, 64, 64))


class TestAuthenticationConfig:
    def test_invalid_c(self):
        with pytest.raises(ValueError):
            AuthenticationConfig(svdd_c=0.0)

    def test_invalid_gamma_scale(self):
        with pytest.raises(ValueError):
            AuthenticationConfig(svdd_gamma_scale=0.0)


class TestEchoImageConfig:
    def test_bundle(self):
        config = EchoImageConfig()
        assert config.sample_rate == 48_000
        assert config.beep.center_hz == 2500.0


class TestMonitoringConfig:
    def test_defaults(self):
        config = MonitoringConfig()
        assert config.drift_window == 64
        assert 2 <= config.drift_min_samples <= config.drift_window

    def test_bundled_into_pipeline_config(self):
        config = EchoImageConfig(
            monitoring=MonitoringConfig(drift_window=8, drift_min_samples=4)
        )
        assert config.monitoring.drift_window == 8

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            MonitoringConfig(drift_window=1)

    def test_invalid_min_samples(self):
        with pytest.raises(ValueError):
            MonitoringConfig(drift_window=8, drift_min_samples=9)

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            MonitoringConfig(drift_mean_sigmas=0.0)
        with pytest.raises(ValueError):
            MonitoringConfig(drift_variance_ratio=1.0)
