"""Degradation-ladder semantics: beep subsetting and config scaling."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.acoustics.scene import BeepRecording
from repro.config import EchoImageConfig, ImagingConfig, MonitoringConfig
from repro.serve import DEFAULT_LADDER, DegradationPolicy, DegradationStep
from repro.serve.degradation import MIN_RESOLUTION


def _recordings(count: int) -> tuple[BeepRecording, ...]:
    return tuple(
        BeepRecording(
            samples=np.full((2, 8), float(i)),
            sample_rate=16000.0,
            emit_index=0,
        )
        for i in range(count)
    )


class TestDegradationStep:
    @pytest.mark.parametrize(
        ("total", "fraction", "kept"),
        [(8, 0.5, 4), (5, 0.5, 3), (1, 0.5, 1), (3, 1.0, 3), (4, 0.25, 1)],
    )
    def test_beep_subset_size(self, total, fraction, kept):
        step = DegradationStep("s", beep_fraction=fraction)
        assert len(step.select_recordings(_recordings(total))) == kept

    def test_leading_beeps_kept(self):
        step = DegradationStep("s", beep_fraction=0.5)
        kept = step.select_recordings(_recordings(4))
        assert [rec.samples[0, 0] for rec in kept] == [0.0, 1.0]

    def test_config_untouched_without_resolution_scale(self):
        config = EchoImageConfig()
        step = DegradationStep("s", beep_fraction=0.5)
        assert step.scale_config(config) is config

    def test_resolution_scaled_and_rest_preserved(self):
        # Every other field off its default, so a field the degraded
        # config failed to carry over would show.
        imaging = ImagingConfig(
            plane_side_m=1.5,
            grid_resolution=48,
            safeguard_s=4e-4,
            diagonal_loading=2e-3,
            subbands=3,
        )
        config = EchoImageConfig(
            imaging=imaging,
            monitoring=MonitoringConfig(
                drift_window=24,
                drift_min_samples=12,
                drift_mean_sigmas=3.0,
                drift_variance_ratio=5.0,
            ),
        )
        step = DegradationStep("s", resolution_scale=0.5)
        scaled = step.scale_config(config)
        assert scaled.imaging == replace(imaging, grid_resolution=24)
        assert replace(scaled, imaging=imaging) == config

    def test_resolution_floor(self):
        config = EchoImageConfig(
            imaging=ImagingConfig(grid_resolution=12)
        )
        step = DegradationStep("s", resolution_scale=0.25)
        scaled = step.scale_config(config)
        assert scaled.imaging.grid_resolution == MIN_RESOLUTION

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5])
    def test_invalid_beep_fraction_rejected(self, fraction):
        with pytest.raises(ValueError, match="beep_fraction"):
            DegradationStep("s", beep_fraction=fraction)

    @pytest.mark.parametrize("scale", [0.0, 2.0])
    def test_invalid_resolution_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="resolution_scale"):
            DegradationStep("s", resolution_scale=scale)


class TestDegradationPolicy:
    def test_default_ladder_order(self):
        assert [s.name for s in DegradationPolicy().steps] == [
            "half_beeps",
            "coarse_grid",
        ]
        assert DegradationPolicy().steps == DEFAULT_LADDER

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate step names"):
            DegradationPolicy(
                steps=(DegradationStep("a"), DegradationStep("a"))
            )

    def test_empty_ladder_allowed(self):
        assert DegradationPolicy(steps=()).steps == ()
