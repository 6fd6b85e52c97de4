"""Graceful-degradation ladder for the serving layer.

When a request fails at full fidelity (ranging found no echo, a capture
is malformed, a worker hit a numerical edge), the serving layer walks a
ladder of cheaper/looser retries instead of failing the user outright:
first with fewer beeps (transient capture glitches usually poison one
beep, and Eq. 10 averages over beeps anyway), then additionally with a
coarser imaging grid (quartering the per-beep imaging work).  Each taken
step is recorded through ``echoimage_serve_degradations_total`` so a
fleet operator can see fidelity erosion before users complain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.acoustics.scene import BeepRecording
from repro.config import EchoImageConfig

#: Floor on the degraded grid resolution: below this the acoustic image
#: no longer resolves a torso-scale reflector on the paper's 1.8 m plane.
MIN_RESOLUTION = 8


@dataclass(frozen=True)
class DegradationStep:
    """One rung of the degradation ladder.

    Attributes:
        name: Identifier recorded in responses and telemetry.
        beep_fraction: Fraction of the attempt's beeps to keep (leading
            beeps are kept; at least one survives).
        resolution_scale: Multiplier on the imaging grid resolution
            (clamped to :data:`MIN_RESOLUTION`).

    Example:
        >>> step = DegradationStep("half", beep_fraction=0.5)
        >>> import numpy as np
        >>> recs = tuple(
        ...     BeepRecording(np.zeros((2, 8)), 16000.0, 0) for _ in range(5))
        >>> len(step.select_recordings(recs))
        3
    """

    name: str
    beep_fraction: float = 1.0
    resolution_scale: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.beep_fraction <= 1:
            raise ValueError("beep_fraction must lie in (0, 1]")
        if not 0 < self.resolution_scale <= 1:
            raise ValueError("resolution_scale must lie in (0, 1]")

    def select_recordings(
        self, recordings: tuple[BeepRecording, ...]
    ) -> list[BeepRecording]:
        """The subset of beeps this step authenticates with."""
        keep = max(1, math.ceil(len(recordings) * self.beep_fraction))
        return list(recordings[:keep])

    def scale_config(self, config: EchoImageConfig) -> EchoImageConfig:
        """The stage configuration this step images with."""
        if self.resolution_scale == 1.0:
            return config
        imaging = config.imaging
        resolution = max(
            MIN_RESOLUTION,
            int(imaging.grid_resolution * self.resolution_scale),
        )
        if resolution == imaging.grid_resolution:
            return config
        return replace(
            config, imaging=replace(imaging, grid_resolution=resolution)
        )


#: The default ladder: drop to half the beeps, then also quarter the
#: imaging work with a half-resolution grid.
DEFAULT_LADDER: tuple[DegradationStep, ...] = (
    DegradationStep("half_beeps", beep_fraction=0.5),
    DegradationStep(
        "coarse_grid", beep_fraction=0.5, resolution_scale=0.5
    ),
)


@dataclass(frozen=True)
class DegradationPolicy:
    """The ordered fallback steps a worker walks on failure.

    Example:
        >>> [step.name for step in DegradationPolicy().steps]
        ['half_beeps', 'coarse_grid']
        >>> DegradationPolicy(steps=()).steps
        ()
    """

    steps: tuple[DegradationStep, ...] = DEFAULT_LADDER

    def __post_init__(self) -> None:
        names = [step.name for step in self.steps]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate step names in ladder: {names}")
