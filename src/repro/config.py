"""Configuration dataclasses for the EchoImage pipeline.

Every stage of the pipeline (probing signal, distance estimation, image
construction, feature extraction, authentication) is parameterised by a small
frozen dataclass.  ``EchoImageConfig`` bundles them together and is the single
object users hand to :class:`repro.core.pipeline.EchoImagePipeline`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro import constants


@dataclass(frozen=True)
class BeepConfig:
    """Parameters of the probing beep signal (Section V-A).

    Attributes:
        low_hz: Lower edge of the chirp band.
        high_hz: Upper edge of the chirp band.
        duration_s: Length of one beep.
        interval_s: Time between consecutive beeps.
        amplitude: Peak amplitude of the emitted chirp.  In the simulator's
            calibration (amplitude 1.0 = 70 dB SPL at 1 m) the default of
            3.0 corresponds to ~79.5 dB at 1 m — a typical smart-speaker
            prompt loudness, which keeps body echoes above the ~50 dB
            playback noise of the testing conditions.
        sample_rate: Sampling rate used for synthesis and capture.

    Example:
        >>> beep = BeepConfig()          # the paper's 2-3 kHz, 2 ms chirp
        >>> beep.center_hz, beep.bandwidth_hz
        (2500.0, 1000.0)
        >>> BeepConfig(duration_s=0.004).num_samples
        192
    """

    low_hz: float = constants.CHIRP_LOW_HZ
    high_hz: float = constants.CHIRP_HIGH_HZ
    duration_s: float = constants.CHIRP_DURATION_S
    interval_s: float = constants.BEEP_INTERVAL_S
    amplitude: float = 3.0
    sample_rate: int = constants.DEFAULT_SAMPLE_RATE

    def __post_init__(self) -> None:
        if self.low_hz <= 0 or self.high_hz <= self.low_hz:
            raise ValueError(
                f"chirp band must satisfy 0 < low < high, got "
                f"[{self.low_hz}, {self.high_hz}]"
            )
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")
        if self.sample_rate < 2 * self.high_hz:
            raise ValueError(
                f"sample rate {self.sample_rate} violates Nyquist for "
                f"{self.high_hz} Hz"
            )

    @property
    def center_hz(self) -> float:
        """Centre frequency of the chirp band."""
        return (self.low_hz + self.high_hz) / 2.0

    @property
    def bandwidth_hz(self) -> float:
        """Swept bandwidth of the chirp."""
        return self.high_hz - self.low_hz

    @property
    def num_samples(self) -> int:
        """Number of samples in one beep."""
        return max(1, round(self.duration_s * self.sample_rate))


@dataclass(frozen=True)
class DistanceEstimationConfig:
    """Parameters of the distance estimator (Section V-B).

    Attributes:
        steer_azimuth_rad: Azimuth the array is steered to (paper: pi/2,
            i.e. straight ahead of the array).
        steer_elevation_rad: Elevation steered to (paper: in [pi/3, 2pi/3]).
        echo_period_s: Length of the echo search window after the chirp
            period.
        peak_min_separation_s: Minimum separation ``d`` between local maxima.
        peak_threshold_ratio: Peaks below this fraction of the global maximum
            of the averaged envelope are discarded (the paper's threshold
            ``th`` expressed relative to the strongest peak).
        envelope_smoothing_hz: Cut-off of the low-pass smoother applied to
            the rectified matched-filter output when extracting envelopes.
        direct_search_window_s: The direct speaker→mic arrival ``tau_1``
            must fall within this window after the emission; when the
            beamformer suppresses the direct peak below threshold, the
            (known) emission instant is used as the time origin instead.

    Example:
        >>> import math
        >>> cfg = DistanceEstimationConfig()   # paper defaults
        >>> cfg.steer_azimuth_rad == math.pi / 2
        True
        >>> DistanceEstimationConfig(peak_threshold_ratio=0.1).echo_period_s
        0.01
    """

    steer_azimuth_rad: float = math.pi / 2
    steer_elevation_rad: float = math.pi / 3
    echo_period_s: float = constants.ECHO_PERIOD_S
    peak_min_separation_s: float = 4e-4
    peak_threshold_ratio: float = 0.05
    envelope_smoothing_hz: float = 2_000.0
    direct_search_window_s: float = 2e-3

    def __post_init__(self) -> None:
        if not 0 < self.steer_elevation_rad < math.pi:
            raise ValueError("steer_elevation_rad must lie in (0, pi)")
        if self.echo_period_s <= 0:
            raise ValueError("echo_period_s must be positive")
        if not 0 <= self.peak_threshold_ratio < 1:
            raise ValueError("peak_threshold_ratio must lie in [0, 1)")


@dataclass(frozen=True)
class ImagingConfig:
    """Parameters of the acoustic image constructor (Section V-C).

    Attributes:
        plane_side_m: Side length of the square virtual imaging plane.  The
            paper uses 180 grids of 1 cm, i.e. 1.8 m.
        grid_resolution: Number of grids along each side (paper: 180; the
            default is reduced so a pure-NumPy build stays interactive).
        safeguard_s: Safeguard time ``d'`` around the expected round-trip
            delay when extracting the per-grid segment.
        diagonal_loading: Loading factor added to the noise covariance before
            inversion in the MVDR weights.
        subbands: Number of sub-bands for frequency-compounded imaging
            (an extension beyond the paper): the chirp band is split, each
            sub-band is beamformed and range-gated separately, and pixel
            energies are averaged incoherently — the classic speckle
            reduction of ultrasound imaging.  1 reproduces the paper's
            single-band imager.

    Example:
        >>> cfg = ImagingConfig(grid_resolution=180)   # the paper's plane
        >>> cfg.num_grids, round(cfg.grid_size_m, 3)
        (32400, 0.01)
    """

    plane_side_m: float = 1.8
    grid_resolution: int = 48
    safeguard_s: float = 3e-4
    diagonal_loading: float = 1e-3
    subbands: int = 1

    def __post_init__(self) -> None:
        if self.plane_side_m <= 0:
            raise ValueError("plane_side_m must be positive")
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be at least 2")
        if self.safeguard_s <= 0:
            raise ValueError("safeguard_s must be positive")
        if self.subbands < 1:
            raise ValueError("subbands must be >= 1")

    @property
    def num_grids(self) -> int:
        """Total number of grids K on the imaging plane."""
        return self.grid_resolution**2

    @property
    def grid_size_m(self) -> float:
        """Side length of a single grid cell."""
        return self.plane_side_m / self.grid_resolution


@dataclass(frozen=True)
class FeatureConfig:
    """Parameters of the frozen-CNN feature extractor (Section V-D).

    Attributes:
        input_size: Images are resized to ``input_size x input_size`` before
            entering the network (the paper resizes to the VGGish input).
        widths: Output channel counts of the five convolutional stages.
        seed: Seed of the deterministic "pre-trained" weight initialisation.

    Example:
        >>> cfg = FeatureConfig()
        >>> cfg.input_size, len(cfg.widths)
        (64, 5)
        >>> FeatureConfig(input_size=16)    # 5 pooling stages need >= 32
        Traceback (most recent call last):
            ...
        ValueError: input_size 16 too small for 5 pooling stages
    """

    input_size: int = 64
    widths: tuple[int, ...] = (8, 16, 32, 64, 64)
    seed: int = 1811

    def __post_init__(self) -> None:
        if self.input_size < 2 ** len(self.widths):
            raise ValueError(
                f"input_size {self.input_size} too small for "
                f"{len(self.widths)} pooling stages"
            )
        if any(w <= 0 for w in self.widths):
            raise ValueError("all stage widths must be positive")


@dataclass(frozen=True)
class AuthenticationConfig:
    """Parameters of the SVDD + SVM cascade (Section V-E).

    Attributes:
        svdd_c: Box constraint of the one-class SVDD.
        svm_c: Box constraint of the n-class SVM.
        kernel_gamma: RBF kernel width; ``None`` selects the median
            heuristic at fit time.
        svdd_gamma_scale: Multiplier applied to the median-heuristic gamma
            of the SVDD only (the spoofer gate benefits from a tighter
            kernel than the multiclass SVM).
        svdd_margin: Fractional slack added to the SVDD radius at decision
            time (positive values loosen the spoofer gate).
        svdd_radius_quantile: Quantile of the enrollment distances used as
            the SVDD decision radius; pins the enrollment-time false
            rejection rate.

    Example:
        >>> cfg = AuthenticationConfig(svdd_margin=0.3)  # loosen the gate
        >>> cfg.svdd_c, cfg.kernel_gamma is None
        (0.05, True)
    """

    svdd_c: float = 0.05
    svm_c: float = 10.0
    kernel_gamma: float | None = None
    svdd_gamma_scale: float = 2.0
    svdd_margin: float = 0.02
    svdd_radius_quantile: float = 0.99

    def __post_init__(self) -> None:
        if self.svdd_c <= 0 or self.svm_c <= 0:
            raise ValueError("box constraints must be positive")
        if self.svdd_gamma_scale <= 0:
            raise ValueError("svdd_gamma_scale must be positive")


@dataclass(frozen=True)
class MonitoringConfig:
    """Parameters of the quality-telemetry layer (metrics + drift).

    Attributes:
        drift_window: Sliding-window length of every drift monitor.
        drift_min_samples: Observations required before drift tests run;
            also the auto-baseline size for quantities with no
            enrollment-time baseline (e.g. channel SNR).
        drift_mean_sigmas: Mean-shift alert threshold in standard errors
            of the frozen baseline.
        drift_variance_ratio: Variance-shift alert threshold: alert when
            the window/baseline variance ratio leaves
            ``[1/ratio, ratio]``.

    Example:
        >>> cfg = MonitoringConfig(drift_window=32)
        >>> cfg.drift_min_samples <= cfg.drift_window
        True
    """

    drift_window: int = 64
    drift_min_samples: int = 16
    drift_mean_sigmas: float = 4.0
    drift_variance_ratio: float = 6.0

    def __post_init__(self) -> None:
        if self.drift_window < 2:
            raise ValueError("drift_window must be >= 2")
        if not 2 <= self.drift_min_samples <= self.drift_window:
            raise ValueError(
                "drift_min_samples must lie in [2, drift_window]"
            )
        if self.drift_mean_sigmas <= 0:
            raise ValueError("drift_mean_sigmas must be positive")
        if self.drift_variance_ratio <= 1.0:
            raise ValueError("drift_variance_ratio must exceed 1")


@dataclass(frozen=True)
class SentinelConfig:
    """Parameters of the streaming security sentinel
    (:mod:`repro.obs.sentinel`).

    Attributes:
        ewma_alpha: Smoothing factor of the per-tenant reject-rate and
            shed-rate EWMAs (higher = reacts faster, forgets faster).
        reject_rate_threshold: EWMA reject-rate ceiling above which the
            ``reject_spike`` rule fires.
        shed_rate_threshold: EWMA broker-shed-rate ceiling of the
            ``shed_spike`` rule.
        min_attempts: Observations required from a tenant before its
            rate rules may fire (suppresses cold-start noise).
        probe_run: Consecutive monotonically climbing rejected scores
            required before ``threshold_probing`` fires.
        probe_band: Width of the score band below the accept gate at 0;
            a climbing run only fires once its latest score lands within
            the band.
        probe_tolerance: Slack allowed in the "monotonically climbing"
            test (scores may dip by this much and still count).
        min_interval_s: Inter-attempt gap below which back-to-back
            attempts are considered faster than human re-positioning.
        burst_run: Consecutive too-fast gaps before ``velocity_burst``
            fires.
        tenant_fanout: Distinct tenants one accepted user must appear
            from (inside ``fanout_window_s``) before ``tenant_fanout``
            fires.
        fanout_window_s: Sliding window of the fan-out tracker.
        cooldown_s: Per ``(rule, key)`` re-fire suppression after an
            alert, across edge re-arms.
        shard_window: Sliding-window length of the per-shard score
            drift monitors.
        shard_min_samples: Observations before shard drift tests run
            (also the auto-baseline size without a frozen baseline).
        shard_mean_sigmas: Mean-shift threshold of the shard monitors.
        shard_variance_ratio: Variance-ratio threshold of the shard
            monitors.

    Example:
        >>> cfg = SentinelConfig(probe_run=3)
        >>> cfg.reject_rate_threshold
        0.8
        >>> SentinelConfig(ewma_alpha=1.5)
        Traceback (most recent call last):
            ...
        ValueError: ewma_alpha must lie in (0, 1], got 1.5
        >>> SentinelConfig(tenant_fanout=1)
        Traceback (most recent call last):
            ...
        ValueError: tenant_fanout must be >= 2
    """

    ewma_alpha: float = 0.25
    reject_rate_threshold: float = 0.8
    shed_rate_threshold: float = 0.6
    min_attempts: int = 6
    probe_run: int = 4
    probe_band: float = 0.2
    probe_tolerance: float = 0.005
    min_interval_s: float = 0.5
    burst_run: int = 3
    tenant_fanout: int = 3
    fanout_window_s: float = 30.0
    cooldown_s: float = 30.0
    shard_window: int = 32
    shard_min_samples: int = 8
    shard_mean_sigmas: float = 4.0
    shard_variance_ratio: float = 6.0

    def __post_init__(self) -> None:
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError(
                f"ewma_alpha must lie in (0, 1], got {self.ewma_alpha}"
            )
        for name in ("reject_rate_threshold", "shed_rate_threshold"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(
                    f"{name} must lie in (0, 1), got {value}"
                )
        if self.min_attempts < 1:
            raise ValueError("min_attempts must be >= 1")
        if self.probe_run < 2:
            raise ValueError("probe_run must be >= 2")
        if self.probe_band <= 0 or self.probe_tolerance < 0:
            raise ValueError(
                "probe_band must be positive and probe_tolerance >= 0"
            )
        if self.min_interval_s < 0 or self.cooldown_s < 0:
            raise ValueError(
                "min_interval_s and cooldown_s must be >= 0"
            )
        if self.burst_run < 1:
            raise ValueError("burst_run must be >= 1")
        if self.tenant_fanout < 2:
            raise ValueError("tenant_fanout must be >= 2")
        if self.fanout_window_s <= 0:
            raise ValueError("fanout_window_s must be positive")
        if self.shard_window < 2:
            raise ValueError("shard_window must be >= 2")
        if not 2 <= self.shard_min_samples <= self.shard_window:
            raise ValueError(
                "shard_min_samples must lie in [2, shard_window]"
            )
        if self.shard_mean_sigmas <= 0:
            raise ValueError("shard_mean_sigmas must be positive")
        if self.shard_variance_ratio <= 1.0:
            raise ValueError("shard_variance_ratio must exceed 1")


@dataclass(frozen=True)
class ServingConfig:
    """Parameters of the batched serving layer (:mod:`repro.serve`).

    Every worker serves through the library's own attempt loop
    (:meth:`repro.core.pipeline.EchoImagePipeline.authenticate`), so
    no serving option changes how an attempt is imaged.

    Attributes:
        backend: Worker-pool flavour: ``"thread"`` (default; zero-copy
            sharing of the model bundle, bit-identical to a direct
            pipeline call), ``"process"`` (sidesteps the GIL for
            CPU-bound NumPy segments that do not release it), or
            ``"serial"`` (in-line execution, the debugging baseline).
        max_workers: Worker count; ``0`` picks ``os.cpu_count()``.
        timeout_s: End-to-end budget for one submitted batch.  Requests
            that have not finished when it expires are reported as
            ``timeout`` failures; their work is abandoned, not
            interrupted.

    Failed requests walk the ``BatchAuthenticator``'s degradation
    ladder before being reported; ``DegradationPolicy(steps=())`` turns
    the ladder off.

    Example:
        >>> cfg = ServingConfig(backend="serial")
        >>> cfg.resolve_workers() >= 1
        True
        >>> ServingConfig(backend="fibre")
        Traceback (most recent call last):
            ...
        ValueError: backend must be one of serial|thread|process, got 'fibre'
    """

    backend: str = "thread"
    max_workers: int = 0
    timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.backend not in ("serial", "thread", "process"):
            raise ValueError(
                f"backend must be one of serial|thread|process, "
                f"got {self.backend!r}"
            )
        if self.max_workers < 0:
            raise ValueError("max_workers must be non-negative")
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")

    def resolve_workers(self) -> int:
        """The effective worker count (``max_workers`` or CPU count)."""
        if self.max_workers:
            return self.max_workers
        import os

        return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class ExitPolicy:
    """Early-exit policy for streaming authentication.

    :meth:`repro.core.pipeline.EchoImagePipeline.authenticate_streaming`
    images and scores beeps one at a time and stops consuming further
    beeps once the running aggregate clears this policy.  The exit check
    is three-way conjunctive at beep ``i`` (1-based):

    - ``i >= min_beeps``;
    - every per-beep label seen so far agrees (unanimous prefix);
    - ``|mean(svdd prefix scores)| >= score_threshold`` and, when the
      unanimous label is an accept, ``mean(svm prefix margins) >=
      margin_threshold``.

    The defaults (``score_threshold = inf``) never exit, which makes the
    streaming path reproduce the batch decision bit-for-bit — the
    disabled policy is the correctness anchor that the property tests
    pin.

    Attributes:
        min_beeps: Never exit before this many beeps have been scored.
        score_threshold: Magnitude the running mean SVDD score must
            clear before an exit is considered.  ``math.inf`` (default)
            disables early exit entirely.
        margin_threshold: Additional floor on the running mean SVM
            margin required to exit on an *accept* decision (rejects
            need only the score threshold — spoofer evidence does not
            produce margins).

    Example:
        >>> ExitPolicy().enabled            # defaults never exit
        False
        >>> ExitPolicy(score_threshold=0.5).enabled
        True
        >>> ExitPolicy(min_beeps=0)
        Traceback (most recent call last):
            ...
        ValueError: min_beeps must be >= 1
    """

    min_beeps: int = 2
    score_threshold: float = math.inf
    margin_threshold: float = 0.0

    def __post_init__(self) -> None:
        if self.min_beeps < 1:
            raise ValueError("min_beeps must be >= 1")
        if self.score_threshold < 0:
            raise ValueError("score_threshold must be non-negative")
        if self.margin_threshold < 0:
            raise ValueError("margin_threshold must be non-negative")

    @property
    def enabled(self) -> bool:
        """Whether this policy can ever trigger an early exit."""
        return math.isfinite(self.score_threshold)


@dataclass(frozen=True)
class BrokerConfig:
    """Parameters of the continuous-ingest request broker.

    The broker (:class:`repro.serve.RequestBroker`) fronts a
    :class:`repro.serve.BatchAuthenticator` with a bounded queue:
    requests beyond ``capacity`` are shed immediately with a structured
    ``shed`` response instead of queueing without bound, tenants are
    drained round-robin so one chatty tenant cannot starve the rest,
    and — when an SLO tracker is attached — new admissions are shed
    while the fast-window availability burn rate exceeds
    ``max_burn_rate`` (load-shedding protects the remaining error
    budget).

    Attributes:
        capacity: Bounded queue depth; admissions beyond it are shed
            with reason ``"capacity"``.
        dispatch_batch: Maximum requests the dispatcher hands to the
            authenticator per batch.
        max_burn_rate: Availability burn-rate ceiling consulted on
            admission when an SLO tracker is attached; ``0`` disables
            SLO-aware shedding.
        burn_window_s: Which tracker burn window to consult, in seconds
            (must be one of the tracker's ``burn_windows_s``).
        poll_interval_s: Dispatcher sleep while the queue is empty.
        drain_timeout_s: Upper bound :meth:`~repro.serve.RequestBroker.close`
            waits for in-flight work before giving up.

    Example:
        >>> cfg = BrokerConfig(capacity=8)
        >>> cfg.dispatch_batch <= cfg.capacity
        True
        >>> BrokerConfig(capacity=0)
        Traceback (most recent call last):
            ...
        ValueError: capacity must be >= 1
    """

    capacity: int = 64
    dispatch_batch: int = 8
    max_burn_rate: float = 0.0
    burn_window_s: float = 300.0
    poll_interval_s: float = 0.005
    drain_timeout_s: float = 60.0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if self.dispatch_batch < 1:
            raise ValueError("dispatch_batch must be >= 1")
        if self.dispatch_batch > self.capacity:
            raise ValueError("dispatch_batch must not exceed capacity")
        if self.max_burn_rate < 0:
            raise ValueError("max_burn_rate must be >= 0 (0 = disabled)")
        if self.burn_window_s <= 0:
            raise ValueError("burn_window_s must be positive")
        if self.poll_interval_s <= 0 or self.drain_timeout_s <= 0:
            raise ValueError("poll/drain intervals must be positive")


@dataclass(frozen=True)
class EchoImageConfig:
    """Bundle of all stage configurations for the EchoImage pipeline.

    Example:
        >>> cfg = EchoImageConfig(imaging=ImagingConfig(grid_resolution=96))
        >>> cfg.sample_rate               # shared by every stage
        48000
        >>> cfg.imaging.num_grids
        9216
    """

    beep: BeepConfig = field(default_factory=BeepConfig)
    distance: DistanceEstimationConfig = field(
        default_factory=DistanceEstimationConfig
    )
    imaging: ImagingConfig = field(default_factory=ImagingConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    auth: AuthenticationConfig = field(default_factory=AuthenticationConfig)
    monitoring: MonitoringConfig = field(default_factory=MonitoringConfig)

    @property
    def sample_rate(self) -> int:
        """Sampling rate shared by every pipeline stage."""
        return self.beep.sample_rate
