"""Acoustic image construction (Section V-C).

A virtual square imaging plane is placed at the estimated user distance
``D_p``, parallel to the x-o-z plane, and divided into K grids.  For grid k
centred at ``(x_k, D_p, z_k)`` the steering angles are (Eqs. 11–12)

.. math::

    \\theta_k = \\arccos \\frac{x_k}{\\sqrt{x_k^2 + D_p^2}}, \\qquad
    \\varphi_k = \\arccos \\frac{z_k}{\\sqrt{x_k^2 + D_p^2 + z_k^2}}

The array is MVDR-steered to every grid; from each beamformed signal the
segment whose round-trip delay matches the grid's range
``D_k = sqrt(x_k^2 + D_p^2 + z_k^2)`` (within a safeguard ``d'``) is
extracted, and the pixel value is the segment's L2 norm — the energy of
echoes arriving *from that direction at that range*, which is what
separates body echoes from same-direction clutter at other ranges.  The
norms are computed from the covariance of each distinct segment window
(``_window_energies``); the beamformed segments are never formed.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.array.beamforming import Beamformer, MVDRBeamformer
from repro.array.covariance import estimate_noise_covariance
from repro.array.geometry import MicrophoneArray
from repro.acoustics.scene import BeepRecording
from repro.config import BeepConfig, ImagingConfig
from repro.core.telemetry import pipeline_metrics
from repro.obs import ensure_trace, trace
from repro.signal.analytic import analytic_signal
from repro.signal.filters import BandpassFilter


@dataclass(frozen=True)
class ImagingPlane:
    """The virtual imaging plane at distance ``D_p`` from the array.

    Grids are ordered row-major with rows spanning z from top to bottom and
    columns spanning x from left to right, so ``pixels.reshape(res, res)``
    renders the user upright.

    Attributes:
        distance_m: Plane distance ``D_p``.
        side_m: Side length of the square plane.
        resolution: Grids per side; ``K = resolution**2``.
        center_z_m: Vertical centre of the plane relative to the array
            (0 = array height).

    Example:
        >>> plane = ImagingPlane(distance_m=0.7, side_m=1.8, resolution=3)
        >>> plane.num_grids
        9
        >>> theta, phi = plane.grid_angles()      # Eqs. 11-12, cached
        >>> theta.shape, bool(theta.flags.writeable)
        ((9,), False)
        >>> float(plane.grid_ranges().min()) >= plane.distance_m
        True
    """

    distance_m: float
    side_m: float = 1.8
    resolution: int = 48
    center_z_m: float = 0.0

    def __post_init__(self) -> None:
        if self.distance_m <= 0:
            raise ValueError(f"distance must be positive, got {self.distance_m}")
        if self.side_m <= 0:
            raise ValueError(f"side must be positive, got {self.side_m}")
        if self.resolution < 2:
            raise ValueError(f"resolution must be >= 2, got {self.resolution}")

    @classmethod
    def from_config(
        cls, distance_m: float, config: ImagingConfig, center_z_m: float = 0.0
    ) -> "ImagingPlane":
        """Build the plane described by an :class:`ImagingConfig`.

        The distance is snapped to the config's plane-distance grid so
        ranging jitter between visits cannot move the plane.
        """
        return cls(
            distance_m=config.snap_distance(distance_m),
            side_m=config.plane_side_m,
            resolution=config.grid_resolution,
            center_z_m=center_z_m,
        )

    @property
    def num_grids(self) -> int:
        """Total number of grids K."""
        return self.resolution**2

    def _memo(self, key: str, compute):
        """Per-instance memo for the derived grid geometry.

        The plane is frozen, so every derived array is computed at most
        once per instance; results are returned read-only because they
        are shared between callers (the imager replays them for every
        beep of an attempt).
        """
        cache = getattr(self, "_geometry_memo", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_geometry_memo", cache)
        if key not in cache:
            value = compute()
            for array in value if isinstance(value, tuple) else (value,):
                array.setflags(write=False)
            cache[key] = value
        return cache[key]

    def grid_coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened grid centres ``(x_k, z_k)``, each of shape ``(K,)``."""

        def compute() -> tuple[np.ndarray, np.ndarray]:
            half = self.side_m / 2.0
            # Cell centres, z descending so row 0 is the top of the image.
            offsets = (np.arange(self.resolution) + 0.5) / self.resolution
            xs = -half + offsets * self.side_m
            zs = self.center_z_m + half - offsets * self.side_m
            grid_z, grid_x = np.meshgrid(zs, xs, indexing="ij")
            return grid_x.ravel(), grid_z.ravel()

        return self._memo("coordinates", compute)

    def grid_angles(self) -> tuple[np.ndarray, np.ndarray]:
        """Steering angles ``(theta_k, phi_k)`` of Eqs. (11)–(12)."""

        def compute() -> tuple[np.ndarray, np.ndarray]:
            x_k, z_k = self.grid_coordinates()
            d_p = self.distance_m
            theta = np.arccos(x_k / np.sqrt(x_k**2 + d_p**2))
            phi = np.arccos(z_k / np.sqrt(x_k**2 + d_p**2 + z_k**2))
            return theta, phi

        return self._memo("angles", compute)

    def grid_ranges(self) -> np.ndarray:
        """Grid-to-origin distances ``D_k``, shape ``(K,)``."""

        def compute() -> np.ndarray:
            x_k, z_k = self.grid_coordinates()
            return np.sqrt(x_k**2 + self.distance_m**2 + z_k**2)

        return self._memo("ranges", compute)


class AcousticImager:
    """Beamforming-based acoustic imaging of Section V-C.

    Args:
        array: The microphone array.
        beep: Probing-signal parameters.
        config: Imaging parameters (plane size, resolution, safeguard).
        speed_of_sound: Speed of sound in m/s.
        beamformer_factory: Optional override producing the beamformer from
            ``(array, noise_covariance)`` for the ablation benches.
        steering_cache: Reuse the per-band steering matrices across the
            beeps imaged on one plane (default on).  The steering
            geometry depends only on ``(plane, sub-band)`` — not on the
            recording — so recomputing it for every beep × sub-band is
            pure waste; see ``scripts/profile_pipeline.py`` for the
            measured effect.  Disable only to benchmark the uncached
            path or when a custom beamformer's steering varies per call.

    Example::

        from repro import AcousticImager, ImagingPlane
        from repro.array.geometry import respeaker_array

        imager = AcousticImager(array=respeaker_array())
        plane = ImagingPlane(distance_m=0.7)
        image = imager.image(recording, plane)
        image.shape            # (plane.resolution, plane.resolution)

    Each call records an ``imaging.image`` span (one ``imaging.band``
    child per sub-band, with a ``steering_cached`` attribute) into the
    ambient :mod:`repro.obs` trace.  When imaging the L beeps of one
    attempt (``imager.images(recordings, plane)``), the first beep warms
    the steering cache and the rest reuse it.
    """

    def __init__(
        self,
        array: MicrophoneArray,
        beep: BeepConfig | None = None,
        config: ImagingConfig | None = None,
        speed_of_sound: float = 343.0,
        beamformer_factory=None,
        steering_cache: bool = True,
    ) -> None:
        self.array = array
        self.beep = beep or BeepConfig()
        self.config = config or ImagingConfig()
        self.speed_of_sound = speed_of_sound
        self.steering_cache_enabled = steering_cache
        self._steering_plane: ImagingPlane | None = None
        self._steering_by_band: dict[int, np.ndarray] = {}
        self._gather_key: tuple | None = None
        self._gather: _SegmentGather | None = None
        self._scratch: dict[tuple, np.ndarray] = {}
        self._beamformer_factory = beamformer_factory or (
            lambda arr, cov: MVDRBeamformer(
                array=arr,
                frequency_hz=self.beep.center_hz,
                noise_covariance=cov,
                loading=self.config.diagonal_loading,
            )
        )
        self._subband_edges = np.linspace(
            self.beep.low_hz, self.beep.high_hz, self.config.subbands + 1
        )
        self._bandpasses = [
            BandpassFilter(
                low_hz=self._subband_edges[i],
                high_hz=self._subband_edges[i + 1],
                sample_rate=self.beep.sample_rate,
                order=3 if self.config.subbands > 1 else 4,
            )
            for i in range(self.config.subbands)
        ]

    def image(
        self, recording: BeepRecording, plane: ImagingPlane
    ) -> np.ndarray:
        """Construct the acoustic image ``AI_l`` from one beep capture.

        With ``config.subbands == 1`` this is exactly the paper's imager
        (Section V-C); with more sub-bands the per-band pixel energies are
        averaged incoherently (frequency compounding).

        Args:
            recording: One multichannel beep capture.
            plane: The imaging plane (placed at the estimated distance).

        Returns:
            Image of shape ``(resolution, resolution)`` of non-negative
            pixel values (segment L2 norms).
        """
        with ensure_trace(), trace(
            "imaging.image",
            resolution=plane.resolution,
            subbands=self.config.subbands,
            distance_m=plane.distance_m,
            bytes=int(recording.samples.nbytes),
        ) as span:
            energies = [
                self._band_energy(recording, plane, band_index)
                for band_index in range(self.config.subbands)
            ]
            pixels = np.sqrt(np.mean(energies, axis=0))
            metrics = pipeline_metrics()
            if metrics is not None:
                # Imaging fidelity: how far the brightest pixel (the body
                # reflection of Eqs. 11-12) stands above the clutter floor.
                floor = float(np.median(pixels)) + 1e-30
                dynamic_range_db = 20.0 * np.log10(
                    float(pixels.max()) / floor + 1e-30
                )
                metrics.image_dynamic_range_db.observe(dynamic_range_db)
                span.set("dynamic_range_db", float(dynamic_range_db))
            return pixels.reshape(plane.resolution, plane.resolution)

    def _band_steering(
        self,
        beamformer: Beamformer,
        plane: ImagingPlane,
        band_index: int,
    ) -> tuple[np.ndarray | None, bool]:
        """The (possibly cached) steering matrix for one plane sub-band.

        Returns:
            ``(steering, was_cached)`` — ``steering`` is ``None`` when the
            cache is disabled or the beamformer does not accept a
            precomputed steering matrix.
        """
        if not self.steering_cache_enabled:
            return None, False
        if not getattr(beamformer, "uses_steering", True):
            return None, False
        if not hasattr(beamformer, "steering_batch") or not _accepts_steering(
            beamformer
        ):
            return None, False
        if self._steering_plane != plane:
            # New plane (new attempt): the old grid geometry is dead.
            self._steering_plane = plane
            self._steering_by_band = {}
        cached = self._steering_by_band.get(band_index)
        if cached is not None:
            return cached, True
        theta, phi = plane.grid_angles()
        steer = beamformer.steering_batch(theta, phi)
        self._steering_by_band[band_index] = steer
        return steer, False

    def _band_energy(
        self,
        recording: BeepRecording,
        plane: ImagingPlane,
        band_index: int,
    ) -> np.ndarray:
        """Per-grid segment energy of one sub-band, shape ``(K,)``."""
        band_low = self._subband_edges[band_index]
        band_high = self._subband_edges[band_index + 1]
        with trace(
            "imaging.band",
            band=band_index,
            low_hz=float(band_low),
            high_hz=float(band_high),
            num_grids=plane.num_grids,
        ) as span:
            filtered = self._bandpasses[band_index].apply(recording.samples)
            analytic = analytic_signal(filtered)
            energies, was_cached = self._beep_energies(
                analytic, recording, plane, band_index
            )
            span.set("steering_cached", was_cached)
            metrics = pipeline_metrics()
            if metrics is not None:
                metrics.image_band_energy.labels(band=band_index).set(
                    float(energies.sum())
                )
            return energies

    def _beep_energies(
        self,
        analytic: np.ndarray,
        recording: BeepRecording,
        plane: ImagingPlane,
        band_index: int,
    ) -> tuple[np.ndarray, bool]:
        """Per-grid segment energies ``(K,)`` of one beep's sub-band.

        ``analytic`` is the beep's band-passed analytic capture
        ``(M, N)``; its pre-emission samples give the noise covariance
        of the ``(K, M)`` MVDR weights.  :meth:`image` and
        :meth:`image_batch` both call this once per beep with identical
        operands, which is what keeps their outputs bit-identical.

        Returns ``(energies, steering_was_cached)``.
        """
        noise_cov = estimate_noise_covariance(
            analytic, noise_samples=recording.emit_index
        )
        beamformer: Beamformer = self._beamformer_factory(
            self.array, noise_cov
        )
        # Steer at the sub-band centre frequency.
        edges = self._subband_edges
        beamformer.frequency_hz = (
            edges[band_index] + edges[band_index + 1]
        ) / 2.0
        theta, phi = plane.grid_angles()
        steering, was_cached = self._band_steering(
            beamformer, plane, band_index
        )
        if steering is not None:
            weights = beamformer.weights_batch(theta, phi, steering=steering)
        else:
            weights = beamformer.weights_batch(theta, phi)
        gather = self._segment_gather(
            plane,
            sample_rate=recording.sample_rate,
            emit_index=recording.emit_index,
            num_samples=recording.num_samples,
        )
        num_mics = recording.num_mics
        energies = _window_energies(
            analytic,
            weights,
            gather,
            self._scratch_buffer("weights", plane.num_grids, num_mics),
            self._scratch_buffer("projected", plane.num_grids, num_mics),
        )
        return energies, was_cached

    def _segment_gather(
        self,
        plane: ImagingPlane,
        sample_rate: float,
        emit_index: int,
        num_samples: int,
    ) -> "_SegmentGather":
        """Per-grid segment windows, grouped by their start sample.

        Grid k's segment is centred on its round-trip delay ``2 D_k / c``
        after the emission, ``S = 2 * safeguard + 1`` samples long, and
        clamped inside the capture.  Because the delays are quantised to
        samples, the K grids share only G ~ O(delay spread) distinct
        windows (~230 for the paper's 180x180 plane); grouping the grids
        by window start lets the energy kernel form one ``(M, M)``
        covariance per *window* instead of beamforming a ``(K, S)``
        segment tensor.  The grouping depends only on the plane and the
        capture geometry — not on the samples — so it is cached and
        replayed for every beep and sub-band of an attempt.
        """
        key = (plane, sample_rate, emit_index, num_samples)
        if self._gather_key == key and self._gather is not None:
            return self._gather
        ranges = plane.grid_ranges()
        delays = 2.0 * ranges / self.speed_of_sound
        centers = emit_index + np.round(delays * sample_rate).astype(int)
        half = max(1, round(self.config.safeguard_s * sample_rate))
        # Clamp segment windows inside the capture.
        starts = np.clip(centers - half, 0, num_samples - 1)
        length = 2 * half + 1
        starts = np.minimum(starts, num_samples - length)
        if np.any(starts < 0):
            raise ValueError(
                "capture too short for the imaging segments; increase the "
                "scene capture window or reduce the plane size"
            )
        order = np.argsort(starts, kind="stable")
        sorted_starts = starts[order]
        # Position of each window's first grid in window order.
        firsts = np.flatnonzero(np.diff(sorted_starts, prepend=-1))
        bounds = [*firsts.tolist(), starts.size]
        window_starts = sorted_starts[firsts]
        order.setflags(write=False)
        window_starts.setflags(write=False)
        gather = _SegmentGather(
            order=order,
            starts=window_starts,
            groups=tuple(zip(bounds[:-1], bounds[1:])),
            length=length,
        )
        self._gather_key = key
        self._gather = gather
        return gather

    def _scratch_buffer(self, role: str, *shape: int) -> np.ndarray:
        """A reusable complex work buffer of the requested shape.

        The kernel's ``(K, M)`` buffers (conjugated weights in window
        order, and their products with the window covariances) reach
        3 MB each on the paper's 180x180 plane, large enough that a fresh
        ``np.empty`` per beep lands in ``mmap``-ed memory and pays kernel
        page-fault cost on every write; reusing one buffer per (role,
        shape) keeps the pages warm.  ``role``
        separates buffers that are live at the same time.  Callers fully
        overwrite the buffer before reading it.  (Like the steering
        cache, this makes the imager stateful — share one imager per
        worker, not across threads.)
        """
        key = (role, *shape)
        buffer = self._scratch.get(key)
        if buffer is None:
            if len(self._scratch) >= 4:  # bound memory across shapes
                self._scratch.pop(next(iter(self._scratch)))
            buffer = np.empty(shape, dtype=complex)
            self._scratch[key] = buffer
        return buffer

    def images(
        self, recordings: list[BeepRecording], plane: ImagingPlane
    ) -> list[np.ndarray]:
        """One acoustic image per beep capture.

        The first beep warms the per-band steering cache for ``plane``;
        every subsequent beep reuses it (see ``steering_cache``).
        """
        return [self.image(rec, plane) for rec in recordings]

    def image_batch(
        self, recordings: list[BeepRecording], plane: ImagingPlane
    ) -> list[np.ndarray]:
        """Batched equivalent of :meth:`images` for one attempt.

        The L beeps of an attempt share the imaging plane, so the heavy
        per-beep front end — band-pass filtering and the Hilbert
        transform — is evaluated once on the stacked ``(L, M, N)``
        capture instead of L times, and the per-band steering matrices
        are computed once and replayed (the cache the sequential path
        only warms after the first beep).  The MVDR weights and segment
        energies then go through the same per-beep kernel as
        :meth:`image`, so the output matches the sequential path
        bit-for-bit by construction (the golden harness under
        ``tests/golden`` enforces ≤1e-10 drift as a safety net), and the
        batch holds no per-beep working memory beyond one ``(K,)``
        energy row per beep.

        Falls back to the sequential loop when the captures are
        heterogeneous (different channel counts, lengths or sample
        rates).  An empty list returns ``[]``.

        Returns:
            One ``(resolution, resolution)`` image per recording, in
            input order.
        """
        if not recordings:
            return []
        if len(recordings) == 1 or not _stackable(recordings):
            return self.images(recordings, plane)
        with ensure_trace(), trace(
            "imaging.image_batch",
            num_beeps=len(recordings),
            resolution=plane.resolution,
            subbands=self.config.subbands,
            distance_m=plane.distance_m,
            bytes=int(sum(rec.samples.nbytes for rec in recordings)),
        ):
            stacked = np.stack(
                [rec.samples for rec in recordings]
            )  # (L, M, N)
            energies = [
                self._band_energy_batch(stacked, recordings, plane, band)
                for band in range(self.config.subbands)
            ]  # subbands x (L, K)
            pixels = np.sqrt(np.mean(energies, axis=0))  # (L, K)
            metrics = pipeline_metrics()
            if metrics is not None:
                for row in pixels:
                    floor = float(np.median(row)) + 1e-30
                    metrics.image_dynamic_range_db.observe(
                        20.0 * np.log10(float(row.max()) / floor + 1e-30)
                    )
            return [
                row.reshape(plane.resolution, plane.resolution)
                for row in pixels
            ]

    def _band_energy_batch(
        self,
        stacked: np.ndarray,
        recordings: list[BeepRecording],
        plane: ImagingPlane,
        band_index: int,
    ) -> np.ndarray:
        """Per-grid energies of one sub-band for all beeps, ``(L, K)``."""
        band_low = self._subband_edges[band_index]
        band_high = self._subband_edges[band_index + 1]
        with trace(
            "imaging.band",
            band=band_index,
            low_hz=float(band_low),
            high_hz=float(band_high),
            num_grids=plane.num_grids,
            num_beeps=len(recordings),
        ) as span:
            # One zero-phase filter + Hilbert transform over the whole
            # batch: both operate row-wise along the last axis, so each
            # beep's analytic signal is bit-identical to the sequential
            # path's while the per-call setup cost is paid once.
            filtered = self._bandpasses[band_index].apply(stacked)
            analytic = analytic_signal(filtered)  # (L, M, N)
            energies = np.empty((len(recordings), plane.num_grids))
            any_cached = False
            for index, recording in enumerate(recordings):
                energies[index], was_cached = self._beep_energies(
                    analytic[index], recording, plane, band_index
                )
                any_cached = any_cached or was_cached
            span.set("steering_cached", any_cached)
            metrics = pipeline_metrics()
            if metrics is not None:
                # Parity with the sequential loop: the gauge holds the
                # band energy of the last beep imaged.
                metrics.image_band_energy.labels(band=band_index).set(
                    float(energies[-1].sum())
                )
            return energies


@dataclass(frozen=True)
class _SegmentGather:
    """Grids grouped by shared segment window (see ``_segment_gather``).

    Attributes:
        order: Permutation sorting the K grids by window start.
        starts: The G distinct window start samples, ascending.
        groups: One ``(begin, end)`` pair per window: grids
            ``order[begin:end]`` all use the window
            ``[starts[g], starts[g] + length)``.
        length: Window length ``S = 2 * safeguard + 1``.
    """

    order: np.ndarray
    starts: np.ndarray
    groups: tuple[tuple[int, int], ...]
    length: int


def _window_energies(
    analytic: np.ndarray,
    weights: np.ndarray,
    gather: _SegmentGather,
    conj_weights: np.ndarray,
    projected: np.ndarray,
) -> np.ndarray:
    """Beamformed segment energies per grid, shape ``(K,)``.

    Grid k's pixel energy is the squared L2 norm of its beamformed
    segment, ``||w_k^H X_g||^2 = Re(w_k^H R_g w_k)`` with ``X_g`` the
    ``(M, S)`` analytic window the grid shares with the rest of its
    group and ``R_g = X_g X_g^H``.  So the kernel forms the G ``(M, M)``
    window covariances in one batched matmul, then evaluates the
    quadratic forms: one ``(n_g, M) @ (M, M)`` product per window into
    the ``(K, M)`` buffer ``projected`` (rows ``w_k^H R_g``, in window
    order), and one real reduction against the conjugated weights staged
    in ``conj_weights``.  No ``(K, S)`` beamformed tensor exists.  The
    quadratic form can round a hair below zero for a grid steered into
    a null of its window, so energies are clamped at zero (``sqrt``
    would make that a NaN pixel).
    """
    windows = sliding_window_view(analytic, gather.length, axis=-1)
    segments = windows[:, gather.starts].transpose(1, 0, 2)  # (G, M, S)
    covariances = segments @ segments.conj().transpose(0, 2, 1)
    # ``order`` is a permutation, so "clip" never clips; it only spares
    # ``take`` the buffered copy its default mode makes into ``out``.
    np.take(weights, gather.order, axis=0, out=conj_weights, mode="clip")
    np.conjugate(conj_weights, out=conj_weights)
    for covariance, (begin, end) in zip(covariances, gather.groups):
        np.matmul(
            conj_weights[begin:end], covariance, out=projected[begin:end]
        )
    # Re(w_k^H R_g w_k) = Re(sum_m projected_km w_km); the float view of
    # conj_weights interleaves (Re w, -Im w), so one real dot product per
    # row of the interleaved float views is exactly that real part.
    energies = np.empty(gather.order.size)
    energies[gather.order] = np.einsum(
        "kf,kf->k", projected.view(float), conj_weights.view(float)
    )
    return np.maximum(energies, 0.0, out=energies)


def _stackable(recordings: list[BeepRecording]) -> bool:
    """Whether all captures share one shape and sample rate."""
    first = recordings[0]
    return all(
        rec.samples.shape == first.samples.shape
        and rec.sample_rate == first.sample_rate
        for rec in recordings[1:]
    )


_STEERING_SUPPORT: dict[type, bool] = {}


def _accepts_steering(beamformer: Beamformer) -> bool:
    """Whether ``weights_batch`` takes a precomputed ``steering=`` matrix.

    Custom beamformers from older ``beamformer_factory`` overrides may
    still use the two-argument signature; they silently fall back to the
    uncached path instead of crashing.
    """
    kind = type(beamformer)
    supported = _STEERING_SUPPORT.get(kind)
    if supported is None:
        try:
            parameters = inspect.signature(kind.weights_batch).parameters
            supported = "steering" in parameters or any(
                p.kind is inspect.Parameter.VAR_KEYWORD
                for p in parameters.values()
            )
        except (TypeError, ValueError):  # pragma: no cover - exotic callables
            supported = False
        _STEERING_SUPPORT[kind] = supported
    return supported
