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
norms are computed from the covariance of each distinct segment window and
a per-plane table of each grid's steering products (``_table_energies``);
neither the beamformer weights nor the beamformed segments are formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.array.beamforming import MVDRBeamformer
from repro.array.covariance import estimate_noise_covariance
from repro.array.geometry import MicrophoneArray
from repro.array.steering import steering_vectors
from repro.acoustics.scene import BeepRecording
from repro.config import BeepConfig, ImagingConfig
from repro.core.telemetry import pipeline_metrics
from repro.obs import ensure_trace, trace
from repro.signal.analytic import AnalyticCaptures
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
        """Build the plane described by an :class:`ImagingConfig`."""
        return cls(
            distance_m=distance_m,
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
        speed_of_sound: Speed of sound in m/s; sets the segment delays,
            the steering phases and the default MVDR beamformer's.
        beamformer_factory: Optional override producing the beamformer from
            ``(array, noise_covariance)`` for the ablation benches.  Only
            its :attr:`~repro.array.beamforming.Beamformer.weighting_matrix`
            is used; the imager steers every grid itself.

    Example::

        from repro import AcousticImager, ImagingPlane
        from repro.array.geometry import respeaker_array

        imager = AcousticImager(array=respeaker_array())
        plane = ImagingPlane(distance_m=0.7)
        image = imager.image(recording, plane)
        image.shape            # (plane.resolution, plane.resolution)

    Each call records an ``imaging.image`` span (one ``imaging.band``
    child per sub-band, with a ``table_cached`` attribute) into the
    ambient :mod:`repro.obs` trace.  The first beep imaged on a plane
    builds its steering tables and later beeps on it reuse them, so
    share one imager per worker, not across threads.
    """

    def __init__(
        self,
        array: MicrophoneArray,
        beep: BeepConfig | None = None,
        config: ImagingConfig | None = None,
        speed_of_sound: float = 343.0,
        beamformer_factory=None,
    ) -> None:
        self.array = array
        self.beep = beep or BeepConfig()
        self.config = config or ImagingConfig()
        self.speed_of_sound = speed_of_sound
        self._kernel_key: tuple | None = None
        self._gather: _SegmentGather | None = None
        self._tables: dict[int, np.ndarray] = {}
        self._pack_index = _hermitian_pack_index(array.num_mics)
        self._beamformer_factory = beamformer_factory or (
            lambda arr, cov: MVDRBeamformer(
                array=arr,
                frequency_hz=self.beep.center_hz,
                noise_covariance=cov,
                loading=self.config.diagonal_loading,
                speed_of_sound=self.speed_of_sound,
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
        self,
        recording: BeepRecording,
        plane: ImagingPlane,
        captures: AnalyticCaptures | None = None,
    ) -> np.ndarray:
        """Construct the acoustic image ``AI_l`` from one beep capture.

        With ``config.subbands == 1`` this is exactly the paper's imager
        (Section V-C); with more sub-bands the per-band pixel energies are
        averaged incoherently (frequency compounding).  A one-beep
        :meth:`images` call.

        Args:
            recording: One multichannel beep capture.
            plane: The imaging plane (placed at the estimated distance).
            captures: ``[recording]``'s band-passed analytic captures, as
                in :meth:`images`.

        Returns:
            Image of shape ``(resolution, resolution)`` of non-negative
            pixel values (segment L2 norms).
        """
        (image,) = self.images([recording], plane, captures)
        return image

    def images(
        self,
        recordings: list[BeepRecording],
        plane: ImagingPlane,
        captures: AnalyticCaptures | None = None,
    ) -> list[np.ndarray]:
        """One acoustic image per beep capture.

        The beeps share the plane: the first builds its steering tables
        and the rest reuse them.  Each sub-band's front end (band-pass
        filter and Hilbert transform) runs once over the stacked
        ``(L, M, N)`` capture, beep by beep when the captures differ in
        shape or sample rate, and not at all for a sub-band whose filter
        equals that of ``captures`` — the attempt's ranging captures
        (:meth:`~repro.core.distance.DistanceEstimator.captures`), as at
        the default ``subbands = 1``.

        The energies go through one per-beep kernel, so a beep's image
        does not depend on the other beeps of the call, and the call
        holds one ``(K,)`` energy row per beep beyond what one beep
        needs.  It records one ``imaging.image`` span.

        Returns:
            One ``(resolution, resolution)`` image per recording, in
            input order (``[]`` for none).
        """
        if not recordings:
            return []
        with ensure_trace(), trace(
            "imaging.image",
            num_beeps=len(recordings),
            resolution=plane.resolution,
            subbands=self.config.subbands,
            distance_m=plane.distance_m,
            bytes=int(sum(rec.samples.nbytes for rec in recordings)),
        ) as span:
            pixels = self._pixels(recordings, plane, captures)  # (L, K)
            metrics = pipeline_metrics()
            if metrics is not None:
                # Imaging fidelity: how far the brightest pixel (the body
                # reflection of Eqs. 11-12) stands above the clutter floor.
                for row in pixels:
                    floor = float(np.median(row)) + 1e-30
                    dynamic_range_db = 20.0 * np.log10(
                        float(row.max()) / floor + 1e-30
                    )
                    metrics.image_dynamic_range_db.observe(dynamic_range_db)
                # Like the band-energy gauge, the span keeps the last beep's.
                span.set("dynamic_range_db", float(dynamic_range_db))
            return [
                row.reshape(plane.resolution, plane.resolution)
                for row in pixels
            ]

    image_batch = images  # perfbench wraps this name; ROADMAP item 6 drops it

    def _pixels(
        self,
        recordings: list[BeepRecording],
        plane: ImagingPlane,
        captures: AnalyticCaptures | None,
    ) -> np.ndarray:
        """Pixel values of every beep, ``(L, K)``: the root of the mean
        segment energy over the sub-bands.

        The bands are summed in place into the first band's energies,
        in band order, which is bitwise what ``np.mean`` over the
        stacked ``(subbands, L, K)`` energies computes, without the
        stack.
        """
        pixels = self._band_energies(recordings, plane, 0, captures)
        for band in range(1, self.config.subbands):
            pixels += self._band_energies(recordings, plane, band, captures)
        pixels /= self.config.subbands
        return np.sqrt(pixels, out=pixels)

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
        of the beamformer whose weighting matrix ``P`` the energies use.
        Every beep goes through this once with the same operands however
        it is batched (an analytic row is bitwise the same whether its
        beep was filtered alone, in a stack, or by ranging), which is
        what makes a beep's image independent of the call it is in.

        Returns ``(energies, table_was_cached)``.
        """
        noise_cov = estimate_noise_covariance(
            analytic, noise_samples=recording.emit_index
        )
        beamformer = self._beamformer_factory(self.array, noise_cov)
        gather, table, was_cached = self._steering_table(
            plane, recording, band_index
        )
        energies = _table_energies(
            beamformer.weighting_matrix,
            _window_covariances(analytic, gather),
            table,
            gather,
            self._pack_index,
        )
        return energies, was_cached

    def _steering_table(
        self,
        plane: ImagingPlane,
        recording: BeepRecording,
        band_index: int,
    ) -> tuple["_SegmentGather", np.ndarray, bool]:
        """The plane's segment gather and one sub-band's steering table.

        Both depend only on the plane, the capture geometry and the
        sub-band, not on the samples, so the first beep imaged on a plane
        builds them and a new plane drops them.  The table's columns
        follow the gather's window order.

        Returns ``(gather, table, table_was_cached)``.
        """
        key = (
            plane,
            recording.sample_rate,
            recording.emit_index,
            recording.num_samples,
        )
        if self._kernel_key != key:
            # Free the old plane's tables before building the new ones.
            self._kernel_key, self._gather, self._tables = None, None, {}
            self._gather = self._segment_gather(plane, *key[1:])
            self._kernel_key = key
        gather = self._gather
        table = self._tables.get(band_index)
        if table is not None:
            return gather, table, True
        edges = self._subband_edges
        table = _steering_products(
            self.array,
            *plane.grid_angles(),
            gather.order,
            (edges[band_index] + edges[band_index + 1]) / 2.0,
            self.speed_of_sound,
        )
        self._tables[band_index] = table
        return gather, table, False

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
        segment tensor.
        """
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
        return _SegmentGather(
            order=order,
            starts=window_starts,
            groups=tuple(zip(bounds[:-1], bounds[1:])),
            length=length,
        )

    def _band_energies(
        self,
        recordings: list[BeepRecording],
        plane: ImagingPlane,
        band_index: int,
        captures: AnalyticCaptures | None,
    ) -> np.ndarray:
        """Per-grid energies of one sub-band for all beeps, ``(L, K)``."""
        bandpass = self._bandpasses[band_index]
        with trace(
            "imaging.band",
            band=band_index,
            low_hz=float(bandpass.low_hz),
            high_hz=float(bandpass.high_hz),
            num_grids=plane.num_grids,
            num_beeps=len(recordings),
        ) as span:
            # The attempt's shared captures serve this sub-band when they
            # were made from these recordings with an equal filter.
            if captures is None or not captures.matches(
                recordings, bandpass
            ):
                captures = AnalyticCaptures(recordings, bandpass)
            energies = np.empty((len(recordings), plane.num_grids))
            any_cached = False
            for index, (recording, analytic) in enumerate(
                zip(recordings, captures.rows)
            ):
                energies[index], was_cached = self._beep_energies(
                    analytic, recording, plane, band_index
                )
                any_cached = any_cached or was_cached
            span.set("table_cached", any_cached)
            metrics = pipeline_metrics()
            if metrics is not None:
                # The gauge holds the band energy of the last beep imaged.
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


def _hermitian_pack_index(num_mics: int) -> np.ndarray:
    """Index into the float view of a flattened Hermitian ``(M, M)``
    matrix ``Q`` picking its ``M^2`` reals: ``Re Q_mm`` for every m, then
    ``Re Q_ij`` and ``Im Q_ij`` for every ``i < j``."""
    upper_i, upper_j = np.triu_indices(num_mics, 1)
    upper = 2 * (upper_i * num_mics + upper_j)
    index = np.concatenate(
        [2 * (num_mics + 1) * np.arange(num_mics), upper, upper + 1]
    )
    index.setflags(write=False)
    return index


def _steering_products(
    array: MicrophoneArray,
    azimuths_rad: np.ndarray,
    elevations_rad: np.ndarray,
    order: np.ndarray,
    frequency_hz: float,
    speed_of_sound: float,
) -> np.ndarray:
    """Read-only ``(M^2, K)`` table of steering products.

    Column k holds, for the steering vector ``a`` of direction
    ``order[k]``, ``|a_m|^2`` for every m, then ``2 Re(conj(a_i) a_j)``
    and ``-2 Im(conj(a_i) a_j)`` for every ``i < j``, so that
    ``a^H Q a = q @ table[:, k]`` for a Hermitian ``Q`` packed into ``q``
    by :func:`_hermitian_pack_index`.  Directions are steered a block at
    a time, so the table is the only ``O(K M^2)`` allocation.
    """
    num_mics = array.num_mics
    num_pairs = num_mics * (num_mics - 1) // 2
    table = np.empty((num_mics**2, order.size))
    for begin in range(0, order.size, _TABLE_BLOCK):
        block = slice(begin, begin + _TABLE_BLOCK)
        directions = order[block]
        steering = np.ascontiguousarray(
            steering_vectors(
                array,
                azimuths_rad[directions],
                elevations_rad[directions],
                frequency_hz,
                speed_of_sound,
            ).T
        )  # (M, n)
        rows = table[:, block]
        np.square(np.abs(steering), out=rows[:num_mics])
        # The pairs i < j in row-major order, one i at a time.
        first = num_mics
        for i in range(num_mics - 1):
            products = steering[i + 1 :] * steering[i].conj()
            last = first + len(products)
            np.multiply(products.real, 2.0, out=rows[first:last])
            np.multiply(
                products.imag,
                -2.0,
                out=rows[first + num_pairs : last + num_pairs],
            )
            first = last
    table.setflags(write=False)
    return table


#: Directions steered at once while building a table (bounds its scratch).
_TABLE_BLOCK = 4096


def _window_covariances(
    analytic: np.ndarray, gather: _SegmentGather
) -> np.ndarray:
    """Covariances ``R_g = X_g X_g^H`` of the G segment windows ``X_g``
    of an ``(M, N)`` capture, shape ``(G, M, M)``."""
    windows = sliding_window_view(analytic, gather.length, axis=-1)
    segments = windows[:, gather.starts].transpose(1, 0, 2)  # (G, M, S)
    return segments @ segments.conj().transpose(0, 2, 1)


def _table_energies(
    weighting: np.ndarray,
    covariances: np.ndarray,
    table: np.ndarray,
    gather: _SegmentGather,
    pack_index: np.ndarray,
) -> np.ndarray:
    """Beamformed segment energies per grid, shape ``(K,)``.

    With weights ``w_k = P a_k / (a_k^H P a_k)`` (``P`` the beamformer's
    weighting matrix), grid k's energy is the squared L2 norm of its
    beamformed segment, ``||w_k^H X_g||^2 =
    a_k^H (P^H R_g P) a_k / (a_k^H P a_k)^2`` with ``R_g = X_g X_g^H``
    the covariance of the window the grid shares with its group.  Both
    quadratic forms are dot products of ``M^2`` packed reals with the
    grid's ``table`` column, so each window costs one
    ``(2, M^2) @ (M^2, n_g)`` product and no weight is formed.  The
    numerator can round a hair below zero for a grid steered into a null
    of its window, so energies are clamped at zero (``sqrt`` would make
    that a NaN pixel).
    """
    weighting = np.asarray(weighting, dtype=complex)
    forms = weighting.conj().T @ covariances @ weighting  # (G, M, M)
    packed = np.empty((len(gather.groups), 2, pack_index.size))
    packed[:, 0] = forms.reshape(len(forms), -1).view(float)[:, pack_index]
    packed[:, 1] = weighting.reshape(-1).view(float)[pack_index]
    products = np.empty((2, gather.order.size))
    for pair, (begin, end) in zip(packed, gather.groups):
        np.matmul(pair, table[:, begin:end], out=products[:, begin:end])
    numerators, denominators = products
    if np.any(denominators <= 0):
        raise ValueError(
            "beamformer denominator non-positive; the weighting matrix "
            "is not positive definite"
        )
    np.square(denominators, out=denominators)
    np.divide(numerators, denominators, out=numerators)
    energies = np.empty(gather.order.size)
    energies[gather.order] = numerators
    return np.maximum(energies, 0.0, out=energies)
