"""Seeded traffic: named RNG streams, the household, the attempt pool,
the open-loop arrival schedule and the request mix.

Every random draw comes from a stream named after the subsystem that
uses it, derived from the one workload seed (root seed + stable stream
name, never Python's salted ``hash``).  Streams are isolated: drawing
more from ``arrivals`` (a higher rate, a longer run) leaves the
recordings and the request mix untouched, so two commits measured with
the same seed see identical traffic.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

#: Stable stream names.  Changing one changes the traffic of every seed.
ARRIVALS = "arrivals"
MIX = "mix"
ENROLL = "recordings.enroll"
POOL = "recordings.pool"

#: Enrolled household members and unenrolled spoofers (subject ids).
USERS = (1, 2, 3, 4)
SPOOFERS = (11, 12, 13, 14)

#: Share of requests sent by unenrolled spoofers.
SPOOF_SHARE = 0.25

#: Standing distance of every capture, as in ``scripts/serve_monitor.py``.
DISTANCE_M = 0.7


def stream(seed: int, name: str) -> np.random.Generator:
    """The generator of one named stream under the workload seed."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), zlib.crc32(name.encode())])
    )


def user_label(subject_id: int) -> str:
    return f"user-{subject_id}"


@dataclass(frozen=True)
class Attempt:
    """One distinct authentication attempt of the pool."""

    index: int
    subject_id: int
    enrolled: bool
    recordings: tuple

    @property
    def label(self) -> str:
        """The label a correct decision carries (spoofers: rejected)."""
        return user_label(self.subject_id) if self.enrolled else "spoofer"


@dataclass(frozen=True)
class Household:
    """Enrollment captures plus the pool of distinct attempts."""

    enrollment: dict
    pool: tuple


def pool_subjects(pool_size: int) -> list[tuple[int, bool]]:
    """``(subject_id, enrolled)`` for each pool slot, in slot order.

    A quarter of the slots go to spoofers, the rest cycle through the
    enrolled users, so every user and every spoofer has attempts.
    """
    spoof_slots = max(1, round(pool_size * SPOOF_SHARE))
    subjects = [
        (USERS[i % len(USERS)], True) for i in range(pool_size - spoof_slots)
    ]
    subjects += [
        (SPOOFERS[i % len(SPOOFERS)], False) for i in range(spoof_slots)
    ]
    return subjects


def synthesize_household(
    seed: int, enroll_beeps: int, attempt_beeps: int, pool_size: int
) -> Household:
    """Record the household's enrollment and the attempt pool.

    Each capture draws from its own sub-stream (``recordings.enroll.<id>``,
    ``recordings.pool.<slot>``), so resizing the pool or the enrollment
    leaves the other captures unchanged.
    """
    from repro.acoustics.noise import NoiseModel
    from repro.acoustics.scene import AcousticScene
    from repro.body.subject import SyntheticSubject
    from repro.signal.chirp import LFMChirp

    chirp = LFMChirp()
    scene = AcousticScene(noise=NoiseModel(kind="quiet", level_db_spl=30.0))
    subjects = {
        sid: SyntheticSubject(subject_id=sid) for sid in USERS + SPOOFERS
    }

    def record(subject_id: int, beeps: int, name: str) -> tuple:
        rng = stream(seed, name)
        clouds = subjects[subject_id].beep_clouds(DISTANCE_M, beeps, rng)
        return tuple(scene.record_beeps(chirp, clouds, rng))

    enrollment = {
        user_label(sid): list(record(sid, enroll_beeps, f"{ENROLL}.{sid}"))
        for sid in sorted(USERS)
    }
    pool = tuple(
        Attempt(
            index=slot,
            subject_id=sid,
            enrolled=enrolled,
            recordings=record(sid, attempt_beeps, f"{POOL}.{slot}"),
        )
        for slot, (sid, enrolled) in enumerate(pool_subjects(pool_size))
    )
    return Household(enrollment=enrollment, pool=pool)


def arrival_offsets(seed: int, rate_rps: float, count: int) -> np.ndarray:
    """Scheduled send times (s from phase start) of ``count`` arrivals.

    A Poisson process at ``rate_rps`` conditioned on exactly ``count``
    arrivals in its window ``count / rate_rps``: its arrival times are
    sorted uniform draws over the window.  Conditioning removes the run
    to run swing of the realised rate (about 7% at 200 arrivals) while
    keeping Poisson burstiness inside the window.
    """
    if rate_rps <= 0 or count < 1:
        raise ValueError("need a positive rate and at least one arrival")
    window = count / rate_rps
    return np.sort(stream(seed, ARRIVALS).uniform(0.0, window, size=count))


@dataclass(frozen=True)
class Draw:
    """One request of the mix: which pool attempt, from which tenant."""

    attempt: int
    tenant: str


def request_mix(
    seed: int,
    phase: str,
    count: int,
    pool_subject_flags: list[bool],
    tenant_weights: tuple[float, ...],
) -> list[Draw]:
    """The attempt and tenant of each request of one phase, in send order.

    Each phase draws from its own ``mix.<phase>`` stream, so the drain
    bursts do not shift when the open-loop phase gets longer.  A request
    is a spoofer's with probability :data:`SPOOF_SHARE`, then a uniformly
    drawn attempt of that kind; its tenant follows ``tenant_weights``.
    """
    rng = stream(seed, f"{MIX}.{phase}")
    users = [i for i, enrolled in enumerate(pool_subject_flags) if enrolled]
    spoofs = [
        i for i, enrolled in enumerate(pool_subject_flags) if not enrolled
    ]
    weights = np.asarray(tenant_weights, dtype=float)
    weights = weights / weights.sum()
    draws = []
    for _ in range(count):
        kind = spoofs if rng.random() < SPOOF_SHARE else users
        attempt = kind[int(rng.integers(len(kind)))]
        tenant = int(rng.choice(len(weights), p=weights))
        draws.append(Draw(attempt=attempt, tenant=f"tenant-{tenant}"))
    return draws
