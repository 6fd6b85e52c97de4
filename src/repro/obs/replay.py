"""Replay a captured request and localise any divergence to a stage.

The counterpart of :mod:`repro.obs.capture`: given a
:class:`~repro.obs.capture.RequestCapture` and the
:class:`~repro.serve.bundle.ModelBundle` that served it,
:func:`replay_request` rebuilds the exact pipeline (same resolved
config, feature mode and imaging path), re-executes the captured
recordings, and walks the stage DAG comparing the fresh per-stage
digests against the recorded ones.  The re-execution's own capture is
taken with :func:`~repro.obs.capture.collect_captures`, so a replay
never writes into, or swaps out, the installed capture store.  The
result is a
:class:`ReplayReport` with one of three verdicts:

``identical``
    Every stage digest and the decision match bit-for-bit.
``divergent``
    Something differs in a matching environment; the report names the
    *first* diverging stage (in :data:`~repro.obs.capture.STAGE_ORDER`)
    and — when both sides kept the full arrays — the ``max_abs_err``
    and flat index of the first worst offender.
``environment-mismatch``
    Something differs *and* the replaying environment (interpreter,
    numpy, platform, machine or bundle content hash) does not match the
    recording one, so the divergence is attributed to the environment
    rather than to nondeterminism.

This module imports :mod:`repro.serve` types only lazily/duck-typed and
is deliberately **not** re-exported from ``repro.obs`` (the package
cannot depend on the serving layer); import it directly::

    from repro.obs.replay import replay_request

``scripts/replay_request.py`` renders reports with the exit-code
contract 0=identical / 1=divergent or environment-mismatch /
2=not-found, and CI replays a captured request on every run so any
nondeterminism introduced into the hot path fails loudly with the
exact stage named.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs.capture import (
    STAGE_ORDER,
    RequestCapture,
    capture_environment,
    collect_captures,
    decision_document,
    identify_decision_document,
)
from repro.obs.metrics import SCHEMA_VERSION

VERDICT_IDENTICAL = "identical"
VERDICT_DIVERGENT = "divergent"
VERDICT_ENVIRONMENT = "environment-mismatch"

#: Fingerprint keys compared for the environment-mismatch verdict.
#: ``git_sha``/``hostname``/``cpu_count``/``repro_scale`` are reported
#: but not gating: replaying on another checkout of the same code, or a
#: box with more cores, must not mask genuine nondeterminism.
ENVIRONMENT_KEYS = ("python", "numpy", "platform", "machine")


@dataclass
class StageComparison:
    """Recorded-vs-replayed evidence for one stage of the DAG.

    ``max_abs_err``/``first_offender_index`` are filled only when both
    sides kept the full array (and shapes agree); a digest-only
    mismatch still names the stage, just without localisation.
    """

    stage: str
    recorded: str | None
    replayed: str | None
    match: bool
    max_abs_err: float | None = None
    first_offender_index: int | None = None
    note: str | None = None

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "recorded": self.recorded,
            "replayed": self.replayed,
            "match": self.match,
            "max_abs_err": self.max_abs_err,
            "first_offender_index": self.first_offender_index,
            "note": self.note,
        }


@dataclass
class ReplayReport:
    """Outcome of re-executing one capture.

    Attributes:
        request_id / kind: Echo of the capture's identity.
        verdict: :data:`VERDICT_IDENTICAL` / :data:`VERDICT_DIVERGENT`
            / :data:`VERDICT_ENVIRONMENT`.
        stage: First diverging stage in canonical order (``None`` when
            identical).
        max_abs_err: Elementwise worst error at the first diverging
            stage, when arrays were available on both sides.
        first_offender_index: Flat index of that worst element.
        stages: Per-stage comparisons in canonical order.
        decision_match: Whether the decision documents are byte-equal.
        decision_diffs: Names of decision fields that differ.
        environment_mismatches: Fingerprint keys (plus ``bundle_hash``)
            that differ between recording and replay.
        recorded_decision / replayed_decision: Both decision documents,
            for dispute rendering.
    """

    request_id: str
    kind: str
    verdict: str
    stage: str | None = None
    max_abs_err: float | None = None
    first_offender_index: int | None = None
    stages: list = field(default_factory=list)
    decision_match: bool = True
    decision_diffs: list = field(default_factory=list)
    environment_mismatches: list = field(default_factory=list)
    recorded_decision: dict = field(default_factory=dict)
    replayed_decision: dict = field(default_factory=dict)
    bundle_hash_recorded: str | None = None
    bundle_hash_replayed: str | None = None

    @property
    def identical(self) -> bool:
        return self.verdict == VERDICT_IDENTICAL

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "kind": "replay_report",
            "request_id": self.request_id,
            "capture_kind": self.kind,
            "verdict": self.verdict,
            "stage": self.stage,
            "max_abs_err": self.max_abs_err,
            "first_offender_index": self.first_offender_index,
            "stages": [comparison.to_dict() for comparison in self.stages],
            "decision_match": self.decision_match,
            "decision_diffs": list(self.decision_diffs),
            "environment_mismatches": list(self.environment_mismatches),
            "recorded_decision": dict(self.recorded_decision),
            "replayed_decision": dict(self.replayed_decision),
            "bundle_hash_recorded": self.bundle_hash_recorded,
            "bundle_hash_replayed": self.bundle_hash_replayed,
        }

    def render_table(self) -> str:
        """Human-readable report for terminals and incident timelines."""
        lines = [
            f"replay {self.request_id} ({self.kind})",
            f"verdict: {self.verdict}"
            + (
                f" at stage {self.stage!r}"
                if self.stage is not None
                else ""
            ),
        ]
        if self.bundle_hash_recorded or self.bundle_hash_replayed:
            lines.append(
                f"bundle: recorded={self.bundle_hash_recorded} "
                f"replayed={self.bundle_hash_replayed}"
            )
        if self.environment_mismatches:
            lines.append(
                "environment mismatches: "
                + ", ".join(self.environment_mismatches)
            )
        header = (
            f"{'stage':<12} {'recorded':<18} {'replayed':<18} "
            f"{'match':<6} {'max|err|':<12} {'offender'}"
        )
        lines += [header, "-" * len(header)]
        for comparison in self.stages:
            err = (
                f"{comparison.max_abs_err:.3e}"
                if comparison.max_abs_err is not None
                else "-"
            )
            offender = (
                str(comparison.first_offender_index)
                if comparison.first_offender_index is not None
                else "-"
            )
            lines.append(
                f"{comparison.stage:<12} "
                f"{comparison.recorded or '-':<18} "
                f"{comparison.replayed or '-':<18} "
                f"{'yes' if comparison.match else 'NO':<6} "
                f"{err:<12} {offender}"
            )
        if self.decision_match:
            decision = self.recorded_decision
            lines.append(
                "decision: match "
                f"(label={decision.get('label')!r} "
                f"accepted={decision.get('accepted')})"
            )
        else:
            lines.append(
                "decision: DIFFERS in " + ", ".join(self.decision_diffs)
            )
            lines.append(f"  recorded: {self.recorded_decision}")
            lines.append(f"  replayed: {self.replayed_decision}")
        return "\n".join(lines)


def compare_stages(
    recorded_digests: dict,
    replayed_digests: dict,
    recorded_arrays: dict | None = None,
    replayed_arrays: dict | None = None,
) -> list:
    """Per-stage comparisons in canonical order (then any extras).

    Pure digest/array walking, shared by :func:`replay_request` and
    :func:`replay_identify` and unit-testable without a pipeline.
    """
    recorded_arrays = recorded_arrays or {}
    replayed_arrays = replayed_arrays or {}
    stages = [s for s in STAGE_ORDER if s in recorded_digests
              or s in replayed_digests]
    stages += sorted(
        (set(recorded_digests) | set(replayed_digests)) - set(stages)
    )
    comparisons = []
    for stage in stages:
        recorded = recorded_digests.get(stage)
        replayed = replayed_digests.get(stage)
        comparison = StageComparison(
            stage=stage,
            recorded=recorded,
            replayed=replayed,
            match=recorded is not None and recorded == replayed,
        )
        if not comparison.match:
            if recorded is None or replayed is None:
                comparison.note = "stage missing on one side"
            elif stage in recorded_arrays and stage in replayed_arrays:
                before = np.asarray(recorded_arrays[stage])
                after = np.asarray(replayed_arrays[stage])
                if before.shape != after.shape:
                    comparison.note = (
                        f"shape {before.shape} -> {after.shape}"
                    )
                else:
                    diff = np.abs(
                        before.astype(float) - after.astype(float)
                    )
                    flat = diff.ravel()
                    index = int(np.argmax(flat))
                    comparison.max_abs_err = float(flat[index])
                    comparison.first_offender_index = index
        comparisons.append(comparison)
    return comparisons


def compare_decisions(recorded: dict, replayed: dict) -> list:
    """Names of decision fields that are not byte-equal."""
    diffs = []
    for key in sorted(set(recorded) | set(replayed)):
        if recorded.get(key) != replayed.get(key):
            diffs.append(key)
    return diffs


def environment_mismatches(
    recorded_environment: dict,
    keys: tuple = ENVIRONMENT_KEYS,
) -> list:
    """Fingerprint keys where this process differs from the recording."""
    current = capture_environment()
    return [
        key
        for key in keys
        if recorded_environment.get(key) != current.get(key)
    ]


def _verdict(
    comparisons: list, decision_diffs: list, mismatches: list
) -> tuple:
    """(verdict, first diverging stage or None).

    A clean replay is ``identical`` even when the environment differs —
    reproduction is evidence.  A dirty one is ``environment-mismatch``
    when the environment can explain it, ``divergent`` otherwise.
    """
    first_bad = next((c for c in comparisons if not c.match), None)
    diverged = first_bad is not None or bool(decision_diffs)
    if not diverged:
        return VERDICT_IDENTICAL, None
    stage = first_bad.stage if first_bad is not None else "decision"
    if mismatches:
        return VERDICT_ENVIRONMENT, stage
    return VERDICT_DIVERGENT, stage


def replay_request(
    capture: RequestCapture,
    bundle,
    config=None,
) -> ReplayReport:
    """Re-execute a captured authentication attempt and diff it.

    Args:
        capture: A ``"authenticate"``/``"stream"`` capture (use
            :func:`replay_identify` for ``"identify"`` ones).
        bundle: The serving :class:`~repro.serve.bundle.ModelBundle` —
            typically resolved from the capture directory's
            content-addressed stash via ``capture.bundle_hash``.
        config: Optional config override for deliberate perturbation
            experiments; defaults to the captured resolved config.

    Returns:
        The :class:`ReplayReport`.
    """
    if capture.kind == "identify":
        raise ValueError(
            "identify captures replay against an EnrollmentStore; "
            "use replay_identify"
        )
    mismatches = environment_mismatches(capture.environment)
    replayed_hash = None
    if bundle is not None:
        content_hash = getattr(bundle, "content_hash", None)
        if callable(content_hash):
            replayed_hash = content_hash()
        if (
            capture.bundle_hash is not None
            and replayed_hash != capture.bundle_hash
        ):
            mismatches.append("bundle_hash")
    pipeline = bundle.build_pipeline(
        config if config is not None else capture.config
    )
    with collect_captures() as captured:
        recordings = list(capture.recordings)
        if capture.exit_policy is not None:
            result = pipeline.authenticate_streaming(
                recordings, capture.exit_policy
            )
        else:
            result = pipeline.authenticate(recordings)
    (replayed,) = captured
    return _build_report(
        capture,
        replayed_digests=replayed.stage_digests,
        replayed_arrays=replayed.stage_arrays,
        replayed_decision=decision_document(result),
        mismatches=mismatches,
        bundle_hash_replayed=replayed_hash,
    )


def replay_identify(
    capture: RequestCapture, enrollment_store
) -> ReplayReport:
    """Re-execute a captured identify lookup against its store."""
    if capture.kind != "identify":
        raise ValueError(
            f"expected an identify capture, got {capture.kind!r}"
        )
    mismatches = environment_mismatches(capture.environment)
    with collect_captures() as captured:
        result = enrollment_store.identify(
            np.asarray(capture.features), capture.identify_k
        )
    (replayed,) = captured
    return _build_report(
        capture,
        replayed_digests=replayed.stage_digests,
        replayed_arrays=replayed.stage_arrays,
        replayed_decision=identify_decision_document(result),
        mismatches=mismatches,
        bundle_hash_replayed=None,
    )


def _build_report(
    capture: RequestCapture,
    replayed_digests: dict,
    replayed_arrays: dict,
    replayed_decision: dict,
    mismatches: list,
    bundle_hash_replayed: str | None,
) -> ReplayReport:
    comparisons = compare_stages(
        capture.stage_digests,
        replayed_digests,
        capture.stage_arrays,
        replayed_arrays,
    )
    decision_diffs = compare_decisions(
        capture.decision, replayed_decision
    )
    verdict, stage = _verdict(comparisons, decision_diffs, mismatches)
    first_bad = next((c for c in comparisons if not c.match), None)
    return ReplayReport(
        request_id=capture.request_id,
        kind=capture.kind,
        verdict=verdict,
        stage=stage,
        max_abs_err=(
            first_bad.max_abs_err if first_bad is not None else None
        ),
        first_offender_index=(
            first_bad.first_offender_index
            if first_bad is not None
            else None
        ),
        stages=comparisons,
        decision_match=not decision_diffs,
        decision_diffs=decision_diffs,
        environment_mismatches=mismatches,
        recorded_decision=dict(capture.decision),
        replayed_decision=replayed_decision,
        bundle_hash_recorded=capture.bundle_hash,
        bundle_hash_replayed=bundle_hash_replayed,
    )
