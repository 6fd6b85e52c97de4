"""Streaming early-exit semantics: pipeline, executor and audit trail.

Three contracts are pinned here:

* with the exit disabled (``ExitPolicy()``), the streaming path is
  bit-identical to the batch path — same label, scores, margins and
  per-beep labels (the property sweep in
  ``test_streaming_properties.py`` extends this to random attempts and
  every backend);
* an early exit is *exclusive* with degradation: an early-exited
  response never carries a degradation step, and a degraded response is
  never marked early-exited (the ladder retries with the plain batch
  path by construction);
* the audit ledger records the beep count the decision *actually*
  consumed — the exit point for streamed requests, the shortened
  attempt length for degraded ones.
"""

from __future__ import annotations

import numpy as np

from repro.config import ExitPolicy, ServingConfig
from repro.core.authenticator import DecisionStream, StreamSnapshot
from repro.core.pipeline import _should_exit
from repro.obs import (
    AuditLedger,
    MetricsRegistry,
    Profiler,
    set_audit_ledger,
    set_registry,
)
from repro.serve import (
    STATUS_DEGRADED,
    STATUS_OK,
    AuthenticationRequest,
    BatchAuthenticator,
)

from tests.serve.test_executor import run_guarded

#: Exits on the first beep whenever the prefix is unanimous — every
#: golden attempt has decisive per-beep scores, so this always fires.
FAST_POLICY = ExitPolicy(min_beeps=1, score_threshold=1e-9)


def _snapshot(**overrides):
    base = dict(
        beeps=2,
        labels=("user", "user"),
        mean_score=0.5,
        mean_margin=0.4,
        unanimous=True,
    )
    base.update(overrides)
    return StreamSnapshot(**base)


class TestShouldExit:
    def test_disabled_policy_never_exits(self):
        assert not _should_exit(ExitPolicy(), _snapshot())

    def test_exits_on_confident_unanimous_prefix(self):
        policy = ExitPolicy(
            min_beeps=2, score_threshold=0.1, margin_threshold=0.2
        )
        assert _should_exit(policy, _snapshot())

    def test_min_beeps_floor_blocks(self):
        policy = ExitPolicy(min_beeps=3, score_threshold=0.1)
        assert not _should_exit(policy, _snapshot(beeps=2))

    def test_split_prefix_blocks(self):
        policy = ExitPolicy(min_beeps=1, score_threshold=0.1)
        assert not _should_exit(
            policy, _snapshot(labels=("user", -1), unanimous=False)
        )

    def test_weak_score_blocks(self):
        policy = ExitPolicy(min_beeps=1, score_threshold=0.9)
        assert not _should_exit(policy, _snapshot(mean_score=0.5))

    def test_weak_margin_blocks_accept(self):
        policy = ExitPolicy(
            min_beeps=1, score_threshold=0.1, margin_threshold=0.9
        )
        assert not _should_exit(policy, _snapshot(mean_margin=0.4))

    def test_missing_margin_evidence_waives_margin_term(self):
        # Single-user enrollment and all-rejected prefixes have no SVM
        # margins; the margin conjunct must not block those exits.
        policy = ExitPolicy(
            min_beeps=1, score_threshold=0.1, margin_threshold=0.9
        )
        assert _should_exit(policy, _snapshot(mean_margin=None))

    def test_reject_prefix_exits_on_score_alone(self):
        policy = ExitPolicy(
            min_beeps=1, score_threshold=0.1, margin_threshold=0.9
        )
        rejected = _snapshot(
            labels=(-1, -1), mean_score=-0.5, mean_margin=None
        )
        assert _should_exit(policy, rejected)


class TestPipelineStreaming:
    def test_disabled_policy_bit_identical_to_batch(self, enrolled):
        pipeline, attempt = enrolled
        batch = pipeline.authenticate(list(attempt))
        stream = pipeline.authenticate_streaming(list(attempt), ExitPolicy())
        assert stream.label == batch.label
        assert stream.accepted == batch.accepted
        assert stream.per_beep_labels == batch.per_beep_labels
        assert np.array_equal(
            np.asarray(stream.scores), np.asarray(batch.scores)
        )
        assert np.array_equal(
            np.asarray(stream.margins), np.asarray(batch.margins)
        )
        assert stream.beeps_used == len(attempt)
        assert not stream.early_exit

    def test_default_policy_argument_is_disabled(self, enrolled):
        pipeline, attempt = enrolled
        result = pipeline.authenticate_streaming(list(attempt))
        assert result.beeps_used == len(attempt)
        assert not result.early_exit

    def test_aggressive_policy_exits_on_first_beep(self, enrolled):
        pipeline, attempt = enrolled
        result = pipeline.authenticate_streaming(list(attempt), FAST_POLICY)
        assert result.early_exit
        assert result.beeps_used == 1
        assert len(result.scores) == 1
        assert len(result.per_beep_labels) == 1

    def test_min_beeps_floor_consumes_at_least_that_many(self, enrolled):
        pipeline, attempt = enrolled
        policy = ExitPolicy(min_beeps=2, score_threshold=1e-9)
        result = pipeline.authenticate_streaming(list(attempt), policy)
        assert result.beeps_used >= 2

    def test_exit_on_last_beep_is_not_early(self, enrolled):
        pipeline, attempt = enrolled
        policy = ExitPolicy(
            min_beeps=len(attempt), score_threshold=1e-9
        )
        result = pipeline.authenticate_streaming(list(attempt), policy)
        assert result.beeps_used == len(attempt)
        assert not result.early_exit

    def test_batch_path_never_reports_early_exit(self, enrolled):
        pipeline, attempt = enrolled
        result = pipeline.authenticate(list(attempt))
        assert result.beeps_used == len(attempt)
        assert not result.early_exit

    def test_disabled_policy_scores_no_beep_incrementally(
        self, enrolled, monkeypatch
    ):
        """Incremental scores feed only the exit check, so a policy that
        can never exit pushes no beep; every beep is still imaged once,
        inside its own ``stream.beep`` span."""
        pipeline, attempt = enrolled
        pushes = []
        original = DecisionStream.push

        def spy(self, row):
            pushes.append(row)
            return original(self, row)

        monkeypatch.setattr(DecisionStream, "push", spy)
        for result in (
            pipeline.authenticate(list(attempt)),
            pipeline.authenticate_streaming(list(attempt), ExitPolicy()),
        ):
            assert pushes == []
            beeps = result.trace.find("stream.beep")
            assert [b.attributes["beep_index"] for b in beeps] == list(
                range(len(attempt))
            )
            for beep in beeps:
                (image,) = [
                    s for s in beep.iter_spans() if s.name == "imaging.image"
                ]
                assert image.attributes["num_beeps"] == 1
            assert len(result.trace.find("imaging.image")) == len(attempt)
        # The spy does see an enabled policy's pushes.
        pipeline.authenticate_streaming(list(attempt), FAST_POLICY)
        assert len(pushes) == 1


class TestExecutorStreaming:
    def _requests(self, attempt, count=2):
        return [
            AuthenticationRequest(f"stream-{i}", tuple(attempt))
            for i in range(count)
        ]

    def test_disabled_policy_matches_batch_responses(self, enrolled, bundle):
        _, attempt = enrolled
        requests = self._requests(attempt)
        with BatchAuthenticator(
            bundle, ServingConfig(backend="serial")
        ) as server:
            batch = run_guarded(
                lambda: server.authenticate_batch(requests)
            )
            stream = run_guarded(
                lambda: server.authenticate_streaming(
                    requests, ExitPolicy()
                )
            )
        for b, s in zip(batch, stream):
            assert s.status == STATUS_OK
            assert s.result.label == b.result.label
            assert np.array_equal(
                np.asarray(s.result.scores), np.asarray(b.result.scores)
            )
            assert s.beeps_used == len(attempt)
            assert not s.early_exit

    def test_early_exit_response_fields(self, enrolled, bundle):
        _, attempt = enrolled
        requests = self._requests(attempt)
        with BatchAuthenticator(
            bundle, ServingConfig(backend="serial")
        ) as server:
            responses = run_guarded(
                lambda: server.authenticate_streaming(
                    requests, FAST_POLICY
                )
            )
        for response in responses:
            assert response.status == STATUS_OK
            assert response.early_exit
            assert response.beeps_used == 1
            assert response.degradation is None

    def test_streaming_emits_stream_spans(self, enrolled, bundle):
        _, attempt = enrolled
        requests = self._requests(attempt, count=1)
        with Profiler() as profiler:
            with BatchAuthenticator(
                bundle, ServingConfig(backend="serial")
            ) as server:
                run_guarded(
                    lambda: server.authenticate_streaming(
                        requests, ExitPolicy()
                    )
                )
        names = {
            span.name
            for trace_ in profiler.traces
            for span in trace_.iter_spans()
        }
        assert "serve.stream" in names
        assert "stream.beep" in names

    def test_stream_metrics_recorded(self, enrolled, bundle):
        _, attempt = enrolled
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            with BatchAuthenticator(
                bundle, ServingConfig(backend="serial")
            ) as server:
                run_guarded(
                    lambda: server.authenticate_streaming(
                        self._requests(attempt, count=1), FAST_POLICY
                    )
                )
                run_guarded(
                    lambda: server.authenticate_streaming(
                        self._requests(attempt, count=1), ExitPolicy()
                    )
                )
            rendered = registry.render_prometheus()
        finally:
            set_registry(previous)
        assert 'echoimage_stream_exits_total{stage="early"} 1' in rendered
        assert 'echoimage_stream_exits_total{stage="full"} 1' in rendered
        assert "echoimage_stream_beeps_used_count 2" in rendered

    def test_batch_path_does_not_touch_stream_metrics(
        self, enrolled, bundle
    ):
        _, attempt = enrolled
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            with BatchAuthenticator(
                bundle, ServingConfig(backend="serial")
            ) as server:
                run_guarded(
                    lambda: server.authenticate_batch(
                        self._requests(attempt, count=1)
                    )
                )
            rendered = registry.render_prometheus()
        finally:
            set_registry(previous)
        assert "echoimage_stream_exits_total{" not in rendered


class _StreamingDown:
    """Full-fidelity pipeline whose streaming entry point is broken."""

    def authenticate_streaming(self, recordings, exit_policy=None):
        raise RuntimeError("streaming path down")

    def authenticate(self, recordings):
        raise RuntimeError("streaming path down")


class TestExitDegradationInterplay:
    """Early exit and the degradation ladder are mutually exclusive."""

    @staticmethod
    def _factory(bundle_arg, config, _):
        if config is None:  # full fidelity: crash into the ladder
            return _StreamingDown()
        return bundle_arg.build_pipeline(config)

    def test_degraded_streaming_request_is_not_early_exited(
        self, enrolled, bundle
    ):
        _, attempt = enrolled
        requests = [AuthenticationRequest("deg-0", tuple(attempt))]
        config = ServingConfig(backend="serial")
        with BatchAuthenticator(
            bundle, config, pipeline_factory=self._factory
        ) as server:
            (response,) = run_guarded(
                lambda: server.authenticate_streaming(
                    requests, FAST_POLICY
                )
            )
        assert response.status == STATUS_DEGRADED
        assert response.degradation == "half_beeps"
        # Exclusivity: the ladder retried with the plain batch path, so
        # the response must not also claim a streaming early exit.
        assert not response.early_exit
        # ... and beeps_used is the shortened attempt the rung consumed.
        assert response.beeps_used == len(attempt) // 2

    def test_early_exited_request_reports_no_degradation(
        self, enrolled, bundle
    ):
        _, attempt = enrolled
        requests = [AuthenticationRequest("fast-0", tuple(attempt))]
        with BatchAuthenticator(
            bundle, ServingConfig(backend="serial")
        ) as server:
            (response,) = run_guarded(
                lambda: server.authenticate_streaming(
                    requests, FAST_POLICY
                )
            )
        assert response.early_exit
        assert response.degradation is None


class TestAuditTrail:
    def _run_audited(self, bundle, requests, policy, tmp_path, name):
        ledger = AuditLedger(tmp_path / f"{name}.jsonl")
        previous = set_audit_ledger(ledger)
        try:
            with BatchAuthenticator(
                bundle, ServingConfig(backend="serial")
            ) as server:
                run_guarded(
                    lambda: server.authenticate_streaming(requests, policy)
                )
        finally:
            set_audit_ledger(previous)
        return ledger.entries()

    def test_early_exit_recorded_with_true_beep_count(
        self, enrolled, bundle, tmp_path
    ):
        _, attempt = enrolled
        requests = [AuthenticationRequest("audit-fast", tuple(attempt))]
        (entry,) = self._run_audited(
            bundle, requests, FAST_POLICY, tmp_path, "fast"
        )
        assert entry["request_id"] == "audit-fast"
        assert entry["beeps_used"] == 1
        assert entry["early_exit"] is True

    def test_full_stream_recorded_without_early_exit_flag(
        self, enrolled, bundle, tmp_path
    ):
        _, attempt = enrolled
        requests = [AuthenticationRequest("audit-full", tuple(attempt))]
        (entry,) = self._run_audited(
            bundle, requests, ExitPolicy(), tmp_path, "full"
        )
        assert entry["beeps_used"] == len(attempt)
        assert "early_exit" not in entry

    def test_degraded_entry_records_shortened_beep_count(
        self, enrolled, bundle, tmp_path
    ):
        _, attempt = enrolled
        ledger = AuditLedger(tmp_path / "degraded.jsonl")
        previous = set_audit_ledger(ledger)
        try:
            config = ServingConfig(backend="serial")
            with BatchAuthenticator(
                bundle,
                config,
                pipeline_factory=TestExitDegradationInterplay._factory,
            ) as server:
                run_guarded(
                    lambda: server.authenticate_streaming(
                        [AuthenticationRequest("audit-deg", tuple(attempt))],
                        FAST_POLICY,
                    )
                )
        finally:
            set_audit_ledger(previous)
        (entry,) = ledger.entries()
        fields = entry
        assert fields["degradation"] == "half_beeps"
        assert fields["beeps_used"] == len(attempt) // 2
        assert "early_exit" not in fields
