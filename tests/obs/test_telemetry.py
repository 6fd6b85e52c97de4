"""The trace sink that derives every pipeline metric (repro.obs.telemetry)."""

from repro.obs import MetricsRegistry, PipelineTrace, Span, set_registry
from repro.obs.telemetry import TIMED_STAGES, record_trace


def hand_built_trace() -> PipelineTrace:
    """One multi-user attempt of two beeps, as the stages annotate it."""
    beeps = [
        Span(
            "stream.beep",
            duration_s=0.004,
            children=[
                Span(
                    "imaging.image",
                    duration_s=0.003,
                    attributes={"dynamic_range_db": (dynamic_range,)},
                    children=[
                        Span(
                            "imaging.band",
                            duration_s=0.002,
                            attributes={"band": 0, "energy": energy},
                        )
                    ],
                ),
                Span(
                    "features.extract",
                    duration_s=0.001,
                    attributes={"mean_embedding_norm": norm},
                ),
            ],
        )
        for dynamic_range, energy, norm in ((12.0, 3.0, 2.0), (18.0, 5.0, 4.0))
    ]
    predict = Span(
        "auth.predict",
        duration_s=0.0005,
        attributes={
            "mode": "svdd+svm",
            "num_accepted": 1,
            "scores": (0.25, -0.5),
        },
        children=[
            Span("auth.svdd", duration_s=0.0002),
            Span("auth.svm", duration_s=0.0001,
                 attributes={"margins": (0.4,)}),
        ],
    )
    distance = Span(
        "distance.estimate",
        duration_s=0.01,
        attributes={
            "outcome": "ok",
            "echo_snr_db": 20.0,
            "echo_prominence": 0.5,
            "user_distance_m": 0.7,
        },
    )
    root = Span(
        "authenticate",
        duration_s=0.02,
        attributes={"accepted": True},
        children=[distance, *beeps, predict],
    )
    return PipelineTrace([root])


def recorded(*traces) -> MetricsRegistry:
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        for completed in traces:
            record_trace(completed)
    finally:
        set_registry(previous)
    return registry


class TestRecordTrace:
    def test_hand_built_trace_maps_to_the_catalogue(self):
        registry = recorded(hand_built_trace())

        def value(name, **labels):
            return registry.get(name).labels(**labels).value

        def histogram(name, **labels):
            child = registry.get(name).labels(**labels)
            return child.count, child.sum

        assert value("echoimage_auth_attempts_total", result="accept") == 1
        assert value("echoimage_auth_decisions_total", decision="accept") == 1
        assert (
            value("echoimage_auth_decisions_total", decision="spoof_reject")
            == 1
        )
        assert histogram("echoimage_auth_score", mode="svdd+svm") == (
            2, -0.25,
        )
        assert histogram("echoimage_auth_margin") == (1, 0.4)
        assert value("echoimage_distance_estimates_total", outcome="ok") == 1
        assert histogram("echoimage_distance_echo_snr_db") == (1, 20.0)
        assert value("echoimage_distance_echo_prominence") == 0.5
        assert value("echoimage_distance_user_m") == 0.7
        assert histogram("echoimage_image_dynamic_range_db") == (2, 30.0)
        # Gauges are last-write: the second beep's band energy wins.
        assert value("echoimage_image_band_energy", band="0") == 5.0
        assert histogram("echoimage_feature_embedding_norm") == (2, 6.0)

        latency = registry.get("echoimage_stage_latency_seconds")
        timed = {
            labels["stage"]: (child.count, child.sum)
            for labels, child in latency.samples()
        }
        assert timed == {
            "authenticate": (1, 0.02),
            "distance.estimate": (1, 0.01),
            "imaging.image": (2, 0.006),
            "features.extract": (2, 0.002),
            "auth.predict": (1, 0.0005),
        }
        assert set(timed) == set(TIMED_STAGES)

    def test_stage_that_raised_records_its_outcome_and_time_only(self):
        failed = PipelineTrace([
            Span(
                "authenticate",
                duration_s=0.01,
                children=[
                    Span(
                        "distance.estimate",
                        duration_s=0.01,
                        attributes={"outcome": "no_echo"},
                    )
                ],
            )
        ])
        registry = recorded(failed)
        estimates = registry.get("echoimage_distance_estimates_total")
        assert [
            (labels, child.value) for labels, child in estimates.samples()
        ] == [({"outcome": "no_echo"}, 1.0)]
        assert not registry.get("echoimage_distance_echo_snr_db").samples()
        # No decision was reached, so no attempt is counted.
        assert not registry.get("echoimage_auth_attempts_total").samples()
        latency = registry.get("echoimage_stage_latency_seconds")
        assert sorted(labels["stage"] for labels, _ in latency.samples()) == [
            "authenticate", "distance.estimate",
        ]

    def test_trace_without_pipeline_spans_registers_nothing(self):
        registry = recorded(
            PipelineTrace([Span("serve.batch", duration_s=0.1)])
        )
        assert registry.families() == []
