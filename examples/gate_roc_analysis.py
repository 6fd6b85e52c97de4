"""Spoofer-gate ROC analysis: how separable are bodies, really?

Characterises the SVDD spoofer gate independent of its configured
threshold: enroll a set of users, collect genuine cross-session attempts
and impostor attempts (fresh bodies plus decoys of graded fidelity from
``repro.attacks``), and report the gate's ROC AUC and equal error rate.

Run:  python examples/gate_roc_analysis.py
"""

import numpy as np

from repro.attacks import flat_board_decoy, recorded_replay_of_body
from repro.body.population import build_population
from repro.config import EchoImageConfig
from repro.core.authenticator import MultiUserAuthenticator
from repro.core.enrollment import stack_user_features
from repro.core.features import FeatureExtractor
from repro.eval.dataset import CollectionSpec, DatasetBuilder
from repro.eval.reporting import format_table
from repro.ml.roc import roc_curve
from repro.signal.chirp import LFMChirp


def main() -> None:
    config = EchoImageConfig()
    builder = DatasetBuilder(config=config)
    extractor = FeatureExtractor(config.features)
    population = build_population(num_registered=6, num_spoofers=5)

    print("Enrolling 6 users (3 visits x 15 beeps each) ...")
    per_user = {}
    for subject in population.registered:
        blocks = builder.collect_blocks(
            subject, CollectionSpec(num_beeps=15), [10, 11, 12]
        )
        images = [im for b in blocks for im in b.images]
        per_user[subject.subject_id] = extractor.extract(images)
    features, labels = stack_user_features(per_user)
    auth = MultiUserAuthenticator(config.auth).fit(features, labels)

    print("Collecting genuine cross-session attempts ...")
    genuine = []
    for subject in population.registered:
        block = builder.collect_session(
            subject, CollectionSpec(num_beeps=10), session_key=30
        )
        genuine.append(auth.spoofer_scores(extractor.extract(block.images)))
    genuine = np.concatenate(genuine)

    print("Collecting impostor attempts (fresh bodies) ...")
    impostors = []
    for subject in population.spoofers:
        block = builder.collect_session(
            subject, CollectionSpec(num_beeps=10), session_key=40
        )
        impostors.append(
            auth.spoofer_scores(extractor.extract(block.images))
        )
    impostors = np.concatenate(impostors)

    curve = roc_curve(genuine, impostors)
    print()
    print(
        format_table(
            ["quantity", "value"],
            [
                ["gate ROC AUC (fresh bodies)", curve.auc],
                ["gate equal error rate", curve.equal_error_rate()],
                ["genuine score mean", float(genuine.mean())],
                ["impostor score mean", float(impostors.mean())],
            ],
            title="Spoofer gate vs fresh impostor bodies",
        )
    )

    # --- decoys of graded fidelity against one victim -----------------------
    print("Scoring physical decoys against the gate ...")
    victim = population.registered[0]
    scene = builder.scene("laboratory", "quiet", 30.0)
    chirp = LFMChirp.from_config(config.beep)
    rng = np.random.default_rng(99)
    rows = []
    for label, body in [
        ("flat board", flat_board_decoy(0.7)),
        ("replica fidelity 0.5",
         recorded_replay_of_body(victim, fidelity=0.5, rng=rng)),
        ("replica fidelity 0.9",
         recorded_replay_of_body(victim, fidelity=0.9, rng=rng)),
        ("replica fidelity 1.0 (perfect copy)",
         recorded_replay_of_body(victim, fidelity=1.0, rng=rng)),
    ]:
        recordings = scene.record_beeps(chirp, [body] * 6, rng)
        captures = builder._estimator.captures(recordings)
        try:
            distance = builder._estimator.estimate(
                recordings, captures
            ).user_distance_m
        except Exception:
            rows.append([label, "no echo", "-"])
            continue
        from repro.core.imaging import ImagingPlane

        plane = ImagingPlane.from_config(distance, config.imaging)
        images = builder._imager.images(recordings, plane, captures)
        decoy_features = extractor.extract(images)
        scores = auth.spoofer_scores(decoy_features)
        accepted = float(np.mean(scores >= 0))
        verdicts = auth.predict(decoy_features)
        identified = (
            max(set(verdicts.tolist()), key=verdicts.tolist().count)
        )
        rows.append(
            [label, float(scores.mean()), accepted, str(identified)]
        )
    print()
    print(
        format_table(
            ["decoy", "gate score", "gate pass rate", "cascade verdict"],
            rows,
            title="Decoys of graded fidelity (score >= 0 passes the gate)",
        )
    )
    print(
        "\nFinding: replicas approach the genuine score range as fidelity "
        "grows, as expected — but a bright flat board can also slip past "
        "the *pooled* one-class gate, because the description covers the "
        "union of six users' feature clusters.  A deployment should pair "
        "the gate with per-user score calibration (or per-user SVDDs) to "
        "close this hole; see DESIGN.md's gate discussion."
    )


if __name__ == "__main__":
    main()
