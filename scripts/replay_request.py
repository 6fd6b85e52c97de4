"""Re-execute a captured request and diff it stage by stage.

A :class:`repro.obs.CaptureStore` (``serve_monitor.py --capture-dir``,
or ``set_capture_store(CaptureStore(root=…))`` in an embedding service)
records everything a request needs to run again: its input waveforms,
the config/ExitPolicy actually used, the model-bundle content hash, the
environment fingerprint and a digest of every stage output.  This
script loads one capture, re-executes it through
:func:`repro.obs.replay.replay_request` (or
:func:`~repro.obs.replay.replay_identify` for ``identify`` captures)
and prints the stage-level divergence diff.

Verdicts and exit codes:

* ``identical`` (exit 0) — every stage digest and the decision matched
  bit for bit; the capture reproduces.
* ``divergent`` / ``environment-mismatch`` (exit 1) — at least one
  stage or the decision differs; the report names the first diverging
  stage, the max absolute error and the first offending array index
  (``environment-mismatch`` additionally names which environment axes
  changed, the likeliest explanation).
* exit 2 — the capture, bundle or enrollment store could not be loaded.

``--perturb`` doubles the imaging stage's diagonal loading before
replaying — a deliberate config drift that must come back ``divergent``
at the ``images`` stage; CI uses it to prove the diff actually detects
divergence rather than vacuously passing.

Run:  PYTHONPATH=src python scripts/replay_request.py req-1a2b3c4d5e6f7081 \\
          --capture-dir capture_store
      PYTHONPATH=src python scripts/replay_request.py 1 \\
          --capture-dir capture_store --json
      PYTHONPATH=src python scripts/replay_request.py 1 \\
          --capture-dir capture_store --perturb
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

#: Process exit codes of the replay verdicts.
EXIT_IDENTICAL = 0
EXIT_DIVERGENT = 1
EXIT_NOT_FOUND = 2


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="replay a captured request and diff it stage by stage"
    )
    parser.add_argument(
        "request_id", help="correlation id of the capture to replay"
    )
    parser.add_argument(
        "--capture-dir", required=True, metavar="DIR",
        help="CaptureStore root the request was captured into",
    )
    parser.add_argument(
        "--bundle", default=None, metavar="FILE",
        help="replay against this model-bundle file instead of the "
        "content-addressed bundle recorded with the capture",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="EnrollmentStore root (required to replay 'identify' captures)",
    )
    parser.add_argument(
        "--perturb", action="store_true",
        help="double imaging.diagonal_loading before replaying — a "
        "deliberate divergence the diff must detect",
    )
    output = parser.add_mutually_exclusive_group()
    output.add_argument(
        "--json", action="store_true",
        help="print the machine-readable ReplayReport document",
    )
    output.add_argument(
        "--table", action="store_true",
        help="print the human-readable stage table (the default)",
    )
    return parser.parse_args()


def _load_capture(capture_dir: str, request_id: str):
    """``(store, capture)`` from disk, or raises ``LookupError``."""
    from repro.obs import CaptureStore

    store = CaptureStore(root=capture_dir)
    capture = store.get(request_id)
    if capture is None:
        raise LookupError(
            f"no capture for {request_id!r} in {capture_dir} "
            f"({len(store)} captures indexed)"
        )
    return store, capture


def _resolve_bundle(store, capture, bundle_path: str | None):
    """The bundle to replay against: ``--bundle`` wins, else the store's
    content-addressed copy of the hash recorded with the capture."""
    if bundle_path is not None:
        from repro.io.storage import load_model_bundle

        return load_model_bundle(bundle_path)
    if capture.bundle_hash is None:
        raise LookupError(
            f"capture {capture.request_id!r} carries no bundle hash; "
            "pass --bundle FILE"
        )
    return store.load_bundle(capture.bundle_hash)


def _perturbed_config(config):
    """The capture's config with imaging.diagonal_loading doubled."""
    if config is None:
        raise LookupError("capture carries no config; cannot --perturb")
    imaging = dataclasses.replace(
        config.imaging, diagonal_loading=config.imaging.diagonal_loading * 2
    )
    return dataclasses.replace(config, imaging=imaging)


def build_report(args: argparse.Namespace):
    """The :class:`repro.obs.replay.ReplayReport` for the CLI arguments.

    Raises:
        LookupError: capture/bundle/store missing — the exit-2 family.
    """
    from repro.obs import replay as replay_mod

    store, capture = _load_capture(args.capture_dir, args.request_id)
    if capture.kind == "identify":
        if args.store is None:
            raise LookupError(
                "capture is an 'identify' capture; pass --store DIR"
            )
        from repro.io.store import EnrollmentStore

        enrollment = EnrollmentStore.open(args.store)
        return replay_mod.replay_identify(capture, enrollment)
    bundle = _resolve_bundle(store, capture, args.bundle)
    config = _perturbed_config(capture.config) if args.perturb else None
    return replay_mod.replay_request(capture, bundle, config=config)


def main() -> int:
    args = parse_args()
    try:
        report = build_report(args)
    except LookupError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except Exception as error:  # unreadable envelope, bad store, ...
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return EXIT_NOT_FOUND
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_table())
    return EXIT_IDENTICAL if report.identical else EXIT_DIVERGENT


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        sys.exit(141)
