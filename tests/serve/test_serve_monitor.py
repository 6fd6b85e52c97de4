"""scripts/serve_monitor.py end to end: one event per served decision.

The serving monitor serves every attempt, the replay-burst drill
included, through the serving layer's outcome fan-out, so its audit
ledger and flight recorder must describe the same requests, and the
drift alerts it prints must be the ones its black box recorded.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

BURST_IDS = [f"replay-burst-{i}" for i in range(4)]


@pytest.fixture(scope="module")
def drill(tmp_path_factory):
    """The README sentinel drill on the default backend: (stdout,
    audit entries, flight black box)."""
    out = tmp_path_factory.mktemp("serve_monitor")
    audit, flight = out / "audit.jsonl", out / "flight.json"
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "scripts" / "serve_monitor.py"),
            "--attempts", "6",
            "--beeps", "2",
            "--enroll-beeps", "8",
            "--replay-burst", "4",
            "--audit-jsonl", str(audit),
            "--flight-json", str(flight),
        ],
        capture_output=True,
        text=True,
        timeout=600,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    entries = [
        json.loads(line)
        for line in audit.read_text().splitlines()
        if line.strip()
    ]
    return proc.stdout, entries, json.loads(flight.read_text())


def test_ledger_and_flight_record_the_same_requests(drill):
    _, entries, box = drill
    audited = [entry["request_id"] for entry in entries]
    recorded = [record["request_id"] for record in box["requests"]]
    assert len(audited) == len(set(audited)) == 10
    assert sorted(audited) == sorted(recorded)
    assert set(BURST_IDS) <= set(audited)
    assert {entry["kind"] for entry in entries} == {"serve"}


def test_audit_entries_carry_the_served_decision_context(drill):
    _, entries, _ = drill
    for entry in entries:
        assert entry["backend"] == "serial"
        for name in ("status", "environment", "latency_s"):
            assert name in entry, (entry["request_id"], name)
        if entry["decision"] in ("accept", "reject"):
            for name in ("svm_margins", "distance_m", "beeps_used"):
                assert name in entry, (entry["request_id"], name)


def test_printed_drift_alerts_match_the_black_box(drill):
    stdout, _, box = drill
    (printed,) = re.findall(r"^drift alerts raised: (\d+)$", stdout, re.M)
    events = [e for e in box["events"] if e["kind"] == "drift_alert"]
    assert int(printed) == len(events)
