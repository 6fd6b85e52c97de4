"""Run the public docstring examples under the tier-1 suite.

The package quickstart (:mod:`repro`), the config, imaging-plane,
stage-report and drift-monitor examples, and the enrollment-store
examples the operator docs lean on (``docs/SCALING.md`` links straight
to them) are executed here instead of trusting prose: a drifting signature or span list
breaks this test, not a reader.
"""

import doctest

import pytest

import repro
import repro.config
import repro.core.imaging
import repro.io.storage
import repro.io.store
import repro.ml.prefilter
import repro.obs.drift
import repro.obs.report

MODULES = (
    repro,
    repro.config,
    repro.core.imaging,
    repro.io.storage,
    repro.io.store,
    repro.ml.prefilter,
    repro.obs.drift,
    repro.obs.report,
)


@pytest.mark.parametrize(
    "module", MODULES, ids=lambda m: m.__name__
)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} lost its examples"
    assert results.failed == 0
