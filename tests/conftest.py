"""Shared pytest configuration.

Kept deliberately thin: builders live in treegen.py and oracles in
oracles.py so each test module imports exactly what it uses. One fixture
applies to every test: each report serialized in the suite is checked
against ``json.dumps``, which the report writer replaced.
"""

import json

import numpy as np
import pytest

from forwardperf.report import VerificationReport

_TO_JSON = VerificationReport.to_json


def _checked_to_json(report):
    text = _TO_JSON(report)
    assert text == json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False)
    return text


@pytest.fixture(autouse=True)
def _reports_match_json_dumps(monkeypatch):
    monkeypatch.setattr(VerificationReport, "to_json", _checked_to_json)


@pytest.fixture
def rng():
    return np.random.default_rng(20250825)
