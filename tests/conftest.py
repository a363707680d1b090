"""Shared session fixtures.

The heavy artifact, the full pipeline run with its reference alignment
and condition-III census, is memoized inside the package, so these
fixtures are cheap to request from any test module.
"""

from __future__ import annotations

import pytest

from ncpverify.fixtures import load_fixtures
from ncpverify.pipeline import run_theorem5


@pytest.fixture(scope="session")
def fixture_set():
    return load_fixtures()


@pytest.fixture(scope="session")
def pipeline_report():
    return run_theorem5(7)


@pytest.fixture(scope="session")
def alignment_table(pipeline_report):
    return pipeline_report.alignment


@pytest.fixture(scope="session")
def survey(pipeline_report):
    return pipeline_report.survey
