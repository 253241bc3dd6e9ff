"""Shared fixtures."""
from __future__ import annotations

import pytest

from eiskern.suites import SUITES, SuiteConfig, run_suites


@pytest.fixture(scope="session")
def all_suites():
    """Every suite at the default configuration, run once per session with
    SOURCE_DATE_EPOCH=0; the tests that take it only read it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("SOURCE_DATE_EPOCH", "0")
        return run_suites(SuiteConfig(), list(SUITES))


def family(label: str) -> str:
    """A record's family within its suite: the words of its label that hold no digit."""
    return " ".join(w for w in label.split() if not any(c.isdigit() for c in w))
