"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro.core.storage import Repository
from repro.fixpoint.runtime import Fixpoint


@pytest.fixture
def repo() -> Repository:
    return Repository()


@pytest.fixture
def fixpoint() -> Fixpoint:
    """A Fixpoint with the stdlib compiled."""
    return Fixpoint()
