"""Shared fixtures; the frozen reference values live in frozen.py."""

import pytest

from trapswitch.model import make_unit_system

from frozen import FINAL, INITIAL


@pytest.fixture(scope="session")
def unit():
    return make_unit_system()


@pytest.fixture(scope="session")
def initial():
    return INITIAL


@pytest.fixture(scope="session")
def final():
    return FINAL
