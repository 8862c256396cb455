"""Checks that hold after every test."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_process_outlives_the_test():
    # A child still running here was leaked by the test: a pool not shut
    # down, or a process not joined.
    yield
    assert multiprocessing.active_children() == []
