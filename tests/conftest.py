"""Checks that hold after every test."""

import multiprocessing
import warnings

import pytest

# When a test fails, Hypothesis imports this module (and libcst) to print a
# patch for the falsifying example. libcst raises a DeprecationWarning on
# import, which `filterwarnings = ["error"]` turns into an internal error
# that hides the example, so it is imported once here with that warning off.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: Hypothesis prints no patch either
        pass


@pytest.fixture(autouse=True)
def no_child_process_outlives_the_test():
    # A child still running here was leaked by the test: a pool not shut
    # down, or a process not joined.
    yield
    assert multiprocessing.active_children() == []
