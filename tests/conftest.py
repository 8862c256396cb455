"""Checks that hold after every test, and the check of pinned report bytes."""

import hashlib
import multiprocessing
import warnings

import numpy as np
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


def assert_report_digests(report, pinned, what):
    """Fail unless the files next to report hash to pinned {name: sha256},
    naming the BLAS the training bits depend on and the digests measured."""
    measured = {n: hashlib.sha256(report.with_name(n).read_bytes()).hexdigest() for n in pinned}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert measured == pinned, (
        f"{what} report bytes moved; training bits depend on the BLAS kernel, and this run "
        f"used numpy {np.__version__} with {blas.get('name')} {blas.get('version')}; "
        f"measured {measured}")
