import os
import tracemalloc

import numpy as np
import pytest

from zecheck.channel import build_channel
from zecheck.designs import enumerate_clifford, find_minimal_subdesign
from zecheck.sampling import SUITE_IDS


def case_rng(seed, suite, case):
    """The reference generator of case (seed, suite, case)'s stream, which zecheck must reproduce.

    Built straight from numpy's SeedSequence and Philox, with none of
    zecheck's key derivation, so the tests that compare against it check
    `sampling.case_rngs` and its vectorized keys.
    """
    key = np.random.SeedSequence([seed, SUITE_IDS[suite], case])
    return np.random.Generator(np.random.Philox(key))


@pytest.fixture(scope="session")
def family_d2():
    return enumerate_clifford(2)


@pytest.fixture(scope="session")
def family_d3():
    return enumerate_clifford(3)


@pytest.fixture(scope="session")
def channel_d2(family_d2):
    return build_channel(2, family_d2)


@pytest.fixture(scope="session")
def channel_d3(family_d3):
    return build_channel(3, family_d3)


@pytest.fixture(scope="session")
def subdesign_d2(family_d2):
    return find_minimal_subdesign(family_d2)


@pytest.fixture(scope="session")
def subdesign_d3(family_d3):
    return find_minimal_subdesign(family_d3)


@pytest.fixture
def traced_peak():
    """Peak of the memory traced by tracemalloc while fn() runs, in MiB."""

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    return peak


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)  # reaps one exited child, if any
    except ChildProcessError:
        return  # no child at all
    pytest.fail("the test left a child process " + ("running" if pid == 0 else f"{pid} unreaped"))


@pytest.fixture
def cpus(monkeypatch):
    """cpus(k) makes sampling.ForkedMap, and so the PPT search, see k CPUs in the affinity mask."""

    def set_cpus(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)

    return set_cpus
