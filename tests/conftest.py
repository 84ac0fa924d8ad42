"""Fixtures every test module shares."""

import pytest

from repro.eval import parallel


@pytest.fixture(autouse=True)
def fresh_worker_pool():
    """Each test starts and ends without the process-wide worker pool.

    Pool workers are forked once and keep the module state they were
    forked with, so a test that patches the point function needs workers
    forked after its patch; stopping the pool afterwards also keeps a
    worker stuck in a test's point from outliving that test.
    """
    parallel.shutdown_pool()
    yield
    parallel.shutdown_pool()
