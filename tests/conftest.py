import concurrent.futures

import pytest


@pytest.fixture
def stub_pool(monkeypatch):
    """Replace the process pool by a serial stand-in that starts no process.

    Returns the list of pool sizes requested, one entry per pool.
    """
    sizes = []

    class StubPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubPool)
    return sizes
