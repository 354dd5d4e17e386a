"""Shared test fixtures."""

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``traced_peak(fn, *args)``: the bytes ``fn(*args)`` holds at its peak
    beyond what was live before the call, as tracemalloc counts them."""
    def measure(fn, *args):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    return measure
