"""Shared test fixtures."""

import tracemalloc

import pytest

from chebgreen import core


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


@pytest.fixture
def cold_memo():
    """The memo of degree-only set-ups, emptied before the test and after
    it: a measured call then builds its set-up rather than reading it, and
    the test leaves no large entry behind."""
    core._degree_memo.clear()
    yield core._degree_memo
    core._degree_memo.clear()
