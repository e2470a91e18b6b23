"""Shared test settings: one hypothesis profile, loaded by default, and
the `refused_fork_and_mmap` fixture.

Derandomized and without a database, so every run draws the same examples,
and bounded, so the property tests stay inside the Tier-1 time budget.
Another registered profile can be chosen with ``--hypothesis-profile``.
"""

import errno
import mmap
import os

import pytest

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("tier1", derandomize=True, deadline=None,
                              max_examples=60, database=None)
    settings.load_profile("tier1")


@pytest.fixture
def refused_fork_and_mmap(monkeypatch):
    """Make os.fork and mmap.mmap record their calls and fail; return the
    list of calls."""
    calls = []

    def refused(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise OSError(errno.EPERM, f"{name} is not allowed here")
        return call

    monkeypatch.setattr(os, "fork", refused("os.fork"))
    monkeypatch.setattr(mmap, "mmap", refused("mmap.mmap"))
    return calls
