"""Shared test settings: one hypothesis profile, loaded by default.

Derandomized and without a database, so every run draws the same examples,
and bounded, so the property tests stay inside the Tier-1 time budget.
Another registered profile can be chosen with ``--hypothesis-profile``.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("tier1", derandomize=True, deadline=None,
                              max_examples=60, database=None)
    settings.load_profile("tier1")
