"""Test-session settings.

Property tests run under one fixed ``hypothesis`` profile: derandomized, so
every run draws the same examples, with a bounded example count and no
example database, so the suite's outcome and run time do not depend on
earlier runs.
"""

from hypothesis import settings

settings.register_profile(
    "tier1", derandomize=True, max_examples=40, deadline=None, database=None
)
settings.load_profile("tier1")
