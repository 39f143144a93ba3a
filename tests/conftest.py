"""Hypothesis profiles for the suite.

``HYPOTHESIS_PROFILE=ci`` selects the ``ci`` profile: examples are
derived from each test's name instead of drawn at random, so a CI run
draws the same examples every time, and no per-example deadline applies
(shared runners stall at random).  Unset, hypothesis keeps its defaults.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
