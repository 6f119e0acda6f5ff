"""Hypothesis profiles.  HYPOTHESIS_PROFILE=ci, which the CI workflow sets,
derandomizes every property test and drops its deadline, so a CI run draws
the same examples each time and cannot flake on a slow runner."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
