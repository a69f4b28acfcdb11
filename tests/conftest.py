"""Hypothesis profiles: HYPOTHESIS_PROFILE=ci runs every property with a
fixed example sequence and more examples than a local run."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None,
                          max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
