"""Shared test set-up.

Hypothesis profiles: HYPOTHESIS_PROFILE=ci runs every property with a fixed
example sequence and more examples than a local run.  `fresh_model_caches`
gives a test empty model caches.
"""

import functools
import os

import pytest
from hypothesis import settings

from varlive import models

settings.register_profile("ci", derandomize=True, deadline=None,
                          max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def fresh_model_caches(monkeypatch):
    """An empty contour-map cache and empty posterior_grid and
    _remaining_table caches for one test; the process's caches come back
    afterwards.  Sampled values and posterior curves depend in their last
    bits on the deepest map the process has built for the model, so a
    bit-exact pin starts from empty caches."""
    monkeypatch.setattr(models, "_MAP_CACHE", {})
    for name in ("posterior_grid", "_remaining_table"):
        monkeypatch.setattr(models, name, functools.lru_cache(maxsize=None)(
            getattr(models, name).__wrapped__))
