"""Shared test set-up.

Hypothesis profiles: HYPOTHESIS_PROFILE=ci runs every property with a fixed
example sequence and more examples than a local run.  `fresh_model_caches`
gives a test empty model caches, and `traced_memory` measures a call's
held and peak bytes under tracemalloc.
"""

import functools
import os
import sys
import tracemalloc

import pytest
from hypothesis import settings

from varlive import models

settings.register_profile("ci", derandomize=True, deadline=None,
                          max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def traced_memory(func):
    """(func(), bytes held after it, peak bytes during it) under
    tracemalloc, both above what was traced before the call."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = func()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return out, held - before, peak - before


def use_fresh_model_caches(monkeypatch) -> None:
    """Through monkeypatch: an empty contour-map cache and an empty copy of
    every lru_cache of varlive.models, under every name a varlive module
    binds it to."""
    monkeypatch.setattr(models, "_MAP_CACHE", {})
    caches = {name: obj for name, obj in vars(models).items()
              if hasattr(obj, "cache_info")}
    modules = [module for name, module in list(sys.modules.items())
               if name.partition(".")[0] == "varlive"]
    for name, cached in caches.items():
        fresh = functools.lru_cache(**cached.cache_parameters())(
            cached.__wrapped__)
        for module in modules:
            if getattr(module, name, None) is cached:
                monkeypatch.setattr(module, name, fresh)


@pytest.fixture
def fresh_model_caches(monkeypatch):
    """Empty model caches (`use_fresh_model_caches`) for one test; the
    process's caches come back afterwards.  Sampled values, posterior
    curves, ln Z quadratures and the posterior peak depend in their last
    bits on the deepest map the process has built for the model, so a
    bit-exact pin starts from empty caches."""
    use_fresh_model_caches(monkeypatch)
