"""Shared test configuration.

Property tests run under a deterministic hypothesis profile: the same
examples on every run, no example database and no per-example deadline, so a
slow or busy machine cannot make them flake.
"""

from hypothesis import settings

settings.register_profile("mcvt", derandomize=True, deadline=None, database=None)
settings.load_profile("mcvt")
