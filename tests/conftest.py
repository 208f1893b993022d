"""The tier-1 hypothesis profile: every property draws the same examples on
every run, and a failure reproduces without an example database."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")
