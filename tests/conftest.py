"""Hypothesis profiles: ``default`` for local runs, ``ci`` (``--hypothesis-profile=ci``)
for the CI workflow, with ten times the examples for every property test that
does not set its own count."""
from hypothesis import settings

settings.register_profile("ci", max_examples=1000, deadline=None)
