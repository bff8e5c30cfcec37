"""Hypothesis profiles; CI selects ``ci`` with ``--hypothesis-profile=ci``
so that property tests draw the same examples on every run."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
