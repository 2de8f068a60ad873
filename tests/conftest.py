"""Hypothesis settings for the whole suite.

``HYPOTHESIS_PROFILE=ci`` makes every property test draw the same
examples on every run and print a reproduction blob for a failure;
without it hypothesis keeps its default, randomised profile.
"""
import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
