"""Every Hypothesis property runs derandomized and without a deadline, so
the suite draws the same examples on every run and machine."""

from hypothesis import settings

settings.register_profile("infrank", derandomize=True, deadline=None)
settings.load_profile("infrank")
