"""Shared test settings.

Property tests draw the same examples on every run (``derandomize``), so two
versions of the code are tested on equal inputs, and run without a per-example
deadline, so a slow host cannot fail them.
"""

from hypothesis import settings

settings.register_profile("cellmine", derandomize=True, deadline=None)
settings.load_profile("cellmine")
