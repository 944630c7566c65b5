"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` makes every property run deterministic.

The ``ci`` profile derandomizes example generation, so a failing CI run
replays locally with the same variable set.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)

if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
