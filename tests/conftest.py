"""Settings shared by every test module.

Hypothesis seeds each property test from a hash of the test itself and
keeps no example database, so every run draws the same examples and a
failure reproduces.  ``HYPOTHESIS_PROFILE=default`` draws fresh ones.
"""

import os

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "derandomized"))
