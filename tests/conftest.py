import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

try:
    from hypothesis import settings
except ImportError:  # test_properties.py skips itself
    pass
else:
    # derandomized: every run draws the same examples, few enough to keep the
    # tier-1 run time; no example database is written
    settings.register_profile(
        "tier1", derandomize=True, max_examples=50, deadline=None, database=None
    )
    settings.load_profile("tier1")
