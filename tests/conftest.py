import os

import hypothesis

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=40, derandomize=True
)
# CI runs every property deeper: HYPOTHESIS_PROFILE=ci.
hypothesis.settings.register_profile("ci", deadline=None, max_examples=300, derandomize=True)
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
