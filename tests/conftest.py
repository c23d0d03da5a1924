"""Shared test settings: one deterministic hypothesis profile.

Property tests draw the same examples on every run (``derandomize``), keep
no example database, and have no per-example deadline, so a slow moment on
a small shared machine cannot fail them.
"""

from hypothesis import settings

settings.register_profile("uwbrel", deadline=None, derandomize=True, database=None,
                          max_examples=40)
settings.load_profile("uwbrel")
