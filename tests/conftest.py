"""Shared pytest configuration.

Registers a ``soak`` Hypothesis profile for long property runs, e.g.::

    python -m pytest --hypothesis-profile=soak tests/test_graph_mldg.py

The default profile is left as it is, so a plain test run does not slow down.
"""

from hypothesis import settings

settings.register_profile("soak", max_examples=2000, deadline=None)
