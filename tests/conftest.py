"""Hypothesis profiles shared by the differential tests.

``closed-forms`` draws a few examples per test (a few seconds in all), and
``closed-forms-deep`` ten times as many; a test module takes the one that
``SUMKIT_CLOSED_FORMS_PROFILE`` names, ``closed-forms`` by default.  Every
example is drawn with ``derandomize=True``.
"""

from hypothesis import settings

settings.register_profile("closed-forms", max_examples=12, derandomize=True, deadline=None)
settings.register_profile("closed-forms-deep", settings.get_profile("closed-forms"),
                          max_examples=120)
