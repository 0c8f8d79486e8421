"""Hypothesis settings for the randomized-model property tests.

Each property test runs a fixed, derandomized CI profile by default:
the same examples on every run, so a red build is reproducible. For a
deeper search, ``pytest --hypothesis-profile=thorough`` swaps in a
larger randomized profile for the tests that take their settings from
:func:`property_settings` (registered by ``tests/conftest.py`` before
the Hypothesis plugin reads the option).
"""

from hypothesis import settings

#: Name of the opt-in profile.
THOROUGH = "thorough"

settings.register_profile(THOROUGH, max_examples=2_000, deadline=None)


def property_settings(max_examples: int) -> settings:
    """The fixed CI settings, or the thorough profile when it is loaded."""
    if settings.default is settings.get_profile(THOROUGH):
        return settings.default
    return settings(max_examples=max_examples, deadline=None, derandomize=True)
