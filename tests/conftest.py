"""Suite-wide pytest configuration."""

# Registers the opt-in ``--hypothesis-profile=thorough`` profile; it has
# to exist before the Hypothesis plugin loads the selected profile.
import tests.hypothesis_profiles  # noqa: F401
