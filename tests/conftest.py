"""Test session settings: under CI (the CI environment variable set),
Hypothesis prints the reproduction blob of every failing example, so a
failure seen on one interpreter leg can be replayed locally with
`@reproduce_failure`. The profile changes nothing else: it starts from the
settings already in force, example counts and deadlines included."""

import os

from hypothesis import settings

if os.environ.get("CI"):
    settings.register_profile("covereval-ci", settings.default, print_blob=True)
    settings.load_profile("covereval-ci")
