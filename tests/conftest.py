"""Test session settings: under CI (the CI environment variable set),
Hypothesis draws new examples on every run, where its own `ci` profile
would draw the same ones each time (`derandomize=True`); the workflow
passes `--hypothesis-seed` with the run's id, so a run can be replayed with
that seed. It also prints the reproduction blob of every failing example,
so a failure seen on one interpreter leg can be replayed locally with
`@reproduce_failure`. The profile changes nothing else: it starts from the
settings already in force, example counts and deadlines included."""

import os

from hypothesis import settings

if os.environ.get("CI"):
    settings.register_profile("covereval-ci", settings.default, derandomize=False,
                              print_blob=True)
    settings.load_profile("covereval-ci")
