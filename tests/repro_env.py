"""The environment a test subprocess runs this checkout's ``repro`` in."""

import os


def repro_env(**env):
    """``os.environ`` plus ``env``, with this checkout's ``src`` on
    ``PYTHONPATH``: ``python -m repro`` then runs the code under test."""
    environ = dict(os.environ, **env)
    environ["PYTHONPATH"] = os.pathsep.join(
        [p for p in (environ.get("PYTHONPATH"),) if p]
        + [os.path.join(os.path.dirname(__file__), "..", "src")])
    return environ
