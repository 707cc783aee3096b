"""Let the interpreters that tests start import this checkout's package.

``pythonpath`` in pyproject.toml puts ``src`` on the test process's own
path; child processes (``python -m maskedpls ...``) read it from the
environment instead.
"""

import os

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
