"""Spark bootstrap for standalone jobs: puts ``src/`` on the path and
re-exports :func:`repro.session.get_spark`."""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.session import get_spark  # noqa: E402,F401
