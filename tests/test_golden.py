"""The golden corpus (tests/golden.py), run once as a script in a fresh interpreter."""

import os
import subprocess
import sys
import time

from conftest import src_env

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.py")


def test_outputs_are_the_recorded_bytes():
    # the script runs every command without scipy and mpmath and exits 1 when a
    # record differs or is stale, when no command enters a function of
    # src/cmapprox (code that only a test needs belongs in the tests, as an
    # oracle) or when the corpus loads numpy.polynomial or numpy.ma; what it
    # prints names each, and `python tests/golden.py --update` records a change
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, SCRIPT], capture_output=True, text=True,
                          env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert time.perf_counter() - start < 3.0
