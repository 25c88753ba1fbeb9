"""Reference import that measures how fast the machine is right now.

    python3 perfbench/calib.py

Imports the libraries every cmapprox command imports (numpy, scipy.linalg,
scipy.special, mpmath) and exits.  The benchmark runs it in a fresh process
just before each command and scales the command's times by its wall time.
On a shared 2-core machine whose speed drifted by up to a third within
twenty minutes, this halved the run-to-run spread of the times.
"""

import mpmath  # noqa: F401
import numpy  # noqa: F401
import scipy.linalg  # noqa: F401
import scipy.special  # noqa: F401
