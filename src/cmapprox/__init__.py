"""Numerical toolkit for semigroup approximation by powers of completely monotone functions.

Verifies, on finite-dimensional generators, the convergence rates of
Chernoff-type schemes g^n(tA/n) -> e^{-tA} built from bounded completely
monotone functions g: exact measure representations, the rate
functionals, the Hille-Phillips calculus on the spectra of normal
generators, and a harness checking upper bounds, sharp constants, and
lower-bound exponents.

The package namespace holds its modules and __version__ only: names are
imported from the module that defines them, as `from cmapprox.cmfun import euler`.
"""

import gc as _gc

# No cyclic collection while the package imports numpy: its objects would
# trigger about 35 collections that find no garbage.  After the imports the
# survivors go to the oldest generation in one step (freeze, then unfreeze,
# unless a caller has frozen objects of its own), or the first collection
# would walk them all; the collector comes back on only if it was on.
_collecting = _gc.isenabled()
_gc.disable()
try:
    from . import cmfun
finally:
    if _gc.get_freeze_count() == 0:
        _gc.freeze()
        _gc.unfreeze()
    if _collecting:
        _gc.enable()
del _gc, _collecting

__version__ = "0.1.0"
