"""Numerical toolkit for semigroup approximation by powers of completely monotone functions.

Verifies, on finite-dimensional generators, the convergence rates of
Chernoff-type schemes g^n(tA/n) -> e^{-tA} built from bounded completely
monotone functions g: exact measure representations, the rate
functionals, the Hille-Phillips calculus on the spectra of normal
generators, and a harness checking upper bounds, sharp constants, and
lower-bound exponents.
"""

from .cmfun import (
    CMFunction,
    ScaledFamily,
    chung,
    euler,
    exponential,
    frac_tail,
    from_measure,
    hille,
    kendall,
    make_builtin,
    power_scale,
    spline,
    yosida,
)
from .measures import PolyExpSegment, PositiveMeasure, PowerLawSegment
from .opcalc import (
    GeneratorMatrix,
    advection_periodic,
    diag_imag,
    diag_positive,
    laplacian_dirichlet_1d,
    make_generator,
    semigroup_constants,
)

__version__ = "0.1.0"
