"""Power analysis for covariate-adjusted (ANCOVA) 1:1 randomized trials.

Closed-form power, sample size, and the 1 + R^2/2 power-ratio rule of
thumb, together with a Monte Carlo trial simulator that validates the
analytic formulas.
"""

# the package exports each module's public names, as its __all__ lists them
from . import errors, normal_math, power_engine, simulate
from .errors import *
from .normal_math import *
from .power_engine import *
from .simulate import *

__version__ = "0.1.0"

__all__ = [*errors.__all__, *normal_math.__all__, *power_engine.__all__, *simulate.__all__,
           "__version__"]
