"""Dense CG with bit-flip fault injection, plus iso-metric machine models.

The package has two halves that meet in the energy analysis:

* solvers: deterministic dense Conjugate Gradient and a self-stabilizing
  variant that survives seeded silent data corruption injected into the
  matrix-vector product;
* models: roofline bounds, static-power regression, frequency-scaling
  factors, iso-performance / iso-power / iso-capacity cluster matching,
  reliable+unreliable hybrid composition, and energy-to-solution curves
  with their break-even degradation.
"""

from . import errors, faults, iso, linalg, machine, solvers
from .errors import *
from .faults import *
from .iso import *
from .linalg import *
from .machine import *
from .solvers import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *linalg.__all__,
    *faults.__all__,
    *solvers.__all__,
    *machine.__all__,
    *iso.__all__,
]
