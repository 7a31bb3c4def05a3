"""Upward scaling of overloaded binary signature sets: grow a K x L
antipodal set one signature at a time while provably minimizing the
resulting total squared correlation at each step.

The heavy lifting is a sphere search whose radius comes from the
sign-quantized minimum eigenvector of the set's autocorrelation matrix;
an exhaustive scan is available as the optimality oracle, and a bit-flip
descent stand-in serves as the suboptimal comparator.
"""

from . import bounds, harness, linalg, sigcore, sphere
from .bounds import *
from .harness import *
from .linalg import *
from .sigcore import *
from .sphere import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *sigcore.__all__,
    *linalg.__all__,
    *bounds.__all__,
    *sphere.__all__,
    *harness.__all__,
]
