"""Upward scaling of overloaded binary signature sets: grow a K x L
antipodal set one signature at a time while provably minimizing the
resulting total squared correlation at each step.

The heavy lifting is a sphere search whose radius comes from the
sign-quantized minimum eigenvector of the set's autocorrelation matrix;
an exhaustive scan is available as the optimality oracle, and a bit-flip
descent stand-in serves as the suboptimal comparator.
"""

import os

# numpy's bundled OpenBLAS starts a spinning worker thread per extra core, and
# no product sigforge runs gains from one. Unless the caller chose a count, it
# loads with one thread; it reads the variable only while loading, so the
# environment is restored and subprocesses see no change.
_THREADS = "OPENBLAS_NUM_THREADS"
_threads_unset = _THREADS not in os.environ
if _threads_unset:
    os.environ[_THREADS] = "1"
try:
    from . import bounds, harness, linalg, sigcore, sphere
    from .bounds import *
    from .harness import *
    from .linalg import *
    from .sigcore import *
    from .sphere import *
finally:
    if _threads_unset:
        del os.environ[_THREADS]
    del os, _THREADS, _threads_unset

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *sigcore.__all__,
    *linalg.__all__,
    *bounds.__all__,
    *sphere.__all__,
    *harness.__all__,
]
