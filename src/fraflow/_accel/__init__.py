"""Backend selection for the hot inner kernels.

Tries the compiled Cython core first and falls back to the pure-numpy
implementation.  Set ``FRAFLOW_NO_ACCEL=1`` to force the fallback (used by
the backend-parity tests).
"""

import os

from . import numpy_backend

if os.environ.get("FRAFLOW_NO_ACCEL"):
    _impl = numpy_backend
    BACKEND = "numpy"
else:
    try:
        from . import _core as _impl  # type: ignore[attr-defined]

        BACKEND = "cython"
    except ImportError:
        _impl = numpy_backend
        BACKEND = "numpy"

# np.convolve already runs the triangular sums in optimized C; the compiled
# core only pays off for the sequential kernels
conv_left = numpy_backend.conv_left
conv_right = numpy_backend.conv_right
volterra_sn = _impl.volterra_sn
l1_history = _impl.l1_history
power_prox_abs = _impl.power_prox_abs

__all__ = [
    "BACKEND",
    "numpy_backend",
    "conv_left",
    "conv_right",
    "volterra_sn",
    "l1_history",
    "power_prox_abs",
]
