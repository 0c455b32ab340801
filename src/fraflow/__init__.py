"""Time-fractional gradient flows for difference-of-convex energies.

Modules mirror the pipeline: ``kernels`` (Sonine pairs and product
integration), ``convex`` (functionals, resolvents, Moreau-Yosida),
``solver`` (trajectory stepping), ``certify`` (inequality certificates and
oracles), ``plaplace`` (the p-Laplace subdiffusion application) and ``cli``.
The inner kernels they share (triangular convolution, triangular Toeplitz
inverse, history sum, power prox) live in ``_accel``, written in numpy.

``mpmath`` is imported only inside the extended-precision Mittag-Leffler
oracle in ``certify``, so that no ``fraflow`` command loads it.  No module
imports ``scipy.special``: the Gamma values of the kernel constants and of
the oracle's series come from ``kernels._log_gamma``, a port of the routine
behind ``scipy.special.gammaln``.  No module imports ``scipy.linalg``
either (about 0.25 s): the banded Cholesky solves of the resolvents call
LAPACK ``dpttrf``/``dpttrs`` and ``dpbtrf``/``dpbtrs`` from scipy's
compiled ``_flapack`` extension, which ``convex`` loads from its file.  No module imports
``jsonschema`` (about 0.07 s with its dependencies): ``cli`` checks a config
with a small checker that interprets the shipped ``config_schema.json`` and
reports the message ``jsonschema`` would; ``jsonschema`` is the reference of
its tier-1 tests only.  ``numpy.fft`` (which numpy 2 loads on first use) and
``locale`` (which argparse loads on first use) are imported at module level:
every command uses them, and would only pay the same import inside its run.
"""

__version__ = "0.1.0"
__all__ = ["__version__"]
