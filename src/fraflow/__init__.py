"""Time-fractional gradient flows for difference-of-convex energies.

Modules mirror the pipeline: ``kernels`` (Sonine pairs and product
integration), ``convex`` (functionals, resolvents, Moreau-Yosida),
``solver`` (trajectory stepping), ``certify`` (inequality certificates and
oracles), ``plaplace`` (the p-Laplace subdiffusion application) and ``cli``.
The inner kernels they share (triangular convolution, triangular Toeplitz
inverse, history sum, power prox) live in ``_accel``, written in numpy.

Two dependencies are imported only inside the functions that use them, so
that no ``fraflow`` command loads them: ``scipy.integrate`` (about 0.25 s
per process, with ``scipy.optimize`` and ``scipy.sparse`` behind it) serves
the quadrature fallback of a user kernel built without an antiderivative,
and ``mpmath`` serves the extended-precision Mittag-Leffler oracle in
``certify``.  ``scipy.special``, ``scipy.linalg`` and ``jsonschema`` are
imported at module level because every run uses them.
"""

__version__ = "0.1.0"
__all__ = ["__version__"]
