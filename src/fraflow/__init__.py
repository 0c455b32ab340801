"""Time-fractional gradient flows for difference-of-convex energies.

Modules mirror the pipeline: ``kernels`` (Sonine pairs and product
integration), ``convex`` (functionals, resolvents, Moreau-Yosida),
``solver`` (trajectory stepping), ``certify`` (inequality certificates and
oracles), ``plaplace`` (the p-Laplace subdiffusion application) and ``cli``.
The inner kernels they share (triangular convolution, triangular Toeplitz
inverse, history sum, power prox) live in ``_accel``, written in numpy.
"""

__version__ = "0.1.0"
__all__ = ["__version__"]
