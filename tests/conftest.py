import numpy as np
import pytest

import fraflow._accel
import fraflow.convex


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def take_the_cold_route(monkeypatch):
    """A call sends the solves after it down the cold route, which the
    digests pinned before the warm start hold on: every resolvent of a
    ``SmoothFunctional`` is the damped Newton one (a linear functional's
    included, which ``prox`` solves directly) and starts at its target, as
    without a start, and every far-field pass of the history is an FFT
    product."""

    def take():
        newton = fraflow.convex.SmoothFunctional._newton
        monkeypatch.setattr(fraflow.convex.SmoothFunctional, "prox", lambda self, w, lam, tol=1e-10, start=None: newton(self, w, lam, tol=tol))
        monkeypatch.setattr(fraflow._accel, "FAR_DIRECT_RATIO", 0)

    return take


@pytest.fixture
def take_the_newton_route(monkeypatch):
    """A call sends the resolvents after it through damped Newton, started
    as the stepper starts them: a linear ``SmoothFunctional`` (the
    p-Dirichlet energy at p = 2), which ``prox`` solves directly, takes
    the route every other one takes and the digests pinned before the
    direct solve hold on."""

    def take():
        monkeypatch.setattr(fraflow.convex.SmoothFunctional, "prox", fraflow.convex.SmoothFunctional._newton)

    return take
