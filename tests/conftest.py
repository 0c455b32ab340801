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
    digests pinned before the warm start hold on: every Newton resolvent
    starts at its target, as without a start, and every far-field pass of
    the history is an FFT product."""

    def take():
        prox = fraflow.convex.SmoothFunctional.prox
        monkeypatch.setattr(fraflow.convex.SmoothFunctional, "prox", lambda self, w, lam, tol=1e-10, start=None: prox(self, w, lam, tol=tol))
        monkeypatch.setattr(fraflow._accel, "FAR_DIRECT_RATIO", 0)

    return take
