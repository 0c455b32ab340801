"""Implicit product-integration time stepping for the nonlocal
difference-of-convex flow

    d/dt [k * (u - u0)](t) + dphi1(u(t)) - dphi2_lam(u(t)) ni f(t)

and its viscous variant (an extra lam_visc * du/dt term).  Every problem
has a Sonine kernel pair (k, ell) and a forcing that is absent or a
callable t -> state.

One step solves, with the Toeplitz weights omega of k and v = u - u0,

    [omega_0 v_j + H_j]/tau + lam_visc (u_j - u_{j-1})/tau + xi_j
        = f_j + eta_j,
    H_j = sum_{i<j} (omega_{j-i} - omega_{j-i-1}) v_i,

which collapses to a single resolvent call on phi1 with the effective
parameter mu = tau / (omega_0 + lam_visc); for the Riemann-Liouville pair
this is exactly an L1-type scheme.  The selection xi_j is read off the
prox optimality system, eta_j is the Yosida rate A_lam of phi2 at the
previous state (semi-implicit default) or at the current state via an
inner Picard loop (coupled mode).  A missing phi2 is the zero Yosida map:
eta and the envelope are zero, and coupled mode steps as semi-implicit.
The step loop ``_solve_loop`` is the one place that evaluates phi2: one
``yosida`` call gives the rate and the envelope phi2_lam.  Every resolvent
is called as ``prox(w, lam, tol, start)``, with the previous state, or in
coupled mode the Picard iterate, as its start: the damped Newton resolvent
(``convex.SmoothFunctional``) starts from it, a closed form or a band
solve (the p-Dirichlet energy at p = 2) ignores it.

The coupled step is the fixed point of the Picard map
u -> J_mu(b + mu A_lam(u)), which contracts with factor kappa = mu/lam
(J_mu is nonexpansive, A_lam is 1/lam-Lipschitz).  Coupled mode runs only
where kappa < 1 and kappa**max_picard <= inner_tol (:func:`check_coupling`);
beyond that the implicit step can have spurious roots.  Without viscosity
at alpha = 0.5 and the default lam and budget this needs N of about 2e6
steps; otherwise take a moderate lam or a viscosity.

The history H_j is a causal convolution whose input v appears one step at
a time.  ``_accel.History`` evaluates it exactly: a direct sum over the
current block of at most ``HISTORY_BLOCK`` nodes, plus a far field that
each completed dyadic block adds through one FFT product.  A run with
fewer steps than one block takes the direct sum at every step.  The
history buffer is flat, u0.size values per node and row, so states of any
rank take the same path.

The step loop marches a batch of rows: problems that share phi1, the
kernel pair, the forcing and the grid and differ in u0 and phi2 (a sweep
over amplitudes and exponents q at one alpha).  The rows of all plain
power potentials take one Yosida call per evaluation, one exponent per
row, and any other phi2 object one call on its own rows
(``convex.yosida_rows``).  Every step array has a leading row axis.  The
rows share one ``History``, each row's path contiguous, and each step
sums the near field of all live rows in one call; the resolvents work
row by row inside one call, and every per-row reduction keeps the
single-row summation order, so a row comes out bitwise as it does alone.
A row leaves the batch at its own exit (a threshold, a non-finite state,
a stalled resolvent, or any exception, which becomes its outcome), the
history drops its path before the next step, and the others march on: a
step that raises, its Picard loop included, is re-run row by row, and one
test after the step's writes finds every row over a threshold or not
finite.  A single solve is a batch of one.  Whole-path buffers beyond
``BATCH_BYTES`` split a batch into chunks: the history input always, the
states, xi and eta only for kept trajectories.

Without a phi2 and with phi1 exactly a ``Quadratic`` (every
scalar-quadratic solve) the step is linear, and a chunk of any rows and
state size is one lower-triangular Toeplitz system in v = u - u0,

    sum_{k<j} c_k v_{j-k} = tau (f_j - u0),  c_0 = (1 + mu)(omega_0 + lam_visc),
    c_k = omega_k - omega_{k-1} for k >= 1, minus lam_visc at k = 1,

which ``_solve_linear`` solves in O(N log N) with ``toeplitz_inverse`` and
``causal_conv``; it agrees with the stepped ``_solve_loop`` to rounding.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from ._accel import History, causal_conv, toeplitz_inverse
from .certify import _derivative_energy, slack_budget
from .convex import ProxNonconvergence, Quadratic, yosida_rows
from .kernels import Certificate, SoninePair, TimeGrid, conv_weights, convolve, nonlocal_derivative


@dataclass
class ProblemSpec:
    """Cauchy data of the flow: energies, kernel pair, u0, forcing, grid.

    ``phi2`` may be None (no concave part).  ``forcing`` is None (no
    forcing) or a callable t -> state.  ``phi1_u0`` is phi1(u0), one
    value, which the domain check computes and the solve reads as its
    energy at node 0.
    """

    phi1: object
    phi2: object | None
    pair: SoninePair
    u0: np.ndarray
    forcing: object | None
    grid: TimeGrid

    def __post_init__(self):
        self.u0 = np.asarray(self.u0, dtype=np.float64)
        if not np.all(np.isfinite(self.u0)):
            raise ValueError("initial state must be finite")
        self.phi1_u0 = self.phi1.values(self.u0)
        if not np.isfinite(self.phi1_u0).all():
            raise ValueError("initial state must lie in the effective domain of phi1")

    def forcing_path(self):
        """The forcing at the grid nodes, shape (N+1,) + state shape."""
        if self.forcing is None:
            return np.zeros((self.grid.steps + 1,) + self.u0.shape)
        path = np.stack([np.broadcast_to(np.asarray(self.forcing(t), dtype=np.float64), self.u0.shape) for t in self.grid.times])
        if not np.all(np.isfinite(path)):
            raise ValueError("forcing must be finite at all nodes")
        return path


@dataclass
class SolverConfig:
    """Discretization knobs; defaults target desk-scale experiments.

    ``coupling="coupled"`` takes the phi2 Yosida rate at the current state
    through a Picard loop of at most ``max_picard`` iterations to
    ``inner_tol``.  A coupled solve raises ``ValueError`` before its first
    step unless kappa = mu/yosida_lam < 1 and kappa**max_picard <=
    inner_tol, with mu = tau/(omega_0 + visc).  At alpha = 0.5 without
    viscosity mu is about 0.89 N^(-1/2): the default yosida_lam = 1e-3
    needs N of about 2e6 steps, yosida_lam = 0.1 any N >= 198, and a
    viscosity lowers kappa at any N.
    """

    yosida_lam: float = 1e-3  # Moreau-Yosida parameter of phi2
    visc: float = 0.0  # viscosity coefficient, 0 disables the du/dt term
    inner_tol: float = 1e-10
    max_picard: int = 50
    blowup_norm: float = 1e6  # on ||u||_inf
    blowup_energy: float = 1e12  # on phi1(u)
    coupling: str = "semi_implicit"  # or "coupled"

    def __post_init__(self):
        if not 0 < self.yosida_lam < math.inf:
            raise ValueError("Yosida parameter must be positive and finite")
        if not 0 <= self.visc < math.inf:
            raise ValueError("viscosity must be nonnegative and finite")
        if not (self.blowup_norm > 0 and self.blowup_energy > 0):
            raise ValueError("blow-up thresholds must be positive")
        if not self.inner_tol > 0:
            raise ValueError("inner tolerance must be positive")
        if not self.max_picard >= 1:
            raise ValueError("max_picard must be at least 1")
        if self.coupling not in ("semi_implicit", "coupled"):
            raise ValueError(f"unknown coupling mode {self.coupling!r}")


@dataclass
class Trajectory:
    """Discrete solution path with selections and per-node diagnostics.

    Arrays are aligned with the grid nodes (index 0 = initial data); the
    selections and residuals are only meaningful from node 1 on.  A solve
    whose caller drops the trajectory (``solve_dc_rows`` with
    ``keep_trajectory=False``) stores no path and re-assembles no
    residuals: ``states``, ``xi``, ``eta`` and ``residuals`` are None there.

    A row that blows up is the path of its maximal interval: ``states``,
    ``xi``, ``eta`` and ``residuals`` are None, ``node`` is the node being
    stepped when it left and ``reason`` says why; both are None for a row
    that reached T.  ``energy1``, ``envelope2`` and ``norms`` run through
    ``node`` on a threshold crossing, one node past ``t_star`` (so
    ``sup_energy1`` includes the crossing node), and through node - 1 on a
    non-finite state or a stalled resolvent (or a coupled Picard loop that
    used up its budget), which on a state of at least 0.01 * blowup_norm
    counts as a norm-threshold crossing.
    """

    grid: TimeGrid
    space_weight: float
    energy1: np.ndarray  # phi1(u_j)
    envelope2: np.ndarray  # phi2_lam at the eta evaluation point
    norms: np.ndarray  # ||u_j||_H
    e_t: float  # phi1(u0) + sup_j (ell * ||f||^2)(t_j)
    alpha: float | None = None
    states: np.ndarray | None = None  # (N+1,) + state shape
    xi: np.ndarray | None = None  # selection in dphi1, node-aligned
    eta: np.ndarray | None = None  # Yosida rate of phi2
    residuals: np.ndarray | None = None  # discrete equation residual per node
    node: int | None = None  # the node being stepped at a blow-up
    reason: str | None = None  # "norm-threshold" | "energy-threshold" | "non-finite"

    @property
    def sup_energy1(self):
        return float(np.max(self.energy1))

    @property
    def t_star(self):
        """(node - 1) tau, the node before a blow-up's exit; None for a row that reached T."""
        return None if self.node is None else self.node * self.grid.tau - self.grid.tau


def _forcing_sup(spec, f_path):
    """sup_j (ell * ||f||_H^2)(t_j), the forcing part of E_T."""
    weight = spec.phi1.space.weight
    axes = tuple(range(1, f_path.ndim))
    sq = weight * np.sum(f_path**2, axis=axes)
    if not np.any(sq):
        return 0.0
    return float(np.max(convolve(spec.pair.ell, sq, spec.grid)))


def _residuals(spec, config, u0, states, xi, eta, forcing_path):
    """Node-wise H-norm of the discrete equation residual, node 0 set to 0.

    Re-assembled from scratch, independent of the step algebra, so it also
    checks that the stepper and the nonlocal derivative use one quadrature
    convention.
    """
    axes = tuple(range(1, states.ndim))
    res_vec = nonlocal_derivative(spec.pair.k, states - u0, spec.grid)
    if config.visc > 0:
        res_vec[1:] += config.visc * np.diff(states, axis=0) / spec.grid.tau
    # deriv + xi - eta - f, in place: no path-sized temporaries
    res_vec += xi
    res_vec -= eta
    res_vec -= forcing_path
    residuals = np.sqrt(spec.phi1.space.weight * np.sum(np.square(res_vec, out=res_vec), axis=axes))
    residuals[0] = 0.0
    return residuals


# byte budget of the whole-path buffers (the history input v, plus the
# states, xi and eta when the trajectories are kept) of one batch of rows;
# solve_dc_rows splits larger batches
BATCH_BYTES = 2 << 20


def _isolate(fn, exc, *batches):
    """Sort out which rows made ``fn(*batches)`` raise ``exc``: run each row alone.

    ``fn`` returns a tuple of per-row arrays, the row axis first.  Returns
    ``(kept, out, errors)``: ``out`` is the output for the rows that
    succeed, ``kept`` their positions in the batch and ``errors`` the
    exception of each failing row by its position.  A batch of one is not
    re-run: ``exc`` is its row's.
    """
    if len(batches[0]) == 1:
        return np.zeros(0, dtype=int), None, {0: exc}
    parts, errors = [], {}
    for k in range(len(batches[0])):
        try:
            parts.append(fn(*(b[k : k + 1] for b in batches)))
        except Exception as error:  # noqa: BLE001 - the row's own outcome
            errors[k] = error
    kept = np.array([k for k in range(len(batches[0])) if k not in errors], dtype=int)
    if not parts:
        return kept, None, errors
    return kept, tuple(np.concatenate(outputs) for outputs in zip(*parts)), errors


def _step_weights(pair, grid, visc):
    """The Toeplitz weights omega of k, the step denominator omega_0 + visc
    and the resolvent parameter mu = tau/denom."""
    omega = conv_weights(pair.k, grid)
    denom = omega[0] + visc
    return omega, denom, grid.tau / denom


def check_coupling(config, pair, grid):
    """Reject a coupled step whose Picard map does not contract within its budget.

    The map u -> J_mu(b + mu A_lam(u)) has Lipschitz constant kappa =
    mu/lam.  Raises ``ValueError`` naming kappa unless kappa < 1 and
    kappa**max_picard <= inner_tol: the loop then reaches its tolerance
    within its budget.
    """
    kappa = _step_weights(pair, grid, config.visc)[2] / config.yosida_lam
    if not (kappa < 1 and kappa**config.max_picard <= config.inner_tol):
        raise ValueError(
            f"coupled mode needs kappa = mu/yosida_lam < 1 and kappa**max_picard <= inner_tol, got kappa = {kappa:.4g} "
            f"(max_picard = {config.max_picard}, inner_tol = {config.inner_tol:g}); use a larger yosida_lam or a viscosity"
        )


def _picard(step_rows, space, config, base, u_new, rhs, eta_val, env_val, ids):
    """The inner Picard loop of the coupled mode, row by row.

    Each row iterates from its step result ``u_new`` until its increment
    converges or its iterate is not finite; ``u_new`` and the step arrays
    are updated in place, ``ids`` are the batch rows.  Returns the states;
    raises what a row raises, or ``ProxNonconvergence`` when a row uses up
    its ``max_picard`` budget.  While every row iterates, each iterate goes
    on as the resolvent's result itself, not a copy, so that a warm-started
    resolvent finds its gradient in its memo: to the next iteration, and,
    when every row converged in the same one, to the next step.
    """
    pending = np.flatnonzero(np.isfinite(space.rows(u_new)).all(axis=1))  # the rows still iterating
    if not pending.size:  # a resolvent may not take zero rows
        return u_new
    u = u_new if pending.size == len(u_new) else u_new[pending]  # their iterates
    for _ in range(config.max_picard):
        eta_val[pending], env_val[pending], u_next, rhs[pending] = step_rows(u, base[pending], ids[pending])
        inc = space.row_norms(u_next - u_new[pending])
        u_new[pending] = u_next
        going = inc > config.inner_tol * (1.0 + space.row_norms(u_next))  # False on a non-finite iterate
        pending, inc = pending[going], inc[going]
        if not pending.size:
            return u_next if len(going) == len(u_new) else u_new
        u = u_next if pending.size == len(going) else u_next[going]
    raise ProxNonconvergence(float(inc.max()), config.max_picard)


class _Batch:
    """The whole-path buffers of a batch of rows and the outcome of each row.

    The buffers are node first: a row's trajectory is the slice [:, r],
    and a step writes node j of every live row at once, its norms
    included.  ``finish`` and ``fail`` are the row exits of ``_solve_loop``
    and ``_solve_linear``.
    """

    def __init__(self, spec, config, forcing_path, u0s, phi1_u0s, keep_trajectory):
        n, rows = spec.grid.steps, len(u0s)
        self.spec, self.config, self.forcing_path, self.u0s, self.keep = spec, config, forcing_path, u0s, keep_trajectory
        self.omega, self.denom, self.mu = _step_weights(spec.pair, spec.grid, config.visc)
        self.space = spec.phi1.space
        self.envelope2, self.energy1, self.norms = (np.zeros((n + 1, rows)) for _ in range(3))
        self.states = self.xi = self.eta = None  # the paths of kept trajectories
        if keep_trajectory:
            self.states, self.xi, self.eta = (np.zeros((n + 1,) + u0s.shape) for _ in range(3))
            self.states[0] = u0s
        self.norms[0] = self.space.row_norms(u0s)
        self.energy1[0] = phi1_u0s
        self.e_t = self.energy1[0] + _forcing_sup(spec, forcing_path)
        self.outcomes = [None] * rows

    def finish(self, r, accepted, node=None, reason=None):
        """Make row r's Trajectory: its path runs through the node
        ``accepted``, and a row that blew up left at ``node`` with a ``reason``."""
        path = slice(accepted + 1)
        self.outcomes[r] = traj = Trajectory(
            grid=self.spec.grid,
            space_weight=self.space.weight,
            energy1=self.energy1[path, r],
            envelope2=self.envelope2[path, r],
            norms=self.norms[path, r],
            e_t=float(self.e_t[r]),
            alpha=self.spec.pair.alpha,
            node=node,
            reason=reason,
        )
        if self.keep and reason is None:
            traj.states, traj.xi, traj.eta = self.states[:, r], self.xi[:, r], self.eta[:, r]
            sel = traj.xi[1:]  # rhs until now: xi = (rhs - u)/mu, in place
            np.divide(np.subtract(sel, traj.states[1:], out=sel), self.mu, out=sel)
            traj.residuals = _residuals(self.spec, self.config, self.u0s[r], traj.states, traj.xi, traj.eta, self.forcing_path)

    def fail(self, r, exc, amax, j):
        """Row r's step j raised ``exc``; ``amax`` is the largest entry of
        its previous state in absolute value.

        A step escaping toward overflow (through the phi1 or the phi2
        resolvent) is a threshold crossing, not a solver defect; on a
        bounded state the exception is the row's outcome.
        """
        if isinstance(exc, (FloatingPointError, ProxNonconvergence)) and amax >= 0.01 * self.config.blowup_norm:
            self.finish(r, j - 1, j, "norm-threshold")
        else:
            self.outcomes[r] = exc


def _solve_loop(spec, config, forcing_path, u0s, phi1_u0s, phi2s, keep_trajectory):
    """Shared stepping core: march the initial states ``u0s`` (stacked
    along axis 0), whose energies phi1 are ``phi1_u0s``, as one batch of
    rows against ``forcing_path``.

    Row r's phi2 is ``phi2s[r]`` (``spec.phi2`` is not read), evaluated
    here and nowhere else, through ``convex.yosida_rows``: its Yosida rate
    eta and envelope at the previous states (semi-implicit), or at each
    Picard iterate (coupled), and the envelope at u0; without a phi2 that
    is the zero map, and coupled mode steps as semi-implicit.  Returns one
    outcome per row: a :class:`Trajectory` (one that stopped early at a
    blow-up), or the exception the row raises.  A step, with its Picard
    loop, that raises is re-run row by row (``_isolate``, ``_Batch.fail``),
    and one test after its writes ends every row over a threshold or not
    finite; the others march on.  Without ``keep_trajectory`` the history
    input is the only path stored: a completed row's Trajectory carries
    None for states, xi, eta and the residuals.
    """
    grid = spec.grid
    n = grid.steps
    space = spec.phi1.space
    rows = len(u0s)
    size = u0s[0].size

    prox, tol = spec.phi1.prox, config.inner_tol
    # one Yosida call for the rows of all plain power potentials, one per
    # other phi2, and the zero map without one
    yosida = yosida_rows(phi2s, config.yosida_lam, tol)
    coupled = config.coupling == "coupled" and phi2s[0] is not None
    if coupled:
        check_coupling(config, spec.pair, grid)

    batch = _Batch(spec, config, forcing_path, u0s, phi1_u0s, keep_trajectory)
    omega, denom, mu, envelope2 = batch.omega, batch.denom, batch.mu, batch.envelope2
    live = np.arange(rows)  # the rows still marching
    try:
        envelope2[0] = yosida(u0s, live)[1]
    except Exception as exc:  # noqa: BLE001 - sorted out row by row
        live, out, errors = _isolate(yosida, exc, u0s, live)
        for k, error in errors.items():
            batch.outcomes[k] = error
        if out is not None:
            envelope2[0, live] = out[1]
    prev = u0s[live]  # the previous states of the live rows, in their order
    # u - u0 history for the nonlocal term: one contiguous path per row,
    # flat states, summed for all live rows at once.  The history holds
    # the rows ``held``, the live rows of the last compaction, at the
    # positions 0, 1, ...; node j of the row at position k is v_nodes[j, k]
    v = np.zeros((rows, n + 1) + u0s.shape[1:])
    v_nodes = v.swapaxes(0, 1)
    paths = v.reshape(rows, n + 1, size)
    history = History(omega, paths)
    held = np.arange(rows)

    def step_rows(u, b, ids):
        # the explicit part at the rows u of the batch rows ids (the
        # previous states, or in coupled mode a Picard iterate), then the
        # phi1 resolvent of the rows with step data b, started from u (a
        # closed form ignores the start).  A zero eta turns a -0.0 forcing
        # into +0.0
        eta_val, env_val = yosida(u, ids)
        rhs = b + mu * (forcing_path[j] + eta_val)
        if not np.logical_and.reduce(np.isfinite(rhs), axis=None):  # ndarray.all adds a Python layer
            raise FloatingPointError("non-finite step data")
        return eta_val, env_val, prox(rhs, mu, tol=tol, start=u), rhs

    def advance(u, b, ids):
        # one step of the rows from their previous states u, and in coupled
        # mode its Picard loop, which raises for the rows as the step does
        eta_val, env_val, u_new, rhs = step_rows(u, b, ids)
        if coupled:
            u_new = _picard(step_rows, space, config, b, u_new, rhs, eta_val, env_val, ids)
        return eta_val, env_val, u_new, rhs

    marching = -1  # the number of live rows the per-row data below are for
    for j in range(1, n + 1):
        if live.size != marching:
            if not live.size:
                break
            if live.size < held.size:  # rows left: drop them from the history
                history.compact(np.searchsorted(held, live), j)
                held = live
            marching = live.size
            live_u0 = u0s[live]
            live_start = omega[0] * live_u0
        base = (live_start - history(j).reshape(prev.shape) + config.visc * prev) / denom

        try:
            eta_val, env_val, u_new, rhs = advance(prev, base, live)
        except Exception as exc:  # noqa: BLE001 - sorted out row by row
            kept, out, errors = _isolate(advance, exc, prev, base, live)
            for k, error in errors.items():
                batch.fail(live[k], error, np.max(np.abs(prev[k])), j)
            live, prev = live[kept], prev[kept]
            if out is None:
                continue
            eta_val, env_val, u_new, rhs = out

        # every row is written at node j, a non-finite one too: its path
        # ends at node j - 1, and the history drops it before the next sum.
        # An int index is the fast one, and v takes u - u0 in place while
        # every row the history holds is live
        node = j if live.size == rows else (j, live)
        with np.errstate(over="ignore", invalid="ignore"):  # a leaving row's node j is not read
            if live.size == marching:
                np.subtract(u_new, live_u0, out=v_nodes[j, :marching])
            else:
                v_nodes[j, np.searchsorted(held, live)] = u_new - u0s[live]
            if keep_trajectory:
                batch.states[node] = u_new
                batch.xi[node] = rhs  # xi = (rhs - u)/mu, taken over the whole path at the end
                batch.eta[node] = eta_val
            batch.norms[node] = space.row_norms(u_new)
            envelope2[node] = env_val
            batch.energy1[node] = e1 = spec.phi1.values(u_new)

            # the one exit test: the batch maximum fails it when any entry
            # is non-finite or too big, and a NaN energy maximum takes the
            # per-row test, which ignores NaN
            if not (np.maximum.reduce(np.abs(u_new), axis=None) <= config.blowup_norm and max(e1.tolist()) <= config.blowup_energy):
                amax = np.abs(u_new).reshape(live.size, size).max(axis=1)
                over = ~(amax <= config.blowup_norm) | (e1 > config.blowup_energy)
                for k in np.flatnonzero(over):
                    if not np.isfinite(amax[k]):
                        batch.finish(live[k], j - 1, j, "non-finite")
                    else:
                        batch.finish(live[k], j, j, "norm-threshold" if amax[k] > config.blowup_norm else "energy-threshold")
                live, u_new = live[~over], u_new[~over]
        prev = u_new

    # the history input is not needed any more: free it before the
    # re-assembly of the residuals
    v = v_nodes = paths = history = None
    for r in live:
        batch.finish(r, n)
    return batch.outcomes


def _solve_linear(spec, config, forcing_path, u0s, phi1_u0s, phi2s, keep_trajectory):
    """``_solve_loop`` for rows without a phi2 (``phi2s`` are all None)
    whose phi1 is exactly a ``Quadratic``: one Toeplitz solve for the
    whole path of every row.

    A row leaves at its first node over a threshold or with non-finite
    step data (by the rule of ``_Batch.fail``), read off the path; its
    input is zeroed from a non-finite node on, as one NaN would spoil the
    whole transform.  xi = u is stored as the step data (1 + mu) u."""
    batch = _Batch(spec, config, forcing_path, u0s, phi1_u0s, keep_trajectory)
    n, rows, size = spec.grid.steps, len(u0s), u0s[0].size
    column = np.concatenate([[batch.denom * (1.0 + batch.mu)], np.diff(batch.omega[:n])])
    column[1:2] -= config.visc  # a one-step grid has no c_1
    cells = spec.grid.tau * (forcing_path[1:, None] - u0s).reshape(n, rows, size)
    bad = np.vstack([np.zeros((1, rows), dtype=bool), ~np.isfinite(cells).all(axis=2)])  # (node, row)
    for r in np.flatnonzero(bad.any(axis=0)):
        cells[np.argmax(bad[:, r]) - 1 :, r] = 0.0
    u = causal_conv(toeplitz_inverse(column), cells.reshape(n, rows * size)).reshape(n + 1, rows, size) + u0s.reshape(rows, size)
    bad |= ~np.isfinite(u).all(axis=2)
    with np.errstate(over="ignore", invalid="ignore"):  # the nodes past an exit are not read
        amax = np.abs(u).max(axis=2)
        batch.energy1[1:] = spec.phi1.values(u[1:]).reshape(n, rows)
        batch.norms[1:] = batch.space.row_norms(u[1:]).reshape(n, rows)
        if keep_trajectory:
            batch.states[1:] = u[1:].reshape(batch.states[1:].shape)
            batch.xi[1:] = (1.0 + batch.mu) * batch.states[1:]
        over = (amax > config.blowup_norm) | (batch.energy1 > config.blowup_energy)
    over[0] = False
    u = cells = None  # free the paths before the residuals
    for r in range(rows):
        exits = np.flatnonzero(bad[:, r] | over[:, r])
        j = int(exits[0]) if exits.size else n + 1
        if j > n:
            batch.finish(r, n)
        elif bad[j, r]:
            batch.fail(r, FloatingPointError("non-finite step data"), amax[j - 1, r], j)
        else:
            batch.finish(r, j, j, "norm-threshold" if amax[j, r] > config.blowup_norm else "energy-threshold")
    return batch.outcomes


def _alone(outcome):
    # the outcome of a batch of one: raise what the row raised
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def solve_dc_rows(specs, config=None, keep_trajectory=True):
    """March Cauchy problems that differ only in u0 and phi2 as one batch of rows.

    The specs share phi1, the kernel pair, the forcing and the grid (the
    same objects); each has a phi2 or none has, and the phi2 are evaluated
    in the groups of ``convex.yosida_rows``.  Yields, per spec and in
    order, what :func:`solve_dc_flow` returns for it alone, or the
    exception it raises alone: each row leaves the batch at its own exit.
    A caller that drops the trajectories passes ``keep_trajectory=False``:
    a completed row's Trajectory then carries ``states = xi = eta =
    residuals = None``, and all else (energies, norms, envelope, E_T,
    the exit node and reason of a blow-up) is as when kept.  Rows whose
    whole-path buffers (the history input, plus states, xi and eta when
    kept) exceed ``BATCH_BYTES`` together march in consecutive chunks,
    each yielded when done, so a consumer that drops the trajectories
    holds one chunk's buffers at a time.
    """
    config = config or SolverConfig()
    first = specs[0]
    phi2s = [spec.phi2 for spec in specs]
    if 0 < phi2s.count(None) < len(specs) or any(getattr(spec, name) is not getattr(first, name) for spec in specs for name in ("phi1", "pair", "forcing", "grid")):
        raise ValueError("the rows of a batch must share everything but u0 and phi2, and have a phi2 all or none")
    forcing_path = first.forcing_path()
    u0s = np.stack([spec.u0 for spec in specs])
    phi1_u0s = np.concatenate([spec.phi1_u0 for spec in specs])
    per_row = (4 if keep_trajectory else 1) * (first.grid.steps + 1) * first.u0.size * u0s.itemsize
    chunk = max(1, BATCH_BYTES // per_row)
    solve = _solve_linear if phi2s[0] is None and type(first.phi1) is Quadratic else _solve_loop
    for lo in range(0, len(specs), chunk):
        at = slice(lo, lo + chunk)
        yield from solve(first, config, forcing_path, u0s[at], phi1_u0s[at], phi2s[at], keep_trajectory)


def solve_dc_flow(spec, config=None):
    """March the difference-of-convex flow; one resolvent call per step.

    Returns a :class:`Trajectory`; when the state blows up (a threshold
    crossing or a non-finite state) it stops at its last accepted node
    and carries the exit ``node`` and ``reason``.  Coupled
    mode raises ``ValueError`` before the first step unless its Picard map
    contracts within its budget (:func:`check_coupling`).  A single solve
    is a batch of one row.
    """
    (outcome,) = solve_dc_rows([spec], config)
    return _alone(outcome)


def continuity_modulus(states, grid, space_weight, pair, slack_coeff=0.0):
    """Check ||u(t+h) - u(t)|| of the states on ``grid`` against the
    continuous-representative bound; ``space_weight`` is the weight of
    the inner product.

    For each dyadic lag h the bound is

        ||ell||_{L1(0,h)}^{1/2} S^{1/2}
            + ||ell(h+.) - ell(.)||_{L1(0,T-h)}^{1/2} S^{1/2},

    with S = sup_j (ell * ||G||^2)(t_j) and G the nonlocal derivative of
    the trajectory; both ell integrals are exact via the antiderivative.
    A grid of one step has no dyadic lag h <= T/2: nothing is compared,
    and the certificate is a reject.
    """
    tau = grid.tau
    n = grid.steps
    u = states
    axes = tuple(range(1, u.ndim))
    sup_conv = float(np.max(_derivative_energy(u, grid, space_weight, pair)[1]))
    big_l = pair.ell.antiderivative

    lags = []
    moduli = []
    bounds = []
    m = 1
    while m <= n // 2:
        h = m * tau
        diff = u[m:] - u[:-m]
        modulus = float(np.max(np.sqrt(space_weight * np.sum(diff**2, axis=axes))))
        # nonincreasing ell: ||ell(h+.) - ell(.)||_L1(0,T-h) telescopes
        shift = float(big_l(grid.horizon - h) - (big_l(grid.horizon) - big_l(h)))
        bound = np.sqrt(float(big_l(h)) * sup_conv) + np.sqrt(max(shift, 0.0) * sup_conv)
        lags.append(h)
        moduli.append(modulus)
        bounds.append(bound)
        m *= 2
    lags = np.array(lags)
    moduli = np.array(moduli)
    bounds = np.array(bounds)
    slack = slack_budget(tau, slack_coeff)
    details = {"lags": lags, "moduli": moduli, "bounds": bounds, "slack": slack}
    if not lags.size:
        status = "reject"
        details["reason"] = "no dyadic lag h <= T/2: the grid has one step"
    else:
        status = "pass" if np.all(moduli <= bounds + slack) else "fail"
    return Certificate("continuity-modulus", status, details, "certificate")


# ---------------------------------------------------------------------------
# serialization


CSV_COLUMNS = ["j", "t", "norm", "energy1", "envelope2", "residual"]
_DUMP_MAGIC = b"FFLW"
_DUMP_VERSION = 2


def trajectory_to_csv(traj, path):
    """Plot-ready CSV: one row per node, 17 significant digits, LF endings."""
    nodes = np.arange(traj.grid.steps + 1)
    # %.17g on a Python float gives the bytes of format(x, ".17g")
    columns = [nodes.tolist(), (nodes * traj.grid.tau).tolist()]
    for values in (traj.norms, traj.energy1, traj.envelope2, traj.residuals):
        columns.append(np.asarray(values, dtype=np.float64).tolist())
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.writelines("%d,%.17g,%.17g,%.17g,%.17g,%.17g\n" % row for row in zip(*columns))


def save_state_dump(traj, path):
    """Binary full-state dump, little-endian.

    Layout (version 2): magic "FFLW", version u32, m u32 (flattened state
    dimension), N u32 (steps), horizon f64, alpha f64 (NaN when the kernel
    is not Riemann-Liouville), space weight f64, rank u32, the state shape
    as rank u32s, then (N+1) x m float64 states row-major.
    """
    shape = traj.states.shape[1:]
    states = traj.states.reshape(traj.grid.steps + 1, -1)
    m = states.shape[1]
    alpha = traj.alpha if traj.alpha is not None else float("nan")
    with open(path, "wb") as fh:
        fh.write(_DUMP_MAGIC)
        fh.write(struct.pack("<III", _DUMP_VERSION, m, traj.grid.steps))
        fh.write(struct.pack("<dd", traj.grid.horizon, alpha))
        fh.write(struct.pack(f"<dI{len(shape)}I", traj.space_weight, len(shape), *shape))
        fh.write(states.astype("<f8").tobytes())


class DumpFormatError(ValueError):
    """State dump unreadable: bad magic, version, header value, shape or truncation."""


def load_state_dump(path):
    """Read a version-2 dump back; raises :class:`DumpFormatError` on corruption.

    Returns the states (shaped), the grid, alpha (None when absent) and the
    space weight of the inner product.  The header must hold m >= 1 and
    N >= 1, a finite positive horizon and weight, and alpha NaN or in
    (0, 1), and every state must be finite: a certificate of a NaN or
    infinite state has no meaning.  A version-1 dump carries no weight and
    is rejected: read with weight 1, a p-Laplace dump would be certified
    in the wrong norm.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    header = 4 + 12 + 16 + 12
    if len(blob) < 16 or blob[:4] != _DUMP_MAGIC:
        raise DumpFormatError(f"{path}: not a state dump")
    version, m, n = struct.unpack("<III", blob[4:16])
    if version != _DUMP_VERSION:
        raise DumpFormatError(f"{path}: unsupported version {version}")
    try:
        horizon, alpha, weight, rank = struct.unpack_from("<dddI", blob, 16)
        shape = struct.unpack_from(f"<{rank}I", blob, header)
    except struct.error as exc:
        raise DumpFormatError(f"{path}: truncated header") from exc
    header += 4 * rank
    finite_positive = 0 < horizon < math.inf and 0 < weight < math.inf
    if not (m >= 1 and n >= 1 and finite_positive and (math.isnan(alpha) or 0 < alpha < 1)):
        raise DumpFormatError(f"{path}: bad header values m = {m}, N = {n}, horizon = {horizon}, alpha = {alpha}, weight = {weight}")
    if math.prod(shape) != m:
        raise DumpFormatError(f"{path}: state shape {shape} does not hold {m} values")
    expected = header + (n + 1) * m * 8
    if len(blob) != expected:
        raise DumpFormatError(f"{path}: expected {expected} bytes, found {len(blob)}")
    states = np.frombuffer(blob[header:], dtype="<f8").reshape((n + 1,) + shape).copy()
    finite = np.isfinite(states.reshape(n + 1, m)).all(axis=1)
    if not finite.all():
        raise DumpFormatError(f"{path}: non-finite state at node {int(np.argmin(finite))}")
    return {
        "states": states,
        "grid": TimeGrid(horizon, n),
        "alpha": None if math.isnan(alpha) else alpha,
        "space_weight": weight,
    }
