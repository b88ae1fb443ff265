"""Exact force-free propagation of arbitrary initial states.

The undriven master equation has a closed solution built from three scalar
functions of time,

    F = cosh(gamma t) + (gamma'/gamma) sinh(gamma t),
    E = (mu / (gamma F)) sinh(gamma t),
    G = (nu / (gamma F)) sinh(gamma t),

with gamma = (mu-nu)/2 and gamma' = (mu+nu)/2. The full propagator
(fujii_density) is a double operator sum: an inner Poisson-weighted sum of
a^k rho0 a+^k with weight E, an elementwise damping by
exp(-i omega t (m-n)) F^(-(m+n)) in the number basis, and an outer sum of
a+^j (...) a^j with weight G. Each term is positive semidefinite, so its
trace is its trace norm and drives the termination test.

Special initial states collapse the sums: the ground state goes to a
geometric (thermal) distribution with ratio G(t), and a coherent state
stays Gaussian with u(t) = G(t).
"""

from __future__ import annotations

import math

import numpy as np

from .fock_core import DensityMatrix, _as_matrix, _geometric_state
from .gaussian_class import GaussianState, gaussian_flow
from .lindblad_engine import LindbladParams

__all__ = [
    "efg",
    "fujii_density",
    "thermal_from_ground",
    "coherent_free_evolution",
]

_TERM_TOL = 1e-14


def _log_F(t, params: LindbladParams):
    # F = ((g+gp)/(2g)) e^{gt} (1 + e^{-2gt} (g-gp)/(g+gp)); log form avoids
    # cosh overflow long before F itself leaves float range
    g, gp = params.gamma, params.gamma_prime
    t = np.asarray(t, dtype=float)
    return (g * t + math.log((g + gp) / (2.0 * g))
            + np.log1p(np.exp(-2.0 * g * t) * (g - gp) / (g + gp)))


def efg(t, params: LindbladParams):
    """(E, F, G) at time t >= 0, one code path for every shape of t: a
    scalar t gives numpy scalars (np.float64, a subclass of float), an
    array t arrays of its shape.

    E and G are evaluated through tanh so they stay finite for any t;
    F grows like e^(gamma t) and is returned as computed.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    g, gp = params.gamma, params.gamma_prime
    th = np.tanh(g * t)
    den = g + gp * th
    E = params.mu * th / den
    G = params.nu * th / den
    F = np.exp(_log_F(t, params))
    return E, F, G


def fujii_density(rho0: DensityMatrix, t: float,
                  params: LindbladParams) -> DensityMatrix:
    """Propagate rho0 by the exact force-free double operator sum, as a
    validated DensityMatrix (see ``_fujii_raw``)."""
    return DensityMatrix.from_matrix(_fujii_raw(rho0, t, params))


def _fujii_raw(rho0, t: float, params: LindbladParams) -> np.ndarray:
    """The double operator sum as a raw matrix, whose trace deficit
    measures the truncation loss.

    Each sum runs over the powers k = 1 .. dim-1, the only ones with a
    nonzero term (from k = dim on the shifted band has left the basis),
    and stops early once a term's trace falls below 1e-14.
    """
    m0 = _as_matrix(rho0)
    dim = m0.shape[0]
    t = float(t)
    E, _, G = efg(t, params)
    logF = float(_log_F(t, params))
    w2 = np.outer(np.sqrt(np.arange(1.0, dim)), np.sqrt(np.arange(1.0, dim)))

    def _shrink(x):          # a X a+
        out = np.zeros_like(x)
        out[:-1, :-1] = x[1:, 1:] * w2
        return out

    def _grow(x):            # a+ X a
        out = np.zeros_like(x)
        out[1:, 1:] = x[:-1, :-1] * w2
        return out

    def _series(x0, step, weight):
        acc = x0.copy()
        term = x0
        for k in range(1, dim):
            term = (weight / k) * step(term)
            tr = float(term.trace().real)
            if tr <= _TERM_TOL:
                break
            acc += term
        return acc

    inner = _series(m0, _shrink, E)
    phase = np.exp(-np.arange(dim) * (1j * params.omega * t + logF))
    mid = (phase[:, None] * inner) * phase.conj()[None, :]
    outer = _series(mid, _grow, G)
    return (1.0 - G) * outer


def thermal_from_ground(t: float, params: LindbladParams,
                        dim: int) -> DensityMatrix:
    """State grown from the ground state: geometric populations with ratio
    G(t), so <n> = (nu/2gamma)(1 - e^(-2 gamma t)). nu=0 stays the ground
    state forever."""
    return _geometric_state(efg(float(t), params)[2], dim)


def coherent_free_evolution(alpha0, t: float,
                            params: LindbladParams) -> GaussianState:
    """Coherent initial state under f=0, propagated by gaussian_flow: u(t)
    from solve_u, which equals G(t) to rounding (the riccati-consistency
    check), and amplitude alpha0 e^(-(gamma + i omega) t) from mean_a. For
    nu=0 it stays pure."""
    return gaussian_flow(GaussianState.coherent(alpha0), t, params)
