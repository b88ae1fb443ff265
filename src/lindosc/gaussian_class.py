"""Gaussian density operators that stay Gaussian under the damped dynamics.

A state here is rho = Z * exp(beta a+) exp(sigma n) exp(conj(beta) a) with
sigma < 0, normalized by Z = b * exp(-|beta|^2 / b) where u = e^sigma and
b = 1 - u. The class is closed under the master equation: u follows a scalar
Riccati equation with the closed-form solution in solve_u, and
alpha = beta / b follows the first-moment ODE, so propagation never touches
a matrix. The u -> 0 limit is the pure coherent state |alpha><alpha| and is
kept representable by storing u itself rather than sigma.

Also here: the Husimi function (a Gaussian of height b), the driven limit
cycle, and the entropy, which depends on u alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fock_core import (
    DensityMatrix,
    TruncationWarning,
    _check_adequacy,
    _require_dim,
    coherent_state,
    log_factorial,
)
from .lindblad_engine import DriveFn, LindbladParams
from .observables import limit_cycle_alpha, mean_a

__all__ = [
    "GaussianState",
    "HusimiGrid",
    "PURE_U_THRESHOLD",
    "solve_u",
    "gaussian_flow",
    "materialize",
    "husimi_value",
    "husimi_grid",
    "limit_cycle_state",
    "entropy",
    "entropy_infinity",
]

PURE_U_THRESHOLD = 1e-300    # below this, u is treated as exactly 0
_TAIL_WARN = 1e-7            # population above the basis worth a warning
_TAIL_CAP = 100_000          # levels _population_tail walks past a smaller dim


@dataclass(frozen=True)
class GaussianState:
    """Parameters (u, beta) of a normalized Gaussian density operator.

    u = e^sigma in [0, 1) is the width parameter (0 = pure coherent state,
    nu/mu = thermal steady value); beta = alpha * (1 - u). b = 1 - u and
    alpha are derived properties; sigma = log u and Z = b exp(-|beta|^2 / b)
    are computed inline where a formula needs them (materialize).
    """

    u: float
    beta: complex

    def __post_init__(self):
        u = float(self.u)
        beta = complex(self.beta)
        if not (math.isfinite(u) and 0.0 <= u < 1.0):
            raise ValueError(f"u must lie in [0, 1), got {self.u!r}")
        if not (math.isfinite(beta.real) and math.isfinite(beta.imag)):
            raise ValueError(f"beta must be finite, got {self.beta!r}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "beta", beta)

    @classmethod
    def coherent(cls, alpha) -> "GaussianState":
        return cls(u=0.0, beta=complex(alpha))

    @classmethod
    def thermal(cls, nbar: float) -> "GaussianState":
        if nbar < 0:
            raise ValueError(f"nbar must be >= 0, got {nbar}")
        return cls(u=nbar / (1.0 + nbar), beta=0.0)

    @classmethod
    def from_alpha(cls, u: float, alpha) -> "GaussianState":
        return cls(u=u, beta=complex(alpha) * (1.0 - u))

    @property
    def is_pure(self) -> bool:
        return self.u < PURE_U_THRESHOLD

    @property
    def b(self) -> float:
        return 1.0 - self.u

    @property
    def alpha(self) -> complex:
        return self.beta / self.b


# ---------------------------------------------------------------------------
# parameter flow


def solve_u(t, u0: float, params: LindbladParams):
    """Closed-form width parameter u(t) from u(0) = u0 in [0, 1).

    Solves u' = nu - 2 gamma' u + mu u^2; fixed point nu/mu. The form below
    is stable for all t >= 0 (numerator and denominator stay O(mu)).
    """
    if not 0.0 <= u0 < 1.0:
        raise ValueError(f"u0 must lie in [0, 1), got {u0}")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    mu, nu = params.mu, params.nu
    D = (mu * u0 - nu) * np.exp(-2.0 * params.gamma * t)
    return (D + nu * (1.0 - u0)) / (D + mu * (1.0 - u0))


def gaussian_flow(g0: GaussianState, t: float, params: LindbladParams,
                  drive: DriveFn | None = None) -> GaussianState:
    """Propagate a Gaussian state: two scalar closed forms, no matrices."""
    u = solve_u(float(t), g0.u, params)
    alpha = mean_a(float(t), g0.alpha, params, drive)
    return GaussianState.from_alpha(u, alpha)


# ---------------------------------------------------------------------------
# materialization and Fock populations


def materialize(g: GaussianState, dim: int) -> DensityMatrix:
    """Dense Fock-basis matrix of the state, exact at truncation.

    rho = Z e^(beta a+) diag(u^n) e^(beta* a) = M M+ with
    M[m, n] = sqrt(Z) u^(n/2) beta^(m-n) sqrt(m!/n!) / (m-n)!  (m >= n),
    assembled in log space. e^(beta a+) is nilpotent-triangular at
    truncation, so the series is exact; positivity holds by construction.

    Row m of M holds every term n <= m of p_m = sum_n |M[m, n]|^2, so
    the diagonal of M M+ is the exact population p_m for m < dim, and
    1 - tr(M M+) is the population on the levels >= dim, with no walk
    over levels; above _TAIL_WARN it raises a TruncationWarning.
    """
    dim = _require_dim(dim)
    _check_adequacy(g.alpha, dim)
    if g.is_pure:
        return DensityMatrix.pure(coherent_state(g.alpha, dim))

    lf = log_factorial(dim)
    n = np.arange(dim)
    half_log_Z = 0.5 * (math.log(g.b) - abs(g.beta) ** 2 / g.b)
    col = 0.5 * n * math.log(g.u) + half_log_Z
    if g.beta == 0:
        M = np.diag(np.exp(col)).astype(np.complex128)
    else:
        k = n[:, None] - n[None, :]          # m - n
        valid = k >= 0
        kc = np.where(valid, k, 0)
        logmag = (kc * math.log(abs(g.beta))
                  + 0.5 * (lf[:, None] - lf[None, :])
                  - lf[kc] + col[None, :])
        M = np.where(valid,
                     np.exp(logmag + 1j * kc * np.angle(g.beta)),
                     0.0)
    rho = M @ M.conj().T
    above = 1.0 - rho.trace().real
    if above > _TAIL_WARN:
        warnings.warn(
            f"population {above:.3e} lies above level {dim - 1}: the tail "
            f"extends past the basis, expectation values will be biased",
            TruncationWarning, stacklevel=2)
    return DensityMatrix.from_matrix(rho)


def _occupation(u, alpha):
    """<n> = u/(1-u) + |alpha|^2 of the Gaussian state (u, alpha);
    broadcasts over arrays."""
    return u / (1.0 - u) + abs(alpha) ** 2


def _population_tail(g: GaussianState, dim: int,
                     tol: float) -> tuple[int, float | None]:
    """(n, above): n is the smallest basis that leaves at most tol of the
    Fock population of g outside; above is the population on the levels
    >= dim when dim < n, else None. The walk stops at level
    L = max(dim, _TAIL_CAP): an n <= L is exact, and n = L + 1 is a lower
    bound, returned when the levels >= L still hold more than tol.

    The exact populations p_m = Z u^m L_m(-|beta|^2/u) follow from the
    Laguerre recurrence, written for the ratios p_m / p_(m-1) = u + s_m as
        s_1 = |beta|^2,  m s_m = |beta|^2 + (m-1) u s_(m-1) / (u + s_(m-1)),
    which has no cancelling terms (the plain three-term form drifted by
    6e-4 in log p over 1e7 levels at u = 1 - 1e-6). Working with log p, no
    term over- or underflows, and u = 0 (Poisson) needs no special case.
    The cost is one pass over the levels below min(n, L).
    """
    limit = max(dim, _TAIL_CAP)
    b2 = abs(g.beta) ** 2
    log_p, s = math.log(g.b) - b2 / g.b, b2
    tail, above, m = 1.0, None, 0     # tail: population on the levels >= m
    while tail > tol:
        if m == dim:
            above = tail
        if m == limit:
            return limit + 1, above
        if m > 1:
            s = (b2 + (m - 1) * g.u * s / (g.u + s)) / m
        if m:
            log_p += math.log(g.u + s)
        tail -= math.exp(log_p)
        m += 1
    return m, above


# ---------------------------------------------------------------------------
# Husimi distribution


@dataclass(frozen=True)
class HusimiGrid:
    """<alpha|rho|alpha> sampled on a rectangle in (x, p).

    values[i, j] is the density at (x_axis[i], p_axis[j]) with the mapping
    alpha = (omega x + i p) / sqrt(2 omega).
    """

    x_axis: np.ndarray
    p_axis: np.ndarray
    values: np.ndarray


def husimi_value(alpha_pt, g: GaussianState):
    """<alpha_pt|rho|alpha_pt> = b exp(-b |alpha_pt - alpha|^2); peak is b.
    alpha_pt is a point or an array of points (as husimi_grid passes)."""
    # np.square: a point's ** 2 would call pow, which can round off from x*x
    d2 = np.square(np.abs(np.asarray(alpha_pt, dtype=complex) - g.alpha))
    return g.b * np.exp(-g.b * d2)


def husimi_grid(g: GaussianState, window, resolution, omega: float) -> HusimiGrid:
    """Husimi values over window = (x_min, x_max, p_min, p_max).

    resolution is the pair (nx, np) of samples along x and p.
    """
    x_min, x_max, p_min, p_max = lims = tuple(float(v) for v in window)
    if not all(map(math.isfinite, lims)):
        raise ValueError(f"window must be finite, got {window!r}")
    if not (x_min < x_max and p_min < p_max):
        raise ValueError(f"window must satisfy x_min < x_max and "
                         f"p_min < p_max, got {window!r}")
    nx, npts = (int(v) for v in resolution)
    if nx < 2 or npts < 2:
        raise ValueError("resolution must be >= 2 per axis")
    x = np.linspace(x_min, x_max, nx)
    p = np.linspace(p_min, p_max, npts)
    s = math.sqrt(2.0 * omega)
    apts = (omega * x[:, None] + 1j * p[None, :]) / s
    return HusimiGrid(x_axis=x, p_axis=p, values=husimi_value(apts, g))


# ---------------------------------------------------------------------------
# limit cycle and entropy


def limit_cycle_state(t, params: LindbladParams, drive: DriveFn) -> GaussianState:
    """Asymptotic cyclic state under any drive: u = nu/mu rigidly
    transported along the limit cycle limit_cycle_alpha(t). A drive that is
    not active gives the thermal steady state; nu = 0 gives a pure coherent
    limit cycle."""
    u = params.nu / params.mu
    return GaussianState.from_alpha(u, limit_cycle_alpha(t, params, drive))


def entropy(u: float) -> float:
    """von Neumann entropy of a Gaussian state with width parameter u.

    Depends on u alone (beta shifts the spectrum nowhere):
    S = -log(1-u) - (u/(1-u)) log u, the entropy of a geometric
    distribution with ratio u.
    """
    if u <= 1e-15:
        return 0.0
    if u >= 1.0 - 1e-12:
        raise ValueError(f"u = {u!r} too close to 1: state not normalizable")
    return -math.log1p(-u) - (u / (1.0 - u)) * math.log(u)


def entropy_infinity(params: LindbladParams) -> float:
    """Entropy of the steady state, S(u -> nu/mu), in closed form."""
    mu, nu, g2 = params.mu, params.nu, 2.0 * params.gamma
    if nu == 0.0:
        return 0.0
    return -(nu * math.log(nu) - mu * math.log(mu)
             + g2 * math.log(g2)) / g2
