"""Brute-force master-equation evolution on the truncated Fock basis.

The generator

    d rho/dt = -i[H, rho] + (mu/2)(2 a rho a+ - a+a rho - rho a+a)
                          + (nu/2)(2 a+ rho a - a a+ rho - rho a a+)

with H = omega*(a+a + 1/2) - conj(f(t))*a+ - f(t)*a is applied through its
band structure (every operator is a shifted diagonal), so one evaluation
costs O(dim^2). Time stepping is classic fixed-step 4th-order Runge-Kutta:
the generator is linear and non-stiff at desk scale, and a fixed step keeps
convergence-order measurements clean.

One stepper, ``_Workspace``, serves both ``evolve`` and ``lindblad_rhs``.
It allocates its bands and seven dim x dim buffers once and then steps
without allocating, through ufuncs with ``out=`` whose operands and order
are those of the plain RK4 expressions, so its states are bitwise the ones
those expressions give (the tests keep the allocating form as reference).

This module is the numerical oracle for every closed-form solver in the
package; conversely those solvers pin down this integrator in the tests.

The real-force convention ftilde(t) = sqrt(2*omega)*f(t) is supported as a
documented conversion only (``LindbladParams.ftilde0``), never as a second
code path.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fock_core import (
    HERM_TOL_EVOLVED,
    DensityMatrix,
    TruncationWarning,
    _as_matrix,
    _geometric_state,
    _phase_point,
)

__all__ = [
    "LindbladParams",
    "DriveFn",
    "IntegratorOptions",
    "Trajectory",
    "IntegrationDivergedError",
    "default_dt",
    "lindblad_rhs",
    "evolve",
    "steady_state",
]

DIVERGENCE_EIG = -1e-6  # min eigenvalue below this aborts the run
TOP_POP_WARN = 1e-6     # population in the top two levels worth a warning


class IntegrationDivergedError(RuntimeError):
    pass


def _store_real(obj, names) -> None:
    """Store each named field of the frozen dataclass obj as a float,
    or raise ValueError unless it is real and finite."""
    for name in names:
        v = getattr(obj, name)
        if isinstance(v, complex):
            raise ValueError(f"{name} must be real, got {v!r}")
        if not math.isfinite(float(v)):
            raise ValueError(f"{name} must be finite, got {v!r}")
        object.__setattr__(obj, name, float(v))


@dataclass(frozen=True)
class LindbladParams:
    """Physical parameters: frequency omega, loss mu, gain nu, drive (f0, Omega).

    mu > nu >= 0 is required throughout (net damping). Derived quantities:
    gamma = (mu-nu)/2, gamma_prime = (mu+nu)/2, nbar = nu/(mu-nu), and
    ftilde0 = sqrt(2*omega)*f0 for the real-force convention.
    """

    omega: float
    mu: float
    nu: float
    f0: float = 0.0
    Omega: float = 0.0

    def __post_init__(self):
        _store_real(self, ("omega", "mu", "nu", "f0", "Omega"))
        if not self.omega > 0:
            raise ValueError(f"omega must be > 0, got {self.omega}")
        if not (self.mu > self.nu >= 0):
            raise ValueError(
                f"need mu > nu >= 0, got mu={self.mu}, nu={self.nu}"
            )
        if not self.Omega >= 0:
            raise ValueError(f"Omega must be >= 0, got {self.Omega}")

    @property
    def gamma(self) -> float:
        return (self.mu - self.nu) / 2.0

    @property
    def gamma_prime(self) -> float:
        return (self.mu + self.nu) / 2.0

    @property
    def nbar(self) -> float:
        return self.nu / (self.mu - self.nu)

    @property
    def ftilde0(self) -> float:
        return math.sqrt(2.0 * self.omega) * self.f0


@dataclass(frozen=True)
class DriveFn:
    """Time dependence of the drive f(t).

    kind "none":    f(t) = 0
    kind "cosine":  f(t) = f0 * cos(Omega*t)        (f0, Omega from params)
    kind "fourier": f(t) = sum_k c_k e^{i k Omega t} with integer harmonics k
                    (requires Omega > 0)
    """

    kind: str
    harmonics: tuple = ()
    coefficients: tuple = ()

    def __post_init__(self):
        if self.kind not in ("none", "cosine", "fourier"):
            raise ValueError(f"unknown drive kind {self.kind!r}")
        if self.kind == "fourier":
            ks = tuple(int(k) for k in self.harmonics)
            cs = tuple(complex(c) for c in self.coefficients)
            if len(ks) == 0 or len(ks) != len(cs):
                raise ValueError("fourier drive needs matching, nonempty "
                                 "harmonics and coefficients")
            if len(set(ks)) != len(ks):
                raise ValueError("fourier harmonics must be distinct")
            object.__setattr__(self, "harmonics", ks)
            object.__setattr__(self, "coefficients", cs)
        else:
            object.__setattr__(self, "harmonics", ())
            object.__setattr__(self, "coefficients", ())

    @classmethod
    def none(cls) -> "DriveFn":
        return cls(kind="none")

    @classmethod
    def cosine(cls) -> "DriveFn":
        return cls(kind="cosine")

    @classmethod
    def fourier(cls, harmonics, coefficients) -> "DriveFn":
        return cls(kind="fourier", harmonics=tuple(harmonics),
                   coefficients=tuple(coefficients))

    def terms(self, params: LindbladParams) -> tuple:
        """(k, c_k) pairs with f(t) = sum_k c_k e^{i k Omega t}."""
        if self.kind == "cosine":
            return ((1, 0.5 * params.f0), (-1, 0.5 * params.f0))
        return tuple(zip(self.harmonics, self.coefficients))

    def require_Omega(self, params: LindbladParams) -> None:
        """Raise ValueError for a fourier drive without a base frequency."""
        if self.kind == "fourier" and not params.Omega > 0:
            raise ValueError("fourier drive requires Omega > 0")

    def value(self, t, params: LindbladParams):
        """f(t) as a complex number; broadcasts over array t."""
        self.require_Omega(params)
        W = params.Omega
        if isinstance(t, (int, float)):  # evolve calls this per RK4 stage
            return sum([c * cmath.exp(1j * k * W * t)
                        for k, c in self.terms(params)], 0j)
        t = np.asarray(t, dtype=float)
        out = sum([c * np.exp(1j * k * W * t)
                   for k, c in self.terms(params)],
                  np.zeros(t.shape, dtype=np.complex128))
        return out if t.ndim else complex(out)

    def max_frequency(self, params: LindbladParams) -> float:
        """Highest angular frequency present in f(t); sets the default step."""
        return max((abs(k) for k, _ in self.terms(params)),
                   default=0) * params.Omega

    def is_active(self, params: LindbladParams) -> bool:
        return any(c != 0 for _, c in self.terms(params))


@dataclass(frozen=True)
class IntegratorOptions:
    """dt=None picks the default step; renorm_every=0 disables the periodic
    re-Hermitization + trace renormalization (useful for convergence tests);
    snapshot_times must be a subset of the evolve time grid."""

    dt: float | None = None
    renorm_every: int = 100
    snapshot_times: tuple = ()


@dataclass
class Trajectory:
    """Observables recorded along an evolve run (one entry per grid time)."""

    times: np.ndarray
    mean_a: np.ndarray
    mean_n: np.ndarray
    mean_x: np.ndarray
    mean_p: np.ndarray
    purity: np.ndarray
    entropy: np.ndarray
    trace_err: np.ndarray
    min_eig: np.ndarray
    top_pop: np.ndarray
    snapshots: dict


def default_dt(params: LindbladParams, drive: DriveFn | None = None) -> float:
    drive = drive if drive is not None else DriveFn.none()
    f_max = max(params.omega, drive.max_frequency(params))
    return min(1e-3 * 2.0 * math.pi / params.omega,
               2.0 * math.pi / (200.0 * f_max))


class _Cuts(NamedTuple):
    """A dim x dim buffer and the shifted views the band products use."""

    m: np.ndarray      # the whole buffer
    m11: np.ndarray    # m[1:, 1:]
    m00: np.ndarray    # m[:-1, :-1]
    rows1: np.ndarray  # m[1:, :]
    rows0: np.ndarray  # m[:-1, :]
    cols1: np.ndarray  # m[:, 1:]
    cols0: np.ndarray  # m[:, :-1]


def _cuts(m: np.ndarray) -> _Cuts:
    return _Cuts(m, m[1:, 1:], m[:-1, :-1], m[1:, :], m[:-1, :],
                 m[:, 1:], m[:, :-1])


class _Workspace:
    """The RK4 stepper for one (dim, params) pair: the generator's bands
    and seven complex dim x dim buffers, all allocated once.

    ``rho`` holds the state that ``step`` advances in place; ``_y`` is the
    stage input, ``_k1``..``_k3`` the stage slopes (k4 reuses k3's buffer),
    ``_g`` the drive term, and one scratch buffer takes the band products
    through its contiguous reshapes ``_s_band`` and ``_s_drive``. Every
    operation is a ufunc with ``out`` whose operands come in the order of
    the plain expression quoted beside it, so the results are bitwise
    those of that expression.
    """

    def __init__(self, dim: int, params: LindbladParams):
        m = np.arange(dim, dtype=np.float64)
        # a a+ truncated is diagonal (1, 2, ..., dim-1, 0)
        aad = np.concatenate((np.arange(1.0, dim), [0.0]))
        self.K = (
            -1j * params.omega * (m[:, None] - m[None, :])
            - 0.5 * params.mu * (m[:, None] + m[None, :])
            - 0.5 * params.nu * (aad[:, None] + aad[None, :])
        ).astype(np.complex128)
        w = np.sqrt(np.arange(1.0, dim))
        self.w = w
        self.wcol = w[:, None]
        self.muW2 = params.mu * np.outer(w, w)
        self.nuW2 = params.nu * np.outer(w, w)

        self._rho, self._y, self._k1, self._k2, self._k3, self._g = (
            _cuts(np.empty((dim, dim), dtype=np.complex128))
            for _ in range(6))
        self.rho = self._rho.m
        s = np.empty(dim * dim, dtype=np.complex128)
        self._s_band = s[:(dim - 1) ** 2].reshape(dim - 1, dim - 1)
        self._s_drive = s[:dim * (dim - 1)].reshape(dim, dim - 1)

    def _apply(self, x: _Cuts, out: _Cuts, f) -> None:
        """out = L[x], the generator applied to x at drive value f
        (None: no drive term)."""
        sb, sd, g = self._s_band, self._s_drive, self._g
        np.multiply(self.K, x.m, out.m)        # out = K * rho
        np.multiply(self.muW2, x.m11, sb)      # mu * a rho a+
        np.add(out.m00, sb, out.m00)
        np.multiply(self.nuW2, x.m00, sb)      # nu * a+ rho a
        np.add(out.m11, sb, out.m11)
        if f is None:
            return
        # Complex scalars go first, as in c * g: the in-place g *= c runs
        # the operands the other way round and differs in the last bit.
        g.m[0] = 0
        np.multiply(self.wcol, x.rows0, g.rows1)   # a+ rho
        np.multiply(x.cols1, self.w, sd)           # - rho a+
        np.subtract(g.cols0, sd, g.cols0)
        np.multiply(1j * np.conj(f), g.m, g.m)
        np.add(out.m, g.m, out.m)
        g.m[-1] = 0
        np.multiply(self.wcol, x.rows1, g.rows0)   # a rho
        np.multiply(x.cols0, self.w, sd)           # - rho a
        np.subtract(g.cols1, sd, g.cols1)
        np.multiply(1j * f, g.m, g.m)
        np.add(out.m, g.m, out.m)

    def step(self, h: float, f0, f_mid, f1) -> None:
        """One RK4 step of length h on rho, drive values at its start,
        midpoint and end; bitwise
        rho += (h/6) * (k1 + 2*(k2 + k3) + k4) with k2 = L[rho + (h/2) k1]
        and so on."""
        rho, y, k1, k2, k3 = (self.rho, self._y.m, self._k1.m, self._k2.m,
                              self._k3.m)
        self._apply(self._rho, self._k1, f0)
        np.multiply(0.5 * h, k1, y)            # y = rho + (0.5*h) * k1
        np.add(rho, y, y)
        self._apply(self._y, self._k2, f_mid)
        np.multiply(0.5 * h, k2, y)            # y = rho + (0.5*h) * k2
        np.add(rho, y, y)
        self._apply(self._y, self._k3, f_mid)
        np.multiply(h, k3, y)                  # y = rho + h * k3
        np.add(rho, y, y)
        np.add(k2, k3, k2)                     # k1 = k1 + 2.0 * (k2 + k3)
        np.multiply(2.0, k2, k2)
        np.add(k1, k2, k1)
        self._apply(self._y, self._k3, f1)     # k4, into k3's buffer
        np.add(k1, k3, k1)                     # rho += (h/6.0) * (k1 + k4)
        np.multiply(h / 6.0, k1, k1)
        np.add(rho, k1, rho)


def lindblad_rhs(rho, t: float, params: LindbladParams,
                 drive: DriveFn | None = None) -> np.ndarray:
    """Right-hand side of the master equation at time t (dense matrix)."""
    m = _as_matrix(rho)
    if m.shape[0] < 2:
        raise ValueError("need dim >= 2")
    drive = drive if drive is not None else DriveFn.none()
    f = drive.value(t, params) if drive.is_active(params) else None
    st = _Workspace(m.shape[0], params)
    st._apply(_cuts(m), st._k1, f)
    return st._k1.m


def evolve(rho0, t_grid, params: LindbladParams,
           drive: DriveFn | None = None,
           opts: IntegratorOptions | None = None) -> Trajectory:
    """Integrate the master equation, recording observables on t_grid.

    t_grid must start at 0 and increase strictly. Every opts.renorm_every
    steps the state is re-Hermitized and trace-renormalized. A minimum
    eigenvalue below -1e-6 at any recorded time aborts with
    IntegrationDivergedError. Each opts.snapshot_times entry must lie
    within 1e-12 of a grid time; its snapshot is keyed by the time asked
    for, not by the grid time it matched.
    """
    drive = drive if drive is not None else DriveFn.none()
    opts = opts if opts is not None else IntegratorOptions()

    if not isinstance(rho0, DensityMatrix):
        rho0 = DensityMatrix.from_matrix(rho0)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a nonempty 1-d sequence")
    if t_grid[0] != 0.0:
        raise ValueError(f"t_grid must start at 0, got {t_grid[0]}")
    if not np.all(np.diff(t_grid) > 0):
        raise ValueError("t_grid must be strictly increasing")
    snap_index: dict = {}  # grid index -> requested snapshot time
    for ts in opts.snapshot_times:
        hits = np.flatnonzero(np.isclose(t_grid, ts, rtol=0.0, atol=1e-12))
        if hits.size == 0:
            raise ValueError(f"snapshot time {float(ts)} is not on t_grid")
        snap_index[int(hits[0])] = float(ts)
    if opts.dt is not None and not opts.dt > 0:
        raise ValueError("dt must be positive")

    dim = rho0.dim
    st = _Workspace(dim, params)
    dt = opts.dt if opts.dt is not None else default_dt(params, drive)
    active = drive.is_active(params)

    def fval(t):
        return drive.value(t, params) if active else None

    rho = st.rho
    rho[...] = rho0.matrix
    n_diag = np.arange(dim, dtype=float)
    mean_a = np.empty(t_grid.size, dtype=np.complex128)
    mean_n, purity, entropy, trace_err, min_eig, top_pop = np.empty(
        (6, t_grid.size))
    snapshots: dict = {}
    warned = False
    steps = 0
    for i, t1 in enumerate(t_grid.tolist()):
        if i > 0:
            t0 = t_grid[i - 1].item()
            span = t1 - t0
            n_sub = max(1, math.ceil(span / dt - 1e-9))
            h = span / n_sub
            for j in range(n_sub):
                t = t0 + j * h
                st.step(h, fval(t), fval(t + 0.5 * h), fval(t + h))
                steps += 1
                if opts.renorm_every and steps % opts.renorm_every == 0:
                    # rho = 0.5 * (rho + rho^+), then rho /= tr rho
                    np.add(rho, rho.conj().T, rho)
                    np.multiply(0.5, rho, rho)
                    rho /= rho.trace().real

        if not np.all(np.isfinite(rho)):
            raise IntegrationDivergedError(
                f"state became non-finite by t={t1:g}; "
                "reduce dt or increase dim")
        diag = np.diagonal(rho).real
        mean_a[i] = np.sum(st.w * np.diagonal(rho, -1))
        mean_n[i] = np.dot(n_diag, diag)
        purity[i] = np.sum(np.abs(rho) ** 2)
        trace_err[i] = abs(complex(rho.trace()) - 1.0)
        eigs = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
        min_eig[i] = eigs[0]
        pos = eigs[eigs > 1e-300]
        entropy[i] = -np.dot(pos, np.log(pos)) + 0.0
        top_pop[i] = diag[-1] + diag[-2]
        if min_eig[i] < DIVERGENCE_EIG:
            raise IntegrationDivergedError(
                f"positivity lost at t={t1:g} (min eigenvalue "
                f"{min_eig[i]:.3e}); reduce dt or increase dim")
        if top_pop[i] > TOP_POP_WARN and not warned:
            warnings.warn(
                f"population {top_pop[i]:.3e} in the top two Fock levels "
                f"at t={t1:g}; results may be corrupted by truncation",
                TruncationWarning, stacklevel=2)
            warned = True
        if i in snap_index:
            snapshots[snap_index[i]] = DensityMatrix.from_matrix(
                rho, herm_tol=HERM_TOL_EVOLVED, positivity_tol=1e-6)

    mean_x, mean_p = _phase_point(mean_a, params.omega)
    return Trajectory(times=t_grid.copy(), mean_a=mean_a, mean_n=mean_n,
                      mean_x=mean_x, mean_p=mean_p, purity=purity,
                      entropy=entropy, trace_err=trace_err, min_eig=min_eig,
                      top_pop=top_pop, snapshots=snapshots)


def steady_state(params: LindbladParams, dim: int) -> DensityMatrix:
    """Drive-free stationary state: geometric diagonal with ratio nu/mu,
    renormalized over the truncated basis (|0><0| for nu=0).

    The truncated generator annihilates this state exactly: detailed balance
    mu*p_{n+1} = nu*p_n holds level by level, including the top level.
    """
    return _geometric_state(params.nu / params.mu, dim)
