"""Truncated Fock-space linear algebra.

Ladder operators, coherent states, expectation values and density-matrix
plumbing for a single bosonic mode kept on the first ``dim`` number states
|0>, ..., |dim-1>. Everything is dense complex128; ``DensityMatrix`` is a
thin validated wrapper used at module boundaries while hot loops work on
raw arrays.

Every Hermitian spectrum in the package (the positivity check of
``DensityMatrix.from_matrix``, ``trace_distance``, ``density_diagnostics``
and the per-record entropy and minimum eigenvalue of ``evolve``) comes
from ``_eigvalsh``, which zeroes the parts below ``_SPECTRUM_FLOOR``
before LAPACK sees them, so that tiny Fock-tail entries cannot drive the
reduction into subnormal arithmetic; it moves no eigenvalue by more than
about 1e-100.

Units: hbar = 1, unit mass. Phase-space coordinates relate to the mode
amplitude through alpha = (omega*x + i*p) / sqrt(2*omega).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "TruncationError",
    "TruncationWarning",
    "required_dim",
    "ladder_ops",
    "coherent_state",
    "DensityMatrix",
    "expectation",
    "density_diagnostics",
    "DensityDiagnostics",
    "trace_distance",
]

HERM_TOL_CONSTRUCT = 1e-12   # input validation
HERM_TOL_EVOLVED = 1e-9      # accumulated integration error
POSITIVITY_TOL = 1e-9
# Parts of a Hermitian matrix below this are zeroed before its spectrum is
# taken: the cube root of the smallest normal double, about 2.8e-103.
_SPECTRUM_FLOOR = np.finfo(np.float64).tiny ** (1.0 / 3.0)


class TruncationError(ValueError):
    """The requested amplitude does not fit in the truncated basis."""


class TruncationWarning(UserWarning):
    """Non-negligible population has reached the top of the basis."""


def required_dim(alpha) -> int:
    """Smallest basis size considered adequate for amplitude ``alpha``.

    The occupation distribution of a coherent state is Poissonian with mean
    |alpha|^2; beyond 4|alpha|^2 + 10 levels the remaining mass is < 1e-8.
    """
    return int(math.ceil(4.0 * abs(alpha) ** 2 + 10.0))


def _check_adequacy(alpha, dim: int) -> None:
    if abs(alpha) ** 2 > dim / 4.0:
        raise TruncationError(
            f"amplitude |alpha|={abs(alpha):.4g} needs dim >= "
            f"{math.ceil(4.0 * abs(alpha) ** 2)}, got {dim}"
        )


def _require_dim(dim) -> int:
    """``dim`` as an int, or ValueError unless it is an integer >= 2."""
    if not float(dim).is_integer() or dim < 2:
        raise ValueError(f"dim must be an integer >= 2, got {dim!r}")
    return int(dim)


def _phase_point(alpha, omega: float):
    """(<x>, <p>) = (sqrt(2/omega) Re alpha, sqrt(2 omega) Im alpha);
    alpha may be a scalar or an array."""
    return (math.sqrt(2.0 / omega) * alpha.real,
            math.sqrt(2.0 * omega) * alpha.imag)


def ladder_ops(dim: int):
    """Return (a, adag, n) as dense (dim, dim) complex matrices.

    a[j-1, j] = sqrt(j); adag = a^dagger; n = diag(0, 1, ..., dim-1).
    The truncated pair satisfies [a, adag] = 1 everywhere except the last
    diagonal entry, which is -(dim-1).
    """
    dim = _require_dim(dim)
    w = np.sqrt(np.arange(1.0, dim))
    a = np.zeros((dim, dim), dtype=np.complex128)
    a[np.arange(dim - 1), np.arange(1, dim)] = w
    n = np.diag(np.arange(dim, dtype=np.float64)).astype(np.complex128)
    return a, a.conj().T, n


def coherent_state(alpha, dim: int) -> np.ndarray:
    """Coherent-state vector c_n = e^{-|a|^2/2} a^n / sqrt(n!), renormalized.

    Raises TruncationError when |alpha|^2 > dim/4 (the tail of the Poisson
    distribution would not fit; the error names the required dimension).
    """
    dim = _require_dim(dim)
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise ValueError("alpha must be finite")
    _check_adequacy(alpha, dim)
    if alpha == 0:
        psi = np.zeros(dim, dtype=np.complex128)
        psi[0] = 1.0
        return psi
    n = np.arange(dim)
    # log-domain magnitudes avoid overflow of a^n and n!
    logmag = n * math.log(abs(alpha)) - 0.5 * log_factorial(dim) - abs(alpha) ** 2 / 2.0
    psi = np.exp(logmag) * np.exp(1j * n * np.angle(alpha))
    psi /= np.linalg.norm(psi)
    return psi


def log_factorial(dim: int) -> np.ndarray:
    """log(n!) for n = 0 .. dim-1."""
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, dim)))))


def _as_matrix(rho) -> np.ndarray:
    if isinstance(rho, DensityMatrix):
        return rho.matrix
    m = np.asarray(rho, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated Hermitian, positive, unit-trace matrix over the Fock basis.

    Construct through ``from_matrix`` (validates and normalizes) or ``pure``.
    The stored array is read-only; instances are safe to share across threads.
    """

    matrix: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(cls, m, herm_tol: float = HERM_TOL_CONSTRUCT,
                    positivity_tol: float = POSITIVITY_TOL) -> "DensityMatrix":
        m = _as_matrix(m)
        if m.shape[0] < 2:
            raise ValueError("density matrix needs dim >= 2")
        herm_err = float(np.max(np.abs(m - m.conj().T)))
        if not herm_err <= herm_tol:
            raise ValueError(f"matrix is not Hermitian: max|rho - rho^+| = {herm_err:.3e}")
        m = (m + m.conj().T) / 2.0
        tr = float(m.trace().real)
        if not tr > 0:
            raise ValueError(f"trace must be positive, got {tr!r}")
        m = m / tr
        min_eig = float(_eigvalsh(m.copy()).min())
        if not min_eig >= -positivity_tol:
            raise ValueError(f"matrix is not positive: min eigenvalue = {min_eig:.3e}")
        m.setflags(write=False)
        return cls(matrix=m)

    @classmethod
    def pure(cls, psi) -> "DensityMatrix":
        psi = np.asarray(psi, dtype=np.complex128)
        m = np.outer(psi, psi.conj())
        m /= float(np.vdot(psi, psi).real)
        m.setflags(write=False)
        return cls(matrix=m)


def _eigvalsh(h: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian, C-contiguous complex128
    ``h``, after zeroing in place every real and imaginary part of ``h``
    whose magnitude is below ``_SPECTRUM_FLOOR``. ``scratch``, a float64
    array of ``h``'s shape with the last axis doubled, holds the
    magnitudes; without it they take a temporary.

    Why the floor: a density matrix's Fock tail holds entries that are
    normal but tiny (1e-300 to 1e-103 for a coherent state at dim 256).
    The rank-2 updates of LAPACK's tridiagonal reduction (``zhetrd``)
    multiply three input-scale factors (v, A, v), and such products fall
    into the subnormal range, where every operation is many times slower.
    When no kept part is below the cube root of the smallest normal
    double, no such product is subnormal. (A floor at the square root
    left a Gaussian's spectrum at dim 256 two to three times as slow.)

    Why it cannot hurt: the zeroed parts form a Hermitian perturbation E,
    and by Weyl's inequality each eigenvalue moves by at most
    ||E||_2 <= ||E||_F < sqrt(2) * dim * _SPECTRUM_FLOOR, about 1e-100 at
    dim 256, far below LAPACK's own error of O(dim * eps * ||h||).
    """
    v = h.view(np.float64)
    a = np.abs(v, out=scratch)
    v[a < _SPECTRUM_FLOOR] = 0.0
    return np.linalg.eigvalsh(h)


def _geometric_state(ratio: float, dim) -> DensityMatrix:
    """Diagonal state with populations proportional to ratio**n over the
    truncated basis; ratio 0 is the ground state |0><0|."""
    dim = _require_dim(dim)
    p = ratio ** np.arange(dim)
    p /= p.sum()
    return DensityMatrix.from_matrix(np.diag(p).astype(np.complex128))


def expectation(obs, rho) -> complex:
    """trace(obs . rho) as a complex number.

    The imaginary part is returned, not dropped; for Hermitian observables
    on valid states it is rounding-level (<= 1e-10).
    """
    obs = _as_matrix(obs)
    m = _as_matrix(rho)
    if obs.shape != m.shape:
        raise ValueError(f"dimension mismatch: obs {obs.shape} vs rho {m.shape}")
    return complex(np.einsum("ij,ji->", obs, m))


class DensityDiagnostics(NamedTuple):
    """(trace_err, herm_err, min_eig) with named access."""

    trace_err: float
    herm_err: float
    min_eig: float


def density_diagnostics(rho) -> DensityDiagnostics:
    """|trace-1|, max|rho - rho^+| and the smallest eigenvalue of the
    Hermitized matrix. Diagnostics never raise; non-finite input yields NaNs.
    """
    try:
        m = _as_matrix(rho)
        trace_err = float(abs(m.trace() - 1.0))
        herm_err = float(np.max(np.abs(m - m.conj().T)))
        min_eig = float(_eigvalsh((m + m.conj().T) / 2.0).min())
        return DensityDiagnostics(trace_err, herm_err, min_eig)
    except Exception:
        return DensityDiagnostics(float("nan"), float("nan"), float("nan"))


def trace_distance(rho1, rho2) -> float:
    """(1/2) trace |rho1 - rho2|."""
    m1, m2 = _as_matrix(rho1), _as_matrix(rho2)
    if m1.shape != m2.shape:
        raise ValueError(
            f"dimension mismatch: rho1 {m1.shape} vs rho2 {m2.shape}")
    d = m1 - m2
    d = (d + d.conj().T) / 2.0
    return 0.5 * float(np.sum(np.abs(_eigvalsh(d))))
