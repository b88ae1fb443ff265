"""Truncated Fock-space linear algebra.

Coherent states and density-matrix plumbing for a single bosonic mode
kept on the first ``dim`` number states |0>, ..., |dim-1>. Everything is
dense complex128; ``DensityMatrix`` is a thin validated wrapper used at
module boundaries while hot loops work on raw arrays.

Every Hermitian spectrum in the package (the positivity check of
``DensityMatrix.from_matrix``, ``trace_distance``, ``density_diagnostics``
and the per-record entropy and minimum eigenvalue of ``evolve``) comes
from ``_eigvalsh``, which zeroes the parts below ``_SPECTRUM_FLOOR``
before LAPACK sees them, so that tiny Fock-tail entries cannot drive the
reduction into subnormal arithmetic; it moves no eigenvalue by more than
about 1e-100. LAPACK then reduces only the live levels, the rows that
keep a part, and each dead level adds an exact eigenvalue 0. That is
exact because every caller passes an exactly Hermitian matrix, (X + X^+)/2
or evolve's state, so a zero row is also a zero column.

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
    "coherent_state",
    "DensityMatrix",
    "density_diagnostics",
    "DensityDiagnostics",
    "trace_distance",
]

HERM_TOL_CONSTRUCT = 1e-12   # input validation
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
    def from_matrix(cls, m, positivity_tol: float = POSITIVITY_TOL
                    ) -> "DensityMatrix":
        m = _as_matrix(m)
        if m.shape[0] < 2:
            raise ValueError("density matrix needs dim >= 2")
        herm_err = float(np.max(np.abs(m - m.conj().T)))
        if not herm_err <= HERM_TOL_CONSTRUCT:
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
        # a fused multiply-add rounds psi_i psi_j* and psi_j psi_i* apart:
        # mirror the upper triangle (zero parts +0.0) and keep a real
        # diagonal, so that m is exactly Hermitian in value
        lower = np.tri(psi.size, k=-1, dtype=bool)
        np.copyto(m, m.T.conj() + 0.0, where=lower)
        np.fill_diagonal(m.imag, 0.0)
        m /= float(np.vdot(psi, psi).real)
        m.setflags(write=False)
        return cls(matrix=m)


def _eigvalsh(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the exactly Hermitian, C-contiguous
    complex128 ``h``, after zeroing in place every real and imaginary part
    of ``h`` whose magnitude is below ``_SPECTRUM_FLOOR``.

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

    Live levels: LAPACK gets only the principal submatrix A of the levels
    whose row keeps a part after the floor, and each dead level adds one
    exact 0.0 to its eigenvalues. The caller must pass ``h`` exactly
    Hermitian, as (X + X^+)/2 is: then a zero row is a zero column, ``h``
    is permutation-similar to diag(A, 0) and its spectrum is spec(A) plus
    the zeros. Only LAPACK's rounding inside A differs from a call on the
    whole matrix, and a matrix without a dead level reaches LAPACK whole,
    so its eigenvalues keep every bit. A row of NaNs stays live. (The
    floor leaves 135 of the 256 levels of a coherent state with
    |alpha| = 1.25 live.)
    """
    v = h.view(np.float64)
    small = np.abs(v) < _SPECTRUM_FLOOR
    v[small] = 0.0
    live = ~small.all(axis=-1)
    if live.all():
        return np.linalg.eigvalsh(h)
    if not live.any():
        return np.zeros(live.size)
    w = np.linalg.eigvalsh(h[np.ix_(live, live)])
    k = np.searchsorted(w, 0.0)
    return np.concatenate((w[:k], np.zeros(live.size - w.size), w[k:]))


def _geometric_state(ratio: float, dim) -> DensityMatrix:
    """Diagonal state with populations proportional to ratio**n over the
    truncated basis; ratio 0 is the ground state |0><0|."""
    dim = _require_dim(dim)
    p = ratio ** np.arange(dim)
    p /= p.sum()
    return DensityMatrix.from_matrix(np.diag(p).astype(np.complex128))


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
