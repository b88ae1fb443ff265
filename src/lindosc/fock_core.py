"""Truncated Fock-space linear algebra.

Coherent states and density-matrix plumbing for a single bosonic mode
kept on the first ``dim`` number states |0>, ..., |dim-1>. Everything is
dense complex128; ``DensityMatrix`` is a thin validated wrapper used at
module boundaries while hot loops work on raw arrays.

Every Hermitian spectrum in the package (the positivity check of
``DensityMatrix.from_matrix``, ``trace_distance``, ``density_diagnostics``
and the per-record entropy and minimum eigenvalue of ``evolve``) comes
from ``_eigvalsh``. It zeroes, in a copy, the parts below eps^2 times the
largest finite part (never below ``_SPECTRUM_FLOOR``), far below LAPACK's
own rounding, and LAPACK reduces only the live levels, the rows that keep
a part; each dead level adds an exact eigenvalue 0. Those LAPACK calls,
and ``materialize``'s Gram product, run on one OpenBLAS thread.

Units: hbar = 1, unit mass. Phase-space coordinates relate to the mode
amplitude through alpha = (omega*x + i*p) / sqrt(2*omega).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
import os
import threading
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
# _eigvalsh zeroes the parts below _EPS2 times the largest finite part, but
# never below the cube root of the smallest normal double, about 2.8e-103
_SPECTRUM_FLOOR = np.finfo(np.float64).tiny ** (1.0 / 3.0)
_EPS2 = np.finfo(np.float64).eps ** 2
_BLAS_LOCK = threading.RLock()   # reentrant, so a nested scope cannot deadlock


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
        min_eig = float(_eigvalsh(m).min())
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


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the caller's
    count (under a lock, so two Python threads cannot leave it at 1). A
    threaded call can stall 8-16 ms, and from order 192 its eigenvalues
    round apart from the serial ones, that is, with the core count."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, put = blas
    with _BLAS_LOCK:
        n = get()
        put(1)
        try:
            yield
        finally:
            put(n)


def _eigvalsh(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the exactly Hermitian, C-contiguous
    complex128 ``h`` after zeroing, in a copy, every real and imaginary
    part below max(_SPECTRUM_FLOOR, _EPS2 * M), M the largest finite part.

    Why the floor: the Fock tail of a density matrix holds normal but tiny
    parts (1e-300 to 1e-103 for a coherent state at dim 256), whose triple
    products in LAPACK's tridiagonal reduction (``zhetrd``) are subnormal,
    where every operation is many times slower; no kept part is below the
    cube root of the smallest normal double. Above that the floor follows
    the matrix's scale, so it drops only what LAPACK cannot resolve, and
    the difference of two close states is not floored away.

    Why it cannot hurt: by Weyl each eigenvalue moves by at most
    ||E||_F < sqrt(2) * dim * floor for the zeroed parts E; above
    _SPECTRUM_FLOOR that is <= sqrt(2) * dim * eps * (eps * ||h||_2),
    about 1e-13 of LAPACK's error unit eps * ||h||_2 at dim 256.

    Live levels: LAPACK gets only the floored principal submatrix A of the
    levels whose row keeps a part (55 of 256 for a coherent state with
    |alpha| = 1.25), and each dead level adds one exact 0.0: a zero row of
    a Hermitian matrix is a zero column, so the floored ``h`` is
    permutation-similar to diag(A, 0); with no dead level A is all of it.
    A row holding a NaN or an inf stays live.
    """
    mag = np.abs(h.view(np.float64))
    top = mag.max()
    if not top < np.inf:       # a NaN or inf part: scale by the finite ones
        top = np.max(mag, where=mag < np.inf, initial=0.0)
    floor = max(_SPECTRUM_FLOOR, _EPS2 * top)
    small = mag < floor
    live = ~small.all(axis=-1)
    if live.all():             # mag turns into the floored copy of h
        np.copyto(mag, h.view(np.float64))
        mag[small] = 0.0
        with _one_blas_thread():
            return np.linalg.eigvalsh(mag.view(np.complex128))
    del mag, small             # freed before the live block is gathered
    if not live.any():
        return np.zeros(live.size)
    a = h[np.ix_(live, live)]
    parts = a.view(np.float64)
    parts[np.abs(parts) < floor] = 0.0
    with _one_blas_thread():
        w = np.linalg.eigvalsh(a)
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
    Hermitized matrix: NaNs if an entry is not finite, ValueError if rho
    is not a square matrix."""
    m = _as_matrix(rho)
    if not np.isfinite(m).all():
        return DensityDiagnostics(float("nan"), float("nan"), float("nan"))
    trace_err = float(abs(m.trace() - 1.0))
    herm_err = float(np.max(np.abs(m - m.conj().T)))
    min_eig = float(_eigvalsh((m + m.conj().T) / 2.0).min())
    return DensityDiagnostics(trace_err, herm_err, min_eig)


def trace_distance(rho1, rho2) -> float:
    """(1/2) trace |rho1 - rho2|."""
    m1, m2 = _as_matrix(rho1), _as_matrix(rho2)
    if m1.shape != m2.shape:
        raise ValueError(
            f"dimension mismatch: rho1 {m1.shape} vs rho2 {m2.shape}")
    d = m1 - m2
    d = (d + d.conj().T) / 2.0
    return 0.5 * float(np.sum(np.abs(_eigvalsh(d))))
