import math

import numpy as np
import pytest

from lindosc.fock_core import DensityMatrix, _as_matrix


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


def ladder_ops(dim: int):
    """Return (a, adag, n) as dense (dim, dim) complex matrices.

    a[j-1, j] = sqrt(j); adag = a^dagger; n = diag(0, 1, ..., dim-1).
    The truncated pair satisfies [a, adag] = 1 everywhere except the last
    diagonal entry, which is -(dim-1).
    """
    w = np.sqrt(np.arange(1.0, dim))
    a = np.zeros((dim, dim), dtype=np.complex128)
    a[np.arange(dim - 1), np.arange(1, dim)] = w
    n = np.diag(np.arange(dim, dtype=np.float64)).astype(np.complex128)
    return a, a.conj().T, n


def expectation(obs, rho) -> complex:
    """trace(obs . rho) as a complex number, its imaginary part kept."""
    m = _as_matrix(rho)
    if obs.shape != m.shape:
        raise ValueError(f"dimension mismatch: obs {obs.shape} vs rho {m.shape}")
    return complex(np.einsum("ij,ji->", obs, m))


def enveloped_density(dim: int, rng, ratio: float = 0.4) -> DensityMatrix:
    """Full-rank random mixed state whose Fock support decays like a
    thermal tail with ratio ``ratio``; keeps truncation leakage tiny."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    env = ratio ** (np.arange(dim) / 2.0)
    m = env[:, None] * a
    return DensityMatrix.from_matrix(m @ m.conj().T)


# Each of the two LAPACK runs errs by O(dim * eps * ||rho||), about 5.7e-14
# at dim 256 for a density matrix, and the spectrum floor moves each exact
# eigenvalue by at most sqrt(2) * dim * eps**2 * ||rho||, about 1.8e-29
# (Weyl); the entropy sum is held to the same tolerance.
SPECTRUM_TOL = 1e-13


def floored(h):
    """A copy of the Hermitian ``h`` with every real and imaginary part
    below the documented spectrum floor zeroed: max(cbrt(tiny), eps**2 * M),
    M the largest finite part of ``h``."""
    mag = np.abs(h.view(np.float64))
    top = np.max(mag[np.isfinite(mag)], initial=0.0)
    fin = np.finfo(np.float64)
    out = h.copy()
    out.view(np.float64)[mag < max(fin.tiny ** (1.0 / 3.0),
                                   fin.eps ** 2 * top)] = 0.0
    return out


def floored_spectrum(h):
    """The documented spectrum of ``h``: LAPACK on the live levels (the
    rows of ``floored(h)`` that keep a part), one 0.0 for each dead one."""
    f = floored(h)
    live = np.any(f != 0, axis=1)
    w = np.linalg.eigvalsh(f[np.ix_(live, live)])
    return np.sort(np.concatenate((np.zeros(h.shape[0] - w.size), w)),
                   kind="stable")


def cosine_cycle_coefficients(p) -> tuple[complex, complex]:
    """(c_plus, c_minus) with alpha_lc(t) = c_plus e^{i Omega t} +
    c_minus e^{-i Omega t}, the limit cycle of the cosine drive
    f0 cos(Omega t), written out by hand for the one-harmonic checks."""
    w, g, W, f0 = p.omega, p.gamma, p.Omega, p.f0
    return 0.5 * f0 / (w + W - 1j * g), 0.5 * f0 / (w - W - 1j * g)


def classical_solution(x0: float, v0: float, t, omega0: float, gamma: float,
                       drive: tuple[float, float] | None = None):
    """Exact solution (x, xdot) of x'' + 2 gamma x' + omega0^2 x = ftilde(t).

    Reference for the classical oscillator <x> obeys: drive is None for the
    free oscillator or a pair (ftilde0, Omega) for a cosine force
    ftilde0*cos(Omega*t). All damping regimes are covered: the homogeneous
    basis switches between trigonometric (underdamped), hyperbolic
    (overdamped) and polynomial (critical) branches. The steady response is
    its own copy of the formula, so it does not share code with quantum_lc.
    """
    if not omega0 > 0:
        raise ValueError(f"omega0 must be > 0, got {omega0}")
    if not gamma >= 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    ftilde0, Omega = (0.0, 0.0) if drive is None else (float(drive[0]),
                                                       float(drive[1]))
    t = np.asarray(t, dtype=float)

    # steady response A cos(Omega t + phi); a zero denominator (undamped,
    # driven at omega0) has no bounded response
    det = omega0 ** 2 - Omega ** 2
    den = math.hypot(det, 2.0 * gamma * Omega)
    if den == 0.0:
        if ftilde0 != 0.0:
            raise ValueError("undamped oscillator driven exactly at its "
                             "natural frequency has no bounded solution")
        A, phi = 0.0, 0.0
    else:
        A, phi = ftilde0 / den, -math.atan2(2.0 * gamma * Omega, det)
    xp = A * np.cos(Omega * t + phi)
    vp = -A * Omega * np.sin(Omega * t + phi)
    xp0 = A * math.cos(phi)
    vp0 = -A * Omega * math.sin(phi)

    # homogeneous basis h1, h2 with h1(0)=1, h1'(0)=-gamma, h2(0)=0, h2'(0)=1;
    # both derivatives close on the pair: h1' = -gamma h1 - s h2, h2' = h1 - gamma h2
    s = omega0 ** 2 - gamma ** 2
    env = np.exp(-gamma * t)
    if s > 0:
        w = math.sqrt(s)
        c, sn = np.cos(w * t), np.sin(w * t) / w
    elif s < 0:
        k = math.sqrt(-s)
        c, sn = np.cosh(k * t), np.sinh(k * t) / k
    else:
        c, sn = np.ones_like(t), t.copy()
    h1, h2 = env * c, env * sn

    ca = x0 - xp0
    cb = v0 - vp0 + gamma * ca
    x = xp + ca * h1 + cb * h2
    v = vp + ca * (-gamma * h1 - s * h2) + cb * (h1 - gamma * h2)
    return x, v
