"""Mean-value dynamics in closed form, and the quantum limit cycle.

The first moment obeys a closed linear ODE,

    d<a>/dt = -(i*omega + gamma)*<a> + i*conj(f(t)),

so <a>, <x>, <p> come out analytically for every drive
f(t) = sum_k c_k e^{i k Omega t}:

    <a>_t = e^{-(i omega + gamma) t} (a0 - P(0)) + P(t),
    P(t) = sum_k conj(c_k) e^{-i k Omega t} / ((omega - k Omega) - i gamma).

P is the quantum limit cycle, the periodic <a> every start tends to;
limit_cycle_alpha evaluates it for any drive. The occupation follows from
<a> by the exact identity
<n>_t = |<a>_t|^2 + nu/2gamma + (n0 - |a0|^2 - nu/2gamma) e^{-2 gamma t}:
the drive moves <n> and |<a>|^2 alike. Under the cosine drive <x> obeys the
classical oscillator x'' + 2*gamma*x' + omega0**2 * x = ftilde0*cos(Omega*t)
with omega0**2 = omega**2 + gamma**2 and velocity <p> - gamma*<x>;
quantum_lc is its steady response, the one-harmonic ellipse form of P, and
mean_n_limit_cycle the occupation along it.

All time arguments accept scalars or 1-d arrays, through one code path: a
scalar time gives a numpy scalar (np.float64 or np.complex128, subclasses of
float and complex), an array time an array of its shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lindblad_engine import DriveFn, LindbladParams

__all__ = [
    "QuantumLC",
    "LimitCycleOccupation",
    "limit_cycle_alpha",
    "mean_a",
    "quantum_lc",
    "mean_n",
    "mean_n_limit_cycle",
    "resonance_frequency",
    "resonance_amplitude",
    "resonance_scan",
]


# ---------------------------------------------------------------------------
# first moment <a>


def _periodic_sum(t, params: LindbladParams, drive: DriveFn, transient):
    """sum_k conj(c_k) (e^{-i k Omega t} - transient) / ((omega - k Omega)
    - i gamma) over drive.terms: the periodic response P(t) for
    transient = 0, the zero-amplitude response P(t) - e^{-(i omega + gamma) t}
    P(0) for transient = e^{-(i omega + gamma) t}."""
    out = np.zeros(t.shape, dtype=np.complex128)
    if drive.is_active(params):
        drive.require_Omega(params)
        w, g, W = params.omega, params.gamma, params.Omega
        for k, c in drive.terms(params):
            out += np.conj(c) * (np.exp(-1j * k * W * t) - transient) \
                / ((w - k * W) - 1j * g)
    return out[()]


def mean_a(t, a0: complex, params: LindbladParams,
           drive: DriveFn | None = None):
    """<a>_t = exp(-(i omega + gamma) t) * a0 + driven response."""
    drive = drive if drive is not None else DriveFn.none()
    t = np.asarray(t, dtype=float)
    ep = np.exp(-(1j * params.omega + params.gamma) * t)
    return ep * complex(a0) + _periodic_sum(t, params, drive, ep)


def limit_cycle_alpha(t, params: LindbladParams, drive: DriveFn):
    """Asymptotic periodic <a>, the limit cycle P(t) every <a>_t tends to."""
    return _periodic_sum(np.asarray(t, dtype=float), params, drive, 0.0)


# ---------------------------------------------------------------------------
# quantum limit cycle of <x>, <p>


@dataclass(frozen=True)
class QuantumLC:
    """<x> = A_q cos(Omega t + phi_q) on the asymptotic cycle; <p> follows as
    d<x>/dt + gamma <x>. The cycle is the ellipse
    (<p> - gamma <x>)^2 / Omega^2 + <x>^2 = A_q^2.
    """

    A_q: float
    phi_q: float
    Omega: float
    gamma: float

    def mean_x(self, t):
        t = np.asarray(t, dtype=float)
        return self.A_q * np.cos(self.Omega * t + self.phi_q)

    def mean_p(self, t):
        t = np.asarray(t, dtype=float)
        ph = self.Omega * t + self.phi_q
        return self.A_q * (self.gamma * np.cos(ph) - self.Omega * np.sin(ph))


def _require_cosine(drive: DriveFn):
    if drive.kind != "cosine":
        raise ValueError(f"cosine drive required, got kind={drive.kind!r}")


def _response(w: float, g: float, W: float,
              ft: float) -> tuple[float, float]:
    """(A_q, phi_q) at frequency w, damping g, drive frequency W and force
    ftilde0 = ft, on plain floats; see quantum_lc."""
    det = w ** 2 + g ** 2 - W ** 2
    den = math.hypot(det, 2.0 * g * W)
    if den == 0.0:
        if ft != 0.0:
            raise ValueError(
                "response denominator underflows to zero: no bounded periodic "
                "solution at this scale of omega, gamma and Omega")
        return 0.0, 0.0
    return ft / den, -math.atan2(2.0 * g * W, det)


def _cycle_response(w: float, g: float, W: float, ft: float,
                    nbar: float) -> tuple[float, float, float, float]:
    """(A_q, phi_q, cycle-mean <n>, ripple amplitude) of the limit cycle
    over thermal occupation nbar, on plain floats; see mean_n_limit_cycle.
    Kept apart from _response, so quantum_lc never divides by 4 gamma omega;
    where that occupation denominator underflows to zero, this raises."""
    A, phi = _response(w, g, W, ft)
    if 4.0 * g * w == 0.0:
        raise ValueError(
            "occupation denominator 4 gamma omega underflows to zero: no "
            "cycle-mean <n> at this scale of omega and gamma")
    n = nbar + (ft * A / (4.0 * g * w)) * (g * math.cos(phi)
                                           - W * math.sin(phi))
    return A, phi, n, ft * A / (4.0 * w)


def quantum_lc(params: LindbladParams, drive: DriveFn) -> QuantumLC:
    """Amplitude and phase of the asymptotic <x> oscillation: <x> obeys the
    classical oscillator with omega0^2 = omega^2 + gamma^2, so
    A_q = ftilde0 / sqrt((omega^2+gamma^2-Omega^2)^2 + (2 gamma Omega)^2).

    The phase is continued to (-pi, 0] so it passes -pi/2 smoothly where
    Omega^2 crosses omega0^2 (atan2 does the branch tracking), and is
    returned for ftilde0 = 0 too. A denominator that underflows to zero
    leaves no bounded response: (0, 0) for ftilde0 = 0, else an error.
    """
    _require_cosine(drive)
    g, W = params.gamma, params.Omega
    A, phi = _response(params.omega, g, W, params.ftilde0)
    return QuantumLC(A_q=A, phi_q=phi, Omega=W, gamma=g)


def resonance_frequency(params: LindbladParams) -> float:
    """Drive frequency maximizing A_q: sqrt(omega^2 - gamma^2)."""
    if not params.gamma < params.omega:
        raise ValueError("resonance requires gamma < omega")
    return math.sqrt(params.omega ** 2 - params.gamma ** 2)


def resonance_amplitude(params: LindbladParams) -> float:
    """A_q at the resonance frequency: ftilde0 / (2 gamma omega)."""
    return params.ftilde0 / (2.0 * params.gamma * params.omega)


# ---------------------------------------------------------------------------
# occupation <n>


@dataclass(frozen=True)
class LimitCycleOccupation:
    """<n> on the limit cycle: nbar plus a cos(2 Omega t + phi_q) ripple.

    cycle is the QuantumLC it was built from (A_q, phi_q, Omega).
    """

    nbar: float
    amplitude: float
    cycle: QuantumLC

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return self.nbar + self.amplitude * np.cos(
            2.0 * self.cycle.Omega * t + self.cycle.phi_q)


def mean_n_limit_cycle(params: LindbladParams,
                       drive: DriveFn) -> LimitCycleOccupation:
    _require_cosine(drive)
    g, W = params.gamma, params.Omega
    A, phi, nbar, ripple = _cycle_response(params.omega, g, W,
                                           params.ftilde0, params.nbar)
    return LimitCycleOccupation(
        nbar=nbar, amplitude=ripple,
        cycle=QuantumLC(A_q=A, phi_q=phi, Omega=W, gamma=g))


def mean_n(t, n0: float, a0: complex, params: LindbladParams,
           drive: DriveFn | None = None):
    """<n>_t = |<a>_t|^2 + nu/2gamma + (n0 - |a0|^2 - nu/2gamma) e^{-2 gamma t}.

    The drive enters n' = nu - 2 gamma n + 2 Im(f(t) <a>_t) and
    |<a>|^2' = -2 gamma |<a>|^2 + 2 Im(f(t) <a>_t) through the same term, so
    m = <n> - |<a>|^2 obeys the force-free law m' = nu - 2 gamma m for any f.
    """
    drive = drive if drive is not None else DriveFn.none()
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    ninf = params.nbar
    m0 = float(n0) - abs(complex(a0)) ** 2 - ninf
    return np.abs(mean_a(t, a0, params, drive)) ** 2 + ninf \
        + m0 * np.exp(-2.0 * params.gamma * t)


# ---------------------------------------------------------------------------
# resonance scan


def resonance_scan(params: LindbladParams, Omega_range, samples: int):
    """Rows (Omega, A_q, phi_q, nbar) over a uniform Omega grid, for the
    cosine drive f0 cos(Omega t) with f0 from params: row i holds the
    quantum_lc and mean_n_limit_cycle values at Omega = Omega_i."""
    if not float(samples).is_integer() or samples < 3:
        raise ValueError(f"samples must be an integer >= 3, got {samples!r}")
    lo, hi = float(Omega_range[0]), float(Omega_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
        raise ValueError(f"need Omega_range=(lo, hi) with lo < hi, "
                         f"got ({lo}, {hi})")
    if lo < 0:
        raise ValueError("Omega must be >= 0")
    w, g, ft, nbar = params.omega, params.gamma, params.ftilde0, params.nbar
    rows = np.empty((int(samples), 4))
    for i, W in enumerate(np.linspace(lo, hi, int(samples)).tolist()):
        A, phi, n, _ = _cycle_response(w, g, W, ft, nbar)
        rows[i] = (W, A, phi, n)
    return rows
