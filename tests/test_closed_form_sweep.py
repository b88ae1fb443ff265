"""Property sweep of the limit-cycle closed forms over admissible
(omega, mu, nu, f0, Omega), with the edge regimes as explicit examples."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import classical_solution, cosine_cycle_coefficients
from lindosc.fock_core import _phase_point
from lindosc.lindblad_engine import DriveFn, LindbladParams
from lindosc.observables import (
    limit_cycle_alpha,
    mean_a,
    mean_n_limit_cycle,
    quantum_lc,
    resonance_frequency,
)

COS = DriveFn.cosine()
EPS = np.finfo(float).eps
T = np.linspace(0.0, 20.0, 81)

# mu > nu >= 0 with nu a fraction of mu; gamma >= omega is reachable
ADMISSIBLE = st.builds(
    lambda omega, mu, frac, f0, Omega: LindbladParams(
        omega=omega, mu=mu, nu=frac * mu, f0=f0, Omega=Omega),
    st.floats(0.05, 5.0), st.floats(0.01, 5.0), st.floats(0.0, 0.9),
    st.floats(0.0, 2.0), st.floats(0.0, 5.0))
AMPLITUDES = st.complex_numbers(max_magnitude=2.0)

NU_ZERO = LindbladParams(omega=1.1, mu=0.6, nu=0.0, f0=1.4, Omega=1.3)
OVERDAMPED = LindbladParams(omega=0.3, mu=2.0, nu=0.5, f0=0.7, Omega=2.1)
STATIC = LindbladParams(omega=1.1, mu=0.6, nu=0.4, f0=1.4, Omega=0.0)
RESONANT = LindbladParams(
    omega=1.1, mu=0.6, nu=0.4, f0=1.4,
    Omega=resonance_frequency(LindbladParams(omega=1.1, mu=0.6, nu=0.4)))


def _condition(p: LindbladParams) -> float:
    """How far, in units of eps, the routes may part by rounding alone: the
    phase arguments reach (omega + Omega) * T[-1], and omega^2 + gamma^2 -
    Omega^2 cancels (or phi_q nears -pi) against 2 gamma Omega."""
    w, g, W = p.omega, p.gamma, p.Omega
    return 1.0 + (w + W) * T[-1] + (w * w + g * g + W * W) / (g * (w + W))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(p=ADMISSIBLE, a0=AMPLITUDES)
@example(p=NU_ZERO, a0=0.8 - 0.3j)
@example(p=OVERDAMPED, a0=0.8 - 0.3j)
@example(p=STATIC, a0=0.8 - 0.3j)
@example(p=RESONANT, a0=0.8 - 0.3j)
def test_limit_cycle_closed_forms_agree(p, a0):
    # the worst error over 20000 random draws and the corners of the box
    # was 1.3 eps * _condition(p) of the scale; 16 leaves a 12x margin
    tol = 16.0 * EPS * _condition(p)
    cp, cm = cosine_cycle_coefficients(p)

    # quantum_lc is the phase-space form of the alpha route's cycle
    lc = quantum_lc(p, COS)
    x, mp = _phase_point(limit_cycle_alpha(T, p, COS), p.omega)
    assert np.max(np.abs(lc.mean_x(T) - x)) <= tol * lc.A_q
    assert np.max(np.abs(lc.mean_p(T) - mp)) \
        <= tol * lc.A_q * math.hypot(p.gamma, p.Omega)

    # the quadrature occupation is the period mean of |alpha_lc|^2
    nbar_alpha = p.nbar + abs(cp) ** 2 + abs(cm) ** 2
    assert abs(mean_n_limit_cycle(p, COS).nbar - nbar_alpha) \
        <= tol * nbar_alpha

    # <x> from mean_a obeys the classical oscillator with omega0^2 =
    # omega^2 + gamma^2 and velocity <p> - gamma <x>, transient included
    mx, mp = _phase_point(mean_a(T, a0, p, COS), p.omega)
    x0, p0 = _phase_point(complex(a0), p.omega)
    xc, vc = classical_solution(x0, p0 - p.gamma * x0, T,
                                math.hypot(p.omega, p.gamma), p.gamma,
                                (p.ftilde0, p.Omega))
    reach = abs(a0) + abs(cp) + abs(cm)
    scale_x = math.sqrt(2.0 / p.omega) * reach
    assert np.max(np.abs(xc - mx)) <= tol * scale_x
    assert np.max(np.abs(vc - (mp - p.gamma * mx))) \
        <= tol * (math.sqrt(2.0 * p.omega) * reach + p.gamma * scale_x)


def test_fourier_limit_cycle_is_periodic_and_attracting():
    # two harmonics, so the cycle is not an ellipse; measured 4.2e-15 for
    # the period return and 3.6e-16 for mean_a against a cycle of size 1.04,
    # so 1e-13 and 1e-14 leave about a 25x margin
    p = LindbladParams(omega=1.1, mu=0.6, nu=0.4, Omega=1.3)
    drive = DriveFn.fourier((1, -2), (0.2 + 0.1j, 0.15 - 0.05j))
    cycle = limit_cycle_alpha(T, p, drive)
    period = 2.0 * math.pi / p.Omega
    assert np.max(np.abs(limit_cycle_alpha(T + period, p, drive) - cycle)) \
        <= 1e-13
    # started on the cycle, <a> has no transient and stays on it
    a0 = limit_cycle_alpha(0.0, p, drive)
    assert np.max(np.abs(mean_a(T, a0, p, drive) - cycle)) <= 1e-14
