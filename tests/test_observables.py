import math

import numpy as np
import pytest

from conftest import classical_solution, cosine_cycle_coefficients
from lindosc.fock_core import DensityMatrix, _phase_point, coherent_state
from lindosc.lindblad_engine import (
    DriveFn,
    IntegratorOptions,
    LindbladParams,
    evolve,
)
from lindosc.observables import (
    limit_cycle_alpha,
    mean_a,
    mean_n,
    mean_n_limit_cycle,
    quantum_lc,
    resonance_amplitude,
    resonance_frequency,
    resonance_scan,
)

P = LindbladParams(omega=1.1, mu=0.6, nu=0.4)
P_DRIVEN = LindbladParams(omega=1.1, mu=0.6, nu=0.4, f0=1.4,
                          Omega=1.0954451150103324)
COS = DriveFn.cosine()
# two harmonics, so the cycle is not an ellipse
P_FOURIER = LindbladParams(omega=1.1, mu=0.6, nu=0.4, Omega=1.3)
FOURIER = DriveFn.fourier((1, -2), (0.2 + 0.1j, 0.15 - 0.05j))


def _ode_residual_classical(x0, v0, omega0, gamma, drive):
    """max |v' + 2 gamma v + omega0^2 x - ftilde| by central differences."""
    h = 1e-4
    worst = 0.0
    for t in (0.2, 1.0, 4.0):
        xm, vm = classical_solution(x0, v0, t - h, omega0, gamma, drive)
        x, v = classical_solution(x0, v0, t, omega0, gamma, drive)
        xp, vp = classical_solution(x0, v0, t + h, omega0, gamma, drive)
        dv = (vp - vm) / (2 * h)
        dx = (xp - xm) / (2 * h)
        force = 0.0 if drive is None else drive[0] * math.cos(drive[1] * t)
        worst = max(worst,
                    abs(dv + 2 * gamma * v + omega0 ** 2 * x - force),
                    abs(dx - v))
    return worst


def test_classical_solution_branches():
    # underdamped (driven), overdamped, critically damped
    assert _ode_residual_classical(1.0, -0.5, 1.1, 0.1, (0.7, 1.3)) < 1e-6
    assert _ode_residual_classical(1.0, -0.5, 0.5, 1.0, None) < 1e-6
    assert _ode_residual_classical(1.0, -0.5, 1.0, 1.0, None) < 1e-6
    # an array of times gives the scalar results element by element (to
    # rounding: a vectorized cos may round differently on some CPUs)
    t = np.array([0.0, 0.2, 1.0, 4.0])
    for omega0, gamma, drive in ((1.1, 0.1, (0.7, 1.3)), (0.5, 1.0, None),
                                 (1.0, 1.0, None)):
        x, v = classical_solution(1.0, -0.5, t, omega0, gamma, drive)
        for k, tk in enumerate(t):
            assert (x[k], v[k]) == pytest.approx(
                classical_solution(1.0, -0.5, float(tk), omega0, gamma,
                                   drive), rel=1e-15, abs=1e-15)


def test_classical_initial_conditions():
    for drive in (None, (0.7, 1.3)):
        x, v = classical_solution(0.8, -0.3, 0.0, 1.1, 0.1, drive)
        assert abs(x - 0.8) < 1e-14
        assert abs(v + 0.3) < 1e-14


def test_classical_validation():
    with pytest.raises(ValueError):
        classical_solution(0, 0, 1.0, 0.0, 0.1)  # omega0 <= 0
    with pytest.raises(ValueError):
        classical_solution(0, 0, 1.0, 1.0, -0.1)  # gamma < 0
    with pytest.raises(ValueError):
        # undamped at its own frequency: secular growth, no cycle
        classical_solution(0, 0, 1.0, 1.0, 0.0, (1.0, 1.0))


@pytest.mark.parametrize("p", [
    P_DRIVEN,
    LindbladParams(omega=0.3, mu=2.0, nu=0.5, f0=0.7, Omega=2.1),
    P,
], ids=["resonant", "gamma>=omega", "undriven"])
def test_classical_solution_is_mean_x(p):
    # <x> obeys x'' + 2 gamma x' + (omega^2 + gamma^2) x = ftilde0 cos(Omega t)
    # with velocity <p> - gamma <x>, over the whole trajectory
    a0 = 0.8 - 0.3j
    t = np.linspace(0.0, 30.0, 301)
    a = mean_a(t, a0, p, COS)
    mx = math.sqrt(2.0 / p.omega) * a.real
    mp = math.sqrt(2.0 * p.omega) * a.imag
    x0 = math.sqrt(2.0 / p.omega) * a0.real
    p0 = math.sqrt(2.0 * p.omega) * a0.imag
    x, v = classical_solution(x0, p0 - p.gamma * x0, t,
                              math.hypot(p.omega, p.gamma), p.gamma,
                              (p.ftilde0, p.Omega))
    assert np.max(np.abs(x - mx)) < 1e-12
    assert np.max(np.abs(v - (mp - p.gamma * mx))) < 1e-12


def test_mean_a_free_decay():
    t = np.linspace(0.0, 6.0, 13)
    got = mean_a(t, 0.8 - 0.2j, P)
    want = (0.8 - 0.2j) * np.exp(-(1j * 1.1 + 0.1) * t)
    assert np.max(np.abs(got - want)) < 1e-15


def test_mean_a_satisfies_ode():
    p = LindbladParams(omega=1.1, mu=0.6, nu=0.4, f0=0.9, Omega=1.3)
    h = 1e-5
    for t in (0.3, 2.0, 7.0):
        am = mean_a(t - h, 0.6, p, COS)
        ap = mean_a(t + h, 0.6, p, COS)
        a = mean_a(t, 0.6, p, COS)
        f = complex(COS.value(t, p))
        resid = (ap - am) / (2 * h) + (1j * p.omega + p.gamma) * a \
            - 1j * f.conjugate()
        assert abs(resid) < 1e-8


def test_mean_a_fourier_pair_equals_cosine():
    p = LindbladParams(omega=1.1, mu=0.6, nu=0.4, f0=0.9, Omega=1.3)
    fr = DriveFn.fourier((1, -1), (0.45, 0.45))
    t = np.linspace(0.0, 8.0, 33)
    assert np.max(np.abs(mean_a(t, 0.5j, p, fr)
                         - mean_a(t, 0.5j, p, COS))) < 1e-14


def test_mean_a_driven_matches_integrator():
    p = LindbladParams(omega=1.1, mu=0.6, nu=0.4, f0=0.9, Omega=1.3)
    dim = 48
    rho0 = DensityMatrix.pure(coherent_state(0.6, dim))
    t = np.linspace(0.0, 2.0, 5)
    traj = evolve(rho0, t, p, drive=COS)
    assert np.max(np.abs(traj.mean_a - mean_a(t, 0.6, p, COS))) < 1e-7


@pytest.mark.parametrize("p,drive", [(P_DRIVEN, COS), (P_FOURIER, FOURIER)],
                         ids=["cosine", "fourier"])
def test_limit_cycle_alpha(p, drive):
    # the cycle is the particular solution: residual of the <a> ODE is zero
    h = 1e-5
    for t in (0.0, 1.3, 4.1):
        am = limit_cycle_alpha(t - h, p, drive)
        ap = limit_cycle_alpha(t + h, p, drive)
        a = limit_cycle_alpha(t, p, drive)
        f = complex(drive.value(t, p))
        resid = (ap - am) / (2 * h) \
            + (1j * p.omega + p.gamma) * a - 1j * f.conjugate()
        assert abs(resid) < 1e-7


def test_quantum_lc_resonant_pins():
    lc = quantum_lc(P_DRIVEN, COS)
    assert lc.A_q == pytest.approx(9.4387980744853888, abs=1e-12)
    assert lc.phi_q == pytest.approx(-1.4797615487574824, abs=1e-12)
    assert resonance_frequency(P_DRIVEN) == pytest.approx(
        1.0954451150103324, abs=1e-15)
    assert resonance_amplitude(P_DRIVEN) == pytest.approx(
        P_DRIVEN.ftilde0 / (2 * 0.1 * 1.1), abs=1e-14)


def test_quantum_lc_static_and_fast_limits():
    static = quantum_lc(
        LindbladParams(omega=1.1, mu=0.6, nu=0.4, f0=1.4, Omega=0.0), COS)
    assert static.phi_q == 0.0
    assert static.A_q == pytest.approx(
        math.sqrt(2 * 1.1) * 1.4 / (1.1 ** 2 + 0.1 ** 2), abs=1e-14)
    fast = quantum_lc(
        LindbladParams(omega=1.1, mu=0.6, nu=0.4, f0=1.4, Omega=1000.0), COS)
    assert abs(fast.phi_q + math.pi) < 1e-3


def _ellipse_residual(lc, t):
    # distance of (<x>, <p>) from the ellipse in QuantumLC's docstring
    x, p = lc.mean_x(t), lc.mean_p(t)
    if lc.Omega == 0.0:
        return np.abs(x ** 2 - lc.A_q ** 2)
    return np.abs((p - lc.gamma * x) ** 2 / lc.Omega ** 2
                  + x ** 2 - lc.A_q ** 2)


def test_quantum_lc_ellipse():
    lc = quantum_lc(P_DRIVEN, COS)
    t = np.linspace(0.0, 12.0, 400)
    assert np.max(_ellipse_residual(lc, t)) < 1e-9


def test_quantum_lc_static_ellipse():
    # Omega = 0: <x> rests at A_q and the "ellipse" degenerates to x^2 = A_q^2
    static = quantum_lc(
        LindbladParams(omega=1.1, mu=0.6, nu=0.4, f0=1.4, Omega=0.0), COS)
    t = np.linspace(0.0, 12.0, 40)
    assert np.max(_ellipse_residual(static, t)) < 1e-14


def test_quantum_lc_is_alpha_cycle():
    # <x>, <p> on the cycle are (x, p) of limit_cycle_alpha, down to the
    # static Omega = 0 limit, where <x> rests at A_q; measured within 2e-15
    # of A_q and of A_q * hypot(gamma, Omega), so 1e-13 leaves a 50x margin
    from dataclasses import replace
    t = np.linspace(0.0, 12.0, 400)
    for Omega in (0.0, 0.7, P_DRIVEN.Omega, 2.9):
        p = replace(P_DRIVEN, Omega=Omega)
        lc = quantum_lc(p, COS)
        x, mp = _phase_point(limit_cycle_alpha(t, p, COS), p.omega)
        assert np.max(np.abs(lc.mean_x(t) - x)) <= 1e-13 * lc.A_q
        assert np.max(np.abs(lc.mean_p(t) - mp)) \
            <= 1e-13 * lc.A_q * math.hypot(p.gamma, Omega)


def test_quantum_lc_underflowing_denominator():
    # omega^2 + gamma^2 - Omega^2 and 2 gamma Omega both underflow to zero:
    # no bounded response when driven, the zero cycle when not
    tiny = LindbladParams(omega=1e-200, mu=2e-200, nu=0.0, f0=1.0, Omega=0.0)
    with pytest.raises(ValueError, match="no bounded periodic solution"):
        quantum_lc(tiny, COS)
    lc = quantum_lc(
        LindbladParams(omega=1e-200, mu=2e-200, nu=0.0, f0=0.0), COS)
    assert (lc.A_q, lc.phi_q) == (0.0, 0.0)


@pytest.mark.parametrize("Omega", [0.0, 0.7, P_DRIVEN.Omega, 2.9])
def test_quantum_lc_array_bitwise_equals_scalar(Omega):
    # one array call traces a whole path; each row must carry the bits
    # of a call at that time alone
    from dataclasses import replace
    lc = quantum_lc(replace(P_DRIVEN, Omega=Omega), COS)
    t = np.concatenate((np.linspace(0.0, 2.0 * math.pi / P_DRIVEN.Omega,
                                    257), np.linspace(0.0, 500.0, 1001)))
    for f in (lc.mean_x, lc.mean_p):
        scalar = np.array([f(s) for s in t.tolist()])
        assert f(t).tobytes() == scalar.tobytes()


@pytest.mark.parametrize("a0", [0.6, 0.6 - 0.3j])
@pytest.mark.parametrize("p,drive", [(P_DRIVEN, COS), (P_FOURIER, FOURIER)],
                         ids=["cosine", "fourier"])
def test_periodic_response_array_matches_scalar(p, drive, a0):
    # cycle_path.tsv takes P(t) from one array call, the husimi grid
    # centres from scalar calls. A product of two complex factors (a
    # Fourier coefficient, or a complex a0 times the transient) may round
    # apart in numpy's vectorized loop and in its scalar math: up to
    # 4.4e-16 at the default dispatch level with AVX-512, none on
    # baseline kernels.
    # With real coefficients and a real a0 every row keeps its bits.
    t = np.concatenate((np.linspace(0.0, 2.0 * math.pi / p.Omega, 257),
                        np.linspace(0.0, 500.0, 1001)))
    for f, exact in ((lambda s: limit_cycle_alpha(s, p, drive),
                      drive is COS),
                     (lambda s: mean_a(s, a0, p, drive),
                      drive is COS and isinstance(a0, float))):
        scalar = np.array([f(s) for s in t.tolist()])
        if exact:
            assert f(t).tobytes() == scalar.tobytes()
        else:
            assert np.max(np.abs(f(t) - scalar)) <= 1e-15


def test_mean_x_second_order_ode():
    # <x> obeys x'' + 2 gamma x' + (omega^2 + gamma^2) x = ftilde(t)
    p = P_DRIVEN
    ft0 = p.ftilde0
    h = 1e-4
    w02 = p.omega ** 2 + p.gamma ** 2
    s = math.sqrt(2.0 / p.omega)
    for t in (0.5, 2.0, 6.0):
        xs = [s * mean_a(t + k * h, 0.7 - 0.1j, p, COS).real
              for k in (-1, 0, 1)]
        xdd = (xs[2] - 2 * xs[1] + xs[0]) / h ** 2
        xd = (xs[2] - xs[0]) / (2 * h)
        resid = xdd + 2 * p.gamma * xd + w02 * xs[1] \
            - ft0 * math.cos(p.Omega * t)
        assert abs(resid) < 1e-6 * ft0


def test_resonance_requires_underdamping():
    with pytest.raises(ValueError):
        resonance_frequency(LindbladParams(omega=0.05, mu=0.5, nu=0.3))


def test_mean_n_free_pin_and_ode():
    assert mean_n(5.0, 0.0, 0.0, P) == pytest.approx(1.2642411176571153,
                                                     abs=1e-12)
    h = 1e-5
    for n0, t in ((0.0, 1.0), (3.0, 0.5), (1.5, 8.0)):
        dn = (mean_n(t + h, n0, 0.0, P) - mean_n(t - h, n0, 0.0, P)) / (2 * h)
        n = mean_n(t, n0, 0.0, P)
        assert abs(dn - (P.nu - 2 * P.gamma * n)) < 1e-8


def test_mean_n_driven_ode_residual():
    p = LindbladParams(omega=1.1, mu=0.6, nu=0.4, f0=0.8, Omega=1.3)
    a0 = 0.5 - 0.3j
    h = 1e-4
    fourier = DriveFn.fourier((1, -2), (0.45 + 0.2j, 0.3 - 0.1j))
    for drive in (COS, fourier):
        for t in (0.5, 2.5):
            nm = mean_n(t - h, 0.2, a0, p, drive)
            npl = mean_n(t + h, 0.2, a0, p, drive)
            n = mean_n(t, 0.2, a0, p, drive)
            f = complex(drive.value(t, p))
            a = mean_a(t, a0, p, drive)
            rhs = p.nu - 2 * p.gamma * n + 2 * (f * a).imag
            assert abs((npl - nm) / (2 * h) - rhs) < 1e-6


def test_mean_n_driven_matches_integrator():
    p = LindbladParams(omega=1.1, mu=0.6, nu=0.4, f0=0.1, Omega=1.3)
    dim = 64
    t = np.linspace(0.0, 3.0, 7)
    traj = evolve(DensityMatrix.pure(coherent_state(0.0, dim)), t, p,
                  drive=COS)
    want = mean_n(t, 0.0, 0.0, p, COS)
    rel = np.max(np.abs(traj.mean_n - want) / np.maximum(want, 1e-3))
    assert rel < 1e-5


def test_mean_n_time_validation():
    with pytest.raises(ValueError):
        mean_n(-1.0, 0.0, 0.0, P)
    # the identity is pointwise: any order of t, reversed t reversed bits
    t = np.array([0.0, 2.0, 1.0, 3.5])
    fwd = mean_n(t, 0.3, 0.2 - 0.1j, P_DRIVEN, COS)
    rev = mean_n(t[::-1], 0.3, 0.2 - 0.1j, P_DRIVEN, COS)
    assert rev.tobytes() == fwd[::-1].tobytes()


def test_mean_n_limit_cycle_forms_agree():
    occ = mean_n_limit_cycle(P_DRIVEN, COS)
    cp, cm = cosine_cycle_coefficients(P_DRIVEN)
    # the period mean of |alpha_lc|^2 on top of the thermal floor
    assert occ.nbar == pytest.approx(
        P_DRIVEN.nbar + abs(cp) ** 2 + abs(cm) ** 2, abs=1e-10)
    assert occ.nbar == pytest.approx(51.0, abs=1e-9)  # resonant drive
    # the ripple nbar + A cos(2 Omega t + phi_q) is the long-time mean_n
    t = 400.0 + np.linspace(0.0, 2.0 * math.pi / P_DRIVEN.Omega, 41)
    assert np.max(np.abs(occ.value(t) - mean_n(t, 0.0, 0.0, P_DRIVEN, COS))) \
        < 1e-9


def test_resonance_scan():
    rows = resonance_scan(P_DRIVEN, (0.5, 1.7), 25)
    assert rows.shape == (25, 4)
    from dataclasses import replace
    for W, A, phi, _ in rows[::6]:
        lc = quantum_lc(replace(P_DRIVEN, Omega=float(W)), COS)
        assert abs(A - lc.A_q) < 1e-12
        assert abs(phi - lc.phi_q) < 1e-12
    p_quiet = LindbladParams(omega=1.1, mu=0.6, nu=0.4)
    quiet = resonance_scan(p_quiet, (0.5, 1.7), 5)
    assert np.all(quiet[:, 1] == 0.0)
    assert np.max(np.abs(quiet[:, 3] - 2.0)) < 1e-12
    # undriven, the limit-cycle occupation is exactly the thermal floor
    assert np.all(quiet[:, 3] == p_quiet.nu / (2.0 * p_quiet.gamma))
    with pytest.raises(ValueError):
        resonance_scan(P_DRIVEN, (0.5, 1.7), 2)
    with pytest.raises(ValueError):
        resonance_scan(P_DRIVEN, (1.7, 0.5), 10)
    with pytest.raises(ValueError):
        resonance_scan(P_DRIVEN, (-0.1, 1.7), 10)


def _scan_reference(p, Omega_range, samples):
    # reference: one mean_n_limit_cycle call on LindbladParams per sample
    from dataclasses import replace
    rows = np.empty((samples, 4))
    for i, W in enumerate(np.linspace(*Omega_range, samples)):
        occ = mean_n_limit_cycle(replace(p, Omega=float(W)), COS)
        rows[i] = (W, occ.cycle.A_q, occ.cycle.phi_q, occ.nbar)
    return rows


@pytest.mark.parametrize("p, Omega_range, samples", [
    (P_DRIVEN, (0.5, 1.7), 401),
    (LindbladParams(omega=1.1, mu=0.6, nu=0.4), (0.5, 1.7), 41),
    (P_DRIVEN, (0.0, 2.5), 257),
], ids=["driven", "undriven", "from-zero"])
def test_resonance_scan_bitwise_equals_per_sample_calls(p, Omega_range,
                                                        samples):
    rows = resonance_scan(p, Omega_range, samples)
    assert rows.tobytes() == _scan_reference(p, Omega_range,
                                             samples).tobytes()


def test_resonance_scan_underflowing_denominator():
    # Omega = 0 is the first sample, where both denominator terms underflow
    tiny = LindbladParams(omega=1e-200, mu=2e-200, nu=0.0, f0=1.0)
    with pytest.raises(ValueError, match="response denominator underflows"):
        resonance_scan(tiny, (0.0, 1.0), 5)


def test_cycle_occupation_underflowing_denominator():
    # 4 gamma omega = 4e-340 underflows to zero while the response itself
    # is finite: the cycle-mean <n> has no value, A_q does
    tiny = LindbladParams(omega=1e-170, mu=2e-170, nu=0.0, f0=0.3, Omega=1.0)
    with pytest.raises(ValueError, match="occupation denominator"):
        mean_n_limit_cycle(tiny, COS)
    with pytest.raises(ValueError, match="occupation denominator"):
        resonance_scan(tiny, (1.0, 2.0), 3)
    A_q = quantum_lc(tiny, COS).A_q
    assert A_q == pytest.approx(0.3 * math.sqrt(2e-170), rel=1e-12)
    assert 4.2e-86 < A_q < 4.3e-86


@pytest.mark.parametrize("samples", [math.inf, math.nan])
def test_resonance_scan_rejects_non_finite_samples(samples):
    with pytest.raises(ValueError, match="samples must be an integer"):
        resonance_scan(P_DRIVEN, (0.5, 1.5), samples)


@pytest.mark.slow
def test_mean_a_large_basis_example():
    # strong resonant drive pushes |<a>| above 7; dim=256 holds the support.
    # the spectral radius of the truncated generator forces the small step.
    dim = 256
    t = np.linspace(0.0, 10.0, 11)
    traj = evolve(DensityMatrix.pure(coherent_state(0.0, dim)), t, P_DRIVEN,
                  drive=COS, opts=IntegratorOptions(dt=5e-3))
    want = mean_a(t, 0.0, P_DRIVEN, COS)
    assert np.max(np.abs(traj.mean_a - want)) < 1e-7
