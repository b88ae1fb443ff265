import math

import numpy as np
import pytest

from lindosc.fock_core import DensityMatrix, coherent_state
from lindosc.lindblad_engine import DriveFn, evolve
from lindosc.nonhermitian import (
    NHParams,
    abc,
    nh_alpha,
    nh_expectations,
)
from lindosc.observables import mean_a

NH = NHParams(omega=1.1, gamma=0.1, f0=0.4, Omega=1.0954451150103324)
NH_FREE = NHParams(omega=1.1, gamma=0.1)


def test_params_validation():
    with pytest.raises(ValueError):
        NHParams(omega=1.0, gamma=0.0)  # decay model needs gamma > 0
    with pytest.raises(ValueError):
        NHParams(omega=0.0, gamma=0.1)
    with pytest.raises(ValueError):
        NHParams(omega=1.0, gamma=0.1, f0=0.5, Omega=0.0)
    with pytest.raises(ValueError):
        NHParams(omega=1.0 + 1j, gamma=0.1)


def test_omega_tilde_and_lindblad_map():
    assert NH.omega_tilde == 1.1 - 0.1j
    lp = NH.to_lindblad()
    assert (lp.mu, lp.nu) == (0.2, 0.0)
    assert (lp.omega, lp.f0, lp.Omega) == (NH.omega, NH.f0, NH.Omega)


def test_abc_initial_conditions():
    assert abc(0.0, NH) == (0j, 0j, 0j)
    A, B, C = abc(np.zeros(3), NH)
    assert not np.any(A) and not np.any(B) and not np.any(C)
    assert abc(2.0, NH_FREE) == (0j, 0j, 0j)


def test_abc_satisfies_odes():
    # i B' = -f e^{-i wt t}, i C' = wt C - f, i A' = -f C
    wt = NH.omega_tilde
    eps = 1e-5
    for t in (0.2, 1.5, 6.0):
        Am, Bm, Cm = abc(t - eps, NH)
        A0, B0, C0 = abc(t, NH)
        Ap, Bp, Cp = abc(t + eps, NH)
        f = NH.f0 * math.cos(NH.Omega * t)
        rB = 1j * (Bp - Bm) / (2 * eps) + f * np.exp(-1j * wt * t)
        rC = 1j * (Cp - Cm) / (2 * eps) - wt * C0 + f
        rA = 1j * (Ap - Am) / (2 * eps) + f * C0
        assert abs(rB) < 1e-7
        assert abs(rC) < 1e-7
        assert abs(rA) < 1e-7


def test_abc_matches_rk4_oracle():
    # independent integration of the coefficient ODEs
    wt = NH.omega_tilde
    h = 1e-4
    steps = int(round(3.0 / h))
    y = np.zeros(3, dtype=complex)  # (A, B, C)

    def deriv(tau, y_):
        f = NH.f0 * math.cos(NH.Omega * tau)
        return np.array([1j * f * y_[2],
                         1j * f * np.exp(-1j * wt * tau),
                         -1j * (wt * y_[2] - f)])

    for k in range(steps):
        tk = k * h
        k1 = deriv(tk, y)
        k2 = deriv(tk + h / 2, y + h / 2 * k1)
        k3 = deriv(tk + h / 2, y + h / 2 * k2)
        k4 = deriv(tk + h, y + h * k3)
        y = y + (h / 6) * (k1 + 2 * (k2 + k3) + k4)

    A, B, C = abc(3.0, NH)
    assert abs(A - y[0]) < 1e-10
    assert abs(B - y[1]) < 1e-10
    assert abs(C - y[2]) < 1e-10


def test_nh_alpha_forms():
    a0 = 0.9 + 0.4j
    t = np.linspace(0.0, 5.0, 11)
    free = nh_alpha(t, a0, NH_FREE)
    assert np.max(np.abs(free - a0 * np.exp(-(1j * 1.1 + 0.1) * t))) < 1e-14
    _, _, C = abc(t, NH)
    driven = nh_alpha(t, a0, NH)
    assert np.max(np.abs(driven - C
                         - a0 * np.exp(-1j * NH.omega_tilde * t))) < 1e-13


def test_expectations_match_lindblad_closed_form():
    a0 = 0.9 + 0.4j
    t = np.linspace(0.0, 8.0, 81)
    lp = NH.to_lindblad()
    want = mean_a(t, a0, lp, DriveFn.cosine())
    ex = nh_expectations(t, a0, NH)
    assert np.max(np.abs(ex.a - want)) < 1e-10
    assert np.max(np.abs(ex.n - np.abs(want) ** 2)) < 1e-10


def test_expectations_match_integrator():
    a0 = 0.9 + 0.4j
    dim = 64
    t = np.linspace(0.0, 4.0, 9)
    traj = evolve(DensityMatrix.pure(coherent_state(a0, dim)), t,
                  NH.to_lindblad(), drive=DriveFn.cosine())
    ex = nh_expectations(t, a0, NH)
    assert np.max(np.abs(traj.mean_a - ex.a)) < 1e-7
    assert np.max(np.abs(traj.mean_n - ex.n)) < 1e-7


def _series_norm(t, alpha0, p, dim=64):
    # free decay in the Fock basis, with the Poisson weights of |alpha0>:
    # sum_n |<n|alpha0>|^2 e^(-2 gamma (n + 1/2) t)
    weights = np.abs(coherent_state(alpha0, dim)) ** 2
    return float(np.sum(weights * np.exp(-2.0 * p.gamma
                                         * (np.arange(dim) + 0.5) * t)))


def nh_norm(t, alpha0, p):
    """Squared norm <psi(t)|psi(t)> of the decaying state, from the scalar
    coefficients alone (no basis):

        exp(-gamma t + 2 Re(A + B alpha0) - |alpha0|^2 + |alpha(t)|^2).
    """
    alpha0 = complex(alpha0)
    t = float(t)
    A, B, _ = abc(t, p)
    a_t = nh_alpha(t, alpha0, p)
    return math.exp(-p.gamma * t + 2.0 * (A + B * alpha0).real
                    - abs(alpha0) ** 2 + abs(a_t) ** 2)


def test_nh_norm_prefactor_vs_series():
    for a0 in (1.2 - 0.3j, 0.0, 0.8 + 0.5j, 3.9):
        for t in (0.0, 0.7, 3.0):
            pre = nh_norm(t, a0, NH_FREE)
            assert abs(pre - _series_norm(t, a0, NH_FREE)) < 1e-12
    assert nh_norm(0.0, 1.2 - 0.3j, NH) == pytest.approx(1.0, abs=1e-14)


def test_nh_norm_decay_rate():
    # d/dt log norm = -2 gamma (<n> + 1/2) for the free decay
    a0 = 0.8 + 0.5j
    h = 1e-5
    for t in (0.3, 2.0):
        lm = math.log(nh_norm(t - h, a0, NH_FREE))
        lp = math.log(nh_norm(t + h, a0, NH_FREE))
        n = nh_expectations(t, a0, NH_FREE).n
        want = -2.0 * NH_FREE.gamma * (n + 0.5)
        assert abs((lp - lm) / (2 * h) - want) < 1e-8
