"""Schrodinger evolution with a complex frequency (pure-loss shortcut).

Replacing omega by omega_tilde = omega - i*gamma turns the driven oscillator
Hamiltonian into a non-Hermitian generator whose coherent states stay
coherent: |psi(t)> = prefactor * |alpha(t)> with
alpha(t) = C(t) + alpha0 e^(-i omega_tilde t). The scalar coefficients A, B,
C obey

    i B' = -f(t) e^(-i omega_tilde t),  i C' = omega_tilde C - f(t),
    i A' = -f(t) C(t),       A(0) = B(0) = C(0) = 0,

and have closed forms below for f(t) = f0 cos(Omega t). The norm decays as
exp(-gamma t + 2 Re(A + B alpha0) - |alpha0|^2 + |alpha(t)|^2), so physical
expectation values are taken with respect to the renormalized state:
<n> = |alpha(t)|^2, and its Husimi density is husimi_value of
GaussianState.coherent(nh_alpha(t, ...)).

Expectation values reproduce the pure-loss Lindblad dynamics (mu = 2 gamma,
nu = 0) exactly for coherent initial states, which is tested both against
the closed forms and the dense integrator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lindblad_engine import LindbladParams, _store_real

__all__ = [
    "NHParams",
    "NHExpectations",
    "abc",
    "nh_alpha",
    "nh_expectations",
]


@dataclass(frozen=True)
class NHParams:
    """Complex-frequency evolution parameters.

    gamma > 0 is mandatory (the whole construction models decay); a nonzero
    cosine drive needs Omega > 0 because the closed form of A(t) carries a
    1/(2 Omega) from the e^(+-2 i Omega t) quadratures.
    """

    omega: float
    gamma: float
    f0: float = 0.0
    Omega: float = 0.0

    def __post_init__(self):
        _store_real(self, ("omega", "gamma", "f0", "Omega"))
        if not self.omega > 0:
            raise ValueError(f"omega must be > 0, got {self.omega}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.f0 != 0.0 and not self.Omega > 0:
            raise ValueError("nonzero drive requires Omega > 0")

    @property
    def omega_tilde(self) -> complex:
        return complex(self.omega, -self.gamma)

    def to_lindblad(self) -> LindbladParams:
        """The Lindblad parameters this evolution is equivalent to."""
        return LindbladParams(omega=self.omega, mu=2.0 * self.gamma, nu=0.0,
                              f0=self.f0, Omega=self.Omega)


def abc(t, p: NHParams):
    """Closed forms of (A, B, C) for the cosine drive; broadcast over t.

    A(t) comes from integrating i A' = -f C with the closed C(t), with the
    constant fixed by A(0) = 0; a tempting algebraic shortcut fails both
    conditions, so the form is pinned against an RK4 oracle in the tests.
    """
    t = np.asarray(t, dtype=float)
    if p.f0 == 0.0:
        return tuple(np.zeros((3,) + t.shape, dtype=np.complex128))

    wt, W, f0 = p.omega_tilde, p.Omega, p.f0
    d = wt * wt - W * W          # nonzero: gamma > 0 keeps wt off the real axis
    em = np.exp(-1j * (wt - W) * t)
    ep = np.exp(-1j * (wt + W) * t)

    B = (-f0 / (2.0 * d)) * ((wt + W) * em + (wt - W) * ep - 2.0 * wt)
    C = (f0 / (2.0 * d)) * ((wt - W) * np.exp(1j * W * t)
                            + (wt + W) * np.exp(-1j * W * t)
                            - 2.0 * wt * np.exp(-1j * wt * t))
    A = (f0 * f0 / (4.0 * d)) * (
        1.0 + 2j * wt * t
        + ((wt - W) / (2.0 * W)) * np.exp(2j * W * t)
        - ((wt + W) / (2.0 * W)) * np.exp(-2j * W * t)
        + (2.0 * wt / d) * ((wt + W) * em + (wt - W) * ep - 2.0 * wt)
    )
    return A, B, C


def nh_alpha(t, alpha0: complex, p: NHParams):
    """Coherent amplitude alpha(t) = C(t) + alpha0 e^(-i omega_tilde t)."""
    t = np.asarray(t, dtype=float)
    _, _, C = abc(t, p)
    return C + complex(alpha0) * np.exp(-1j * p.omega_tilde * t)


@dataclass(frozen=True)
class NHExpectations:
    a: complex
    n: float


def nh_expectations(t, alpha0: complex, p: NHParams):
    """Renormalized <a> and <n>; the state is coherent, so <n> = |<a>|^2."""
    a = nh_alpha(t, alpha0, p)
    return NHExpectations(a=a, n=np.abs(a) ** 2)
