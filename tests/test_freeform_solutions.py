import numpy as np
import pytest

from lindosc.fock_core import (
    DensityMatrix,
    coherent_state,
    trace_distance,
)
from lindosc.freeform_solutions import (
    _fujii_raw,
    coherent_free_evolution,
    efg,
    fujii_density,
    thermal_from_ground,
)
from lindosc.gaussian_class import materialize
from lindosc.lindblad_engine import (
    IntegratorOptions,
    LindbladParams,
    evolve,
    steady_state,
)

from conftest import enveloped_density, expectation, ladder_ops

P = LindbladParams(omega=1.1, mu=0.6, nu=0.4)


def test_efg_pinned_values():
    E, F, G = efg(5.0, P)
    assert E == pytest.approx(0.8375263843136549, abs=1e-14)
    assert F == pytest.approx(3.7331024926751177, abs=1e-13)
    assert G == pytest.approx(0.55835092287577, abs=1e-13)


def test_efg_initial_and_asymptotic():
    E0, F0, G0 = efg(0.0, P)
    assert E0 == 0.0 and G0 == 0.0
    assert F0 == pytest.approx(1.0, abs=1e-15)  # log-form costs one ulp
    E, F, G = efg(5000.0, P)
    assert E == pytest.approx(1.0, abs=1e-12)
    assert G == pytest.approx(0.4 / 0.6, abs=1e-12)
    assert np.isfinite(F) and F > 1e200  # log-domain F survives gamma*t = 500


def test_efg_damping_identity():
    # F (1 - G) = e^{gamma t} holds for all t
    t = np.array([0.0, 0.3, 2.0, 17.0, 60.0])
    E, F, G = efg(t, P)
    assert np.max(np.abs(F * (1.0 - G) - np.exp(P.gamma * t))) < 1e-12


def test_efg_rejects_negative_time():
    with pytest.raises(ValueError):
        efg(-0.1, P)


def test_fujii_matches_integrator(rng):
    dim = 32
    rho0 = enveloped_density(dim, rng)
    t = np.array([0.0, 2.0])
    traj = evolve(rho0, t, P,
                  opts=IntegratorOptions(snapshot_times=(2.0,)))
    exact = fujii_density(rho0, 2.0, P)
    assert trace_distance(traj.snapshots[2.0], exact) < 1e-6


def test_fujii_raw_trace_measures_leak(rng):
    # adequate dim: the unnormalized propagator loses only the far tail
    rho0 = DensityMatrix.pure(coherent_state(1.0, 64))
    raw = _fujii_raw(rho0, 25.0, P)
    assert abs(raw.trace().real - 1.0) < 1e-10
    p2 = LindbladParams(omega=1.1, mu=0.6, nu=0.2)
    raw2 = _fujii_raw(DensityMatrix.pure(coherent_state(1.0, 48)), 25.0, p2)
    assert abs(raw2.trace().real - 1.0) < 1e-10


def test_fujii_agrees_with_gaussian_form():
    dim = 32
    rho0 = DensityMatrix.pure(coherent_state(0.8, dim))
    got = fujii_density(rho0, 1.5, P)
    want = materialize(coherent_free_evolution(0.8, 1.5, P), dim)
    assert trace_distance(got, want) < 1e-10


def test_thermal_from_ground():
    dim = 64
    rho = thermal_from_ground(5.0, P, dim)
    pops = np.diagonal(rho.matrix).real
    _, _, G = efg(5.0, P)
    assert np.max(np.abs(pops[1:] / pops[:-1] - G)) < 1e-13
    n = expectation(ladder_ops(dim)[2], rho).real
    assert n == pytest.approx(1.2642411176571153, abs=1e-9)
    rho0 = thermal_from_ground(0.0, P, 8)
    assert rho0.matrix[0, 0] == 1.0
    # no gain: nothing ever leaves the ground state
    still = thermal_from_ground(
        3.0, LindbladParams(omega=1.0, mu=0.5, nu=0.0), 8)
    assert still.matrix[0, 0] == 1.0
    # long after the start it is the steady state (e^(-2 gamma t) = 4e-18)
    late = thermal_from_ground(200.0, P, dim).matrix
    assert np.max(np.abs(late - steady_state(P, dim).matrix)) < 1e-12


def test_coherent_free_evolution_track():
    g = coherent_free_evolution(1.0 + 0.5j, 2.0, P)
    _, _, G = efg(2.0, P)
    assert g.u == pytest.approx(G, abs=1e-15)
    want = (1.0 + 0.5j) * np.exp(-(0.1 + 1.1j) * 2.0)
    assert g.alpha == pytest.approx(want, abs=1e-15)
    pure = coherent_free_evolution(
        1.0, 2.0, LindbladParams(omega=1.0, mu=0.5, nu=0.0))
    assert pure.u == 0.0 and pure.is_pure
