import math

import numpy as np
import pytest

from lindosc.fock_core import (
    DensityMatrix,
    TruncationWarning,
    coherent_state,
    ladder_ops,
)
from lindosc.lindblad_engine import (
    DriveFn,
    IntegrationDivergedError,
    IntegratorOptions,
    LindbladParams,
    default_dt,
    evolve,
    lindblad_rhs,
    steady_state,
)

from conftest import enveloped_density

P_FREE = LindbladParams(omega=1.1, mu=0.6, nu=0.4)


def test_params_validation():
    with pytest.raises(ValueError):
        LindbladParams(omega=1.0, mu=0.4, nu=0.6)  # needs mu > nu
    with pytest.raises(ValueError):
        LindbladParams(omega=1.0, mu=0.5, nu=0.5)
    with pytest.raises(ValueError):
        LindbladParams(omega=1.0, mu=0.5, nu=-0.1)
    with pytest.raises(ValueError):
        LindbladParams(omega=0.0, mu=0.5, nu=0.1)
    with pytest.raises(ValueError):
        LindbladParams(omega=1.0, mu=0.5, nu=0.1, Omega=-1.0)
    with pytest.raises(ValueError):
        LindbladParams(omega=1.0, mu=float("nan"), nu=0.0)
    with pytest.raises(ValueError):
        LindbladParams(omega=1.0 + 0.1j, mu=0.5, nu=0.1)


def test_params_derived_quantities():
    p = LindbladParams(omega=1.1, mu=0.6, nu=0.4, f0=1.4)
    assert p.gamma == pytest.approx(0.1, abs=1e-15)
    assert p.gamma_prime == pytest.approx(0.5, abs=1e-15)
    assert p.nbar == pytest.approx(2.0, abs=1e-12)
    assert p.ftilde0 == pytest.approx(math.sqrt(2 * 1.1) * 1.4, abs=1e-15)


def test_drive_values():
    p = LindbladParams(omega=1.0, mu=0.5, nu=0.1, f0=0.7, Omega=1.3)
    t = np.linspace(0.0, 5.0, 11)
    assert np.all(DriveFn.none().value(t, p) == 0)
    assert np.allclose(DriveFn.cosine().value(t, p), 0.7 * np.cos(1.3 * t))
    fr = DriveFn.fourier((1, -1), (0.35 + 0j, 0.35 + 0j))
    # symmetric pair reproduces the cosine
    assert np.max(np.abs(fr.value(t, p)
                         - DriveFn.cosine().value(t, p))) < 1e-15
    assert DriveFn.cosine().max_frequency(p) == 1.3
    assert DriveFn.fourier((2, -3), (1j, 1.0)).max_frequency(p) == 3 * 1.3
    assert DriveFn.none().terms(p) == ()
    assert DriveFn.cosine().terms(p) == ((1, 0.35), (-1, 0.35))
    assert DriveFn.fourier((2, -3), (1j, 1.0)).terms(p) == ((2, 1j),
                                                            (-3, 1.0))


def test_drive_fourier_validation():
    with pytest.raises(ValueError):
        DriveFn.fourier((), ())
    with pytest.raises(ValueError):
        DriveFn.fourier((1, 1), (1.0, 2.0))  # duplicate harmonic
    with pytest.raises(ValueError):
        DriveFn.fourier((1, 2), (1.0,))  # length mismatch
    p0 = LindbladParams(omega=1.0, mu=0.5, nu=0.1, f0=1.0, Omega=0.0)
    with pytest.raises(ValueError):
        DriveFn.fourier((1,), (1.0,)).value(0.5, p0)  # needs Omega > 0


def test_default_dt_formula():
    p = LindbladParams(omega=1.1, mu=0.6, nu=0.4, f0=1.4, Omega=8.0)
    assert default_dt(p, DriveFn.none()) == pytest.approx(
        1e-3 * 2 * math.pi / 1.1)
    # a drive faster than 5*omega tightens the step
    assert default_dt(p, DriveFn.cosine()) == pytest.approx(
        2 * math.pi / (200 * 8.0))


def test_rhs_matches_dense_oracle(rng):
    dim = 24
    p = LindbladParams(omega=1.1, mu=0.6, nu=0.4, f0=0.9, Omega=1.3)
    drive = DriveFn.fourier((1, -2), (0.45 + 0.2j, 0.3 - 0.1j))
    rho = enveloped_density(dim, rng).matrix
    t = 0.37
    f = complex(drive.value(t, p))

    a, ad, n = ladder_ops(dim)
    h = p.omega * (n + 0.5 * np.eye(dim)) - f.conjugate() * ad - f * a
    dense = (-1j * (h @ rho - rho @ h)
             + (p.mu / 2.0) * (2 * a @ rho @ ad - ad @ a @ rho
                               - rho @ ad @ a)
             + (p.nu / 2.0) * (2 * ad @ rho @ a - a @ ad @ rho
                               - rho @ a @ ad))
    banded = lindblad_rhs(rho, t, p, drive)
    assert np.max(np.abs(banded - dense)) < 1e-13


def test_rhs_traceless_and_hermiticity_preserving(rng):
    rho = enveloped_density(20, rng).matrix
    out = lindblad_rhs(rho, 0.0, P_FREE, DriveFn.none())
    assert abs(np.trace(out)) < 1e-14
    assert np.max(np.abs(out - out.conj().T)) < 1e-13


def test_vacuum_relaxation_matches_closed_form():
    dim = 32
    t = np.linspace(0.0, 5.0, 6)
    traj = evolve(DensityMatrix.pure(coherent_state(0.0, dim)), t, P_FREE)
    closed = 2.0 * -np.expm1(-0.2 * t)  # nu/(2 gamma) = 2, 2 gamma = 0.2
    assert np.max(np.abs(traj.mean_n - closed)) < 1e-6
    assert np.all(traj.min_eig > -1e-9)


def test_trace_preserved_without_renormalization():
    dim = 40
    t = np.linspace(0.0, 5.0, 6)
    opts = IntegratorOptions(renorm_every=0)
    traj = evolve(DensityMatrix.pure(coherent_state(0.0, dim)), t, P_FREE,
                  opts=opts)
    assert np.max(traj.trace_err) < 1e-12


def test_coherent_state_stays_pure_without_gain():
    # nu = 0: a coherent state remains coherent, purity pinned at 1
    p = LindbladParams(omega=1.1, mu=0.6, nu=0.0)
    dim = 32
    rho0 = DensityMatrix.pure(coherent_state(1.0, dim))
    traj = evolve(rho0, np.linspace(0.0, 4.0, 5), p)
    assert np.max(np.abs(traj.purity - 1.0)) < 1e-6
    assert np.max(traj.entropy) < 1e-6


def test_phase_space_columns_follow_mean_a():
    p = LindbladParams(omega=1.1, mu=0.6, nu=0.4, f0=0.3, Omega=1.0)
    rho0 = DensityMatrix.pure(coherent_state(0.5 + 0.2j, 32))
    traj = evolve(rho0, np.linspace(0.0, 2.0, 5), p, DriveFn.cosine())
    assert np.array_equal(traj.mean_x,
                          math.sqrt(2.0 / 1.1) * traj.mean_a.real)
    assert np.array_equal(traj.mean_p,
                          math.sqrt(2.0 * 1.1) * traj.mean_a.imag)


def test_entropy_column_of_thermal_state():
    dim = 64
    rho0 = steady_state(P_FREE, dim)
    traj = evolve(rho0, np.array([0.0, 0.5]), P_FREE)
    s_exact = 1.9095425048844383  # geometric law at u = 2/3
    assert abs(traj.entropy[0] - s_exact) < 1e-9
    assert abs(traj.entropy[1] - s_exact) < 1e-9


def test_snapshots_returned_on_grid():
    dim = 40
    t = np.linspace(0.0, 2.0, 5)
    opts = IntegratorOptions(snapshot_times=(0.5, 2.0))
    traj = evolve(DensityMatrix.pure(coherent_state(0.0, dim)), t, P_FREE,
                  opts=opts)
    assert set(traj.snapshots) == {0.5, 2.0}
    assert isinstance(traj.snapshots[0.5], DensityMatrix)
    with pytest.raises(ValueError):
        evolve(DensityMatrix.pure(coherent_state(0.0, dim)), t, P_FREE,
               opts=IntegratorOptions(snapshot_times=(0.7,)))


def test_snapshots_keyed_by_requested_time():
    # linspace puts 0.09999999999999999 on the grid where 0.1 is asked for
    t = np.linspace(0.0, 0.3, 4)
    assert t[1] != 0.1
    rho0 = DensityMatrix.pure(coherent_state(0.3, 16))
    traj = evolve(rho0, t, P_FREE,
                  opts=IntegratorOptions(snapshot_times=(0.1,)))
    rho = traj.snapshots[0.1].matrix
    assert list(traj.snapshots) == [0.1]
    assert abs(np.dot(np.arange(16), rho.diagonal().real)
               - traj.mean_n[1]) < 1e-10


def test_time_grid_validation():
    rho0 = DensityMatrix.pure(coherent_state(0.0, 8))
    with pytest.raises(ValueError):
        evolve(rho0, np.array([1.0, 2.0]), P_FREE)  # must start at 0
    with pytest.raises(ValueError):
        evolve(rho0, np.array([0.0, 2.0, 1.0]), P_FREE)
    with pytest.raises(ValueError):
        evolve(rho0, np.array([0.0, 1.0]), P_FREE,
               opts=IntegratorOptions(dt=0.0))


def test_unstable_step_raises():
    rho0 = DensityMatrix.pure(coherent_state(0.0, 16))
    with pytest.raises(IntegrationDivergedError):
        evolve(rho0, np.array([0.0, 5.0]), P_FREE,
               opts=IntegratorOptions(dt=1.0))


def test_non_finite_state_raises():
    rho0 = DensityMatrix.pure(coherent_state(0.0, 16))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationDivergedError,
                           match="state became non-finite by t=300"):
            evolve(rho0, np.array([0.0, 300.0]), P_FREE,
                   opts=IntegratorOptions(dt=3.0, renorm_every=0))


def test_top_level_population_warns():
    top = np.zeros(12, dtype=complex)
    top[-1] = 1.0
    rho0 = DensityMatrix.pure(top)
    with pytest.warns(TruncationWarning):
        evolve(rho0, np.array([0.0, 0.1]), P_FREE)


def test_renormalization_cadence_is_benign():
    dim = 40
    t = np.linspace(0.0, 3.0, 4)
    rho0 = DensityMatrix.pure(coherent_state(0.5, dim))
    n_every = evolve(rho0, t, P_FREE,
                     opts=IntegratorOptions(renorm_every=1)).mean_n
    n_never = evolve(rho0, t, P_FREE,
                     opts=IntegratorOptions(renorm_every=0)).mean_n
    assert np.max(np.abs(n_every - n_never)) < 1e-10


def test_steady_state_is_fixed_point():
    dim = 64
    ss = steady_state(P_FREE, dim)
    pops = np.diagonal(ss.matrix).real
    ratio = pops[1:] / pops[:-1]
    assert np.max(np.abs(ratio - 0.4 / 0.6)) < 1e-13
    resid = lindblad_rhs(ss.matrix, 0.0, P_FREE, DriveFn.none())
    assert np.max(np.abs(resid)) < 1e-9


def test_steady_state_without_gain_is_vacuum():
    ss = steady_state(LindbladParams(omega=1.0, mu=0.5, nu=0.0), 8)
    assert ss.matrix[0, 0] == 1.0
    assert np.count_nonzero(ss.matrix) == 1
