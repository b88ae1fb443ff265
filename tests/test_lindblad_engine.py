import math
import tracemalloc

import numpy as np
import pytest

from lindosc import gaussian_class, lindblad_engine
from lindosc.fock_core import (
    DensityMatrix,
    TruncationWarning,
    coherent_state,
)
from lindosc.lindblad_engine import (
    DriveFn,
    IntegrationDivergedError,
    IntegratorOptions,
    LindbladParams,
    _Workspace,
    default_dt,
    evolve,
    lindblad_rhs,
    steady_state,
)

from conftest import (
    SPECTRUM_TOL,
    enveloped_density,
    floored_spectrum,
    ladder_ops,
)

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

    def values(drive):
        return np.array([drive.value(s, p) for s in t.tolist()])

    assert np.all(values(DriveFn.none()) == 0)
    assert np.allclose(values(DriveFn.cosine()), 0.7 * np.cos(1.3 * t))
    fr = DriveFn.fourier((1, -1), (0.35 + 0j, 0.35 + 0j))
    # symmetric pair reproduces the cosine
    assert np.max(np.abs(values(fr) - values(DriveFn.cosine()))) < 1e-15
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
    with pytest.raises(ValueError, match="harmonics must be integers"):
        DriveFn.fourier((1.5, -0.9), (0.3, 0.1))  # int() would truncate
    with pytest.raises(ValueError, match="harmonics must be integers"):
        DriveFn.fourier((float("inf"),), (0.3,))
    assert DriveFn.fourier((1.0, -2.0), (0.3, 0.1)).harmonics == (1, -2)
    p0 = LindbladParams(omega=1.0, mu=0.5, nu=0.1, f0=1.0, Omega=0.0)
    with pytest.raises(ValueError):
        DriveFn.fourier((1,), (1.0,)).value(0.5, p0)  # needs Omega > 0


def test_drive_kind_validation():
    with pytest.raises(ValueError, match="unknown drive kind 'square'"):
        DriveFn(kind="square")


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
    # The truncated generator has zero trace on every input and keeps
    # Hermiticity, and RK4 keeps both, so only rounding moves them.
    dim = 40
    t = np.linspace(0.0, 5.0, 6)
    traj = evolve(DensityMatrix.pure(coherent_state(0.0, dim)), t, P_FREE)
    assert np.max(traj.trace_err) < 1e-12
    # An undriven vacuum steps the diagonal only; a driven coherent start
    # steps the whole stored half, here for 10^4 steps on resonance, and
    # the grouped drive keeps the state exactly Hermitian in value.
    p = LindbladParams(omega=1.1, mu=0.6, nu=0.4, f0=0.3,
                       Omega=math.sqrt(1.2))
    drive = DriveFn.cosine()
    ws = _Workspace(32, p)
    ws.load(DensityMatrix.pure(coherent_state(1.0, 32)).matrix)
    h = default_dt(p, drive)
    for j in range(10 ** 4):
        t0 = j * h
        ws.step(h, drive.value(t0, p), drive.value(t0 + 0.5 * h, p),
                drive.value(t0 + h, p))
    rho = ws.rho
    assert np.array_equal(rho, rho.conj().T)
    assert abs(rho.trace() - 1.0) <= 1e-12


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


def test_snapshot_times_sharing_a_grid_time_keep_their_keys():
    # both requested times match grid time 0.09999999999999999; each
    # keeps its own key, holding the state at that grid time
    t = np.linspace(0.0, 0.3, 4)
    asked = (0.1, 0.1 + 5e-13)
    rho0 = DensityMatrix.pure(coherent_state(0.3, 16))
    traj = evolve(rho0, t, P_FREE,
                  opts=IntegratorOptions(snapshot_times=asked))
    assert list(traj.snapshots) == list(asked)
    assert (traj.snapshots[asked[0]].matrix.tobytes()
            == traj.snapshots[asked[1]].matrix.tobytes())


def test_time_grid_validation():
    rho0 = DensityMatrix.pure(coherent_state(0.0, 8))
    with pytest.raises(ValueError):
        evolve(rho0, np.array([1.0, 2.0]), P_FREE)  # must start at 0
    with pytest.raises(ValueError):
        evolve(rho0, np.array([0.0, 2.0, 1.0]), P_FREE)
    with pytest.raises(ValueError):
        evolve(rho0, np.array([0.0, 1.0]), P_FREE,
               opts=IntegratorOptions(dt=0.0))
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        evolve(rho0, np.array([0.0, 1.0]), P_FREE,
               opts=IntegratorOptions(dt=math.inf))
    with pytest.raises(ValueError, match="t_grid must be finite"):
        evolve(rho0, np.array([0.0, math.inf]), P_FREE)


def test_uncountable_step_count_raises():
    # 1 / 5e-324 overflows to inf: a ValueError before any step, not an
    # OverflowError from the step count
    rho0 = DensityMatrix.pure(coherent_state(0.0, 12))
    with pytest.raises(ValueError, match="more steps than a float can count"):
        evolve(rho0, np.linspace(0.0, 1.0, 3), P_FREE,
               opts=IntegratorOptions(dt=5e-324))
    with pytest.raises(ValueError, match="more steps than a float can count"):
        evolve(rho0, np.array([0.0, 1e308]), P_FREE)
    # about 1.75e302 steps: finite, but above 2**53, where a float no
    # longer counts steps exactly
    with pytest.raises(ValueError, match="more steps than a float can count"):
        evolve(rho0, np.array([0.0, 1e300]), P_FREE)


def test_input_shapes():
    rho0 = DensityMatrix.pure(coherent_state(0.3, 16))
    t = np.array([0.0, 0.5])
    with pytest.raises(ValueError, match="nonempty 1-d"):
        evolve(rho0, t[None, :], P_FREE)
    with pytest.raises(ValueError, match="need dim >= 2"):
        lindblad_rhs(np.ones((1, 1)), 0.0, P_FREE)
    # a plain array runs as the DensityMatrix from_matrix makes of it
    m = 2.0 * rho0.matrix
    plain = evolve(m, t, P_FREE,
                   opts=IntegratorOptions(snapshot_times=(0.5,)))
    typed = evolve(DensityMatrix.from_matrix(m), t, P_FREE,
                   opts=IntegratorOptions(snapshot_times=(0.5,)))
    assert plain.snapshots[0.5].matrix.tobytes() \
        == typed.snapshots[0.5].matrix.tobytes()


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
                   opts=IntegratorOptions(dt=3.0))


def test_top_level_population_warns():
    top = np.zeros(12, dtype=complex)
    top[-1] = 1.0
    rho0 = DensityMatrix.pure(top)
    with pytest.warns(TruncationWarning):
        evolve(rho0, np.array([0.0, 0.1]), P_FREE)


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


class _AllocatingWorkspace:
    """The stepper's reference: the generator applied through plain
    allocating expressions, one fresh array per term."""

    def __init__(self, dim, params):
        m = np.arange(dim, dtype=np.float64)
        aad = np.concatenate((np.arange(1.0, dim), [0.0]))
        self.K = (
            -1j * params.omega * (m[:, None] - m[None, :])
            - 0.5 * params.mu * (m[:, None] + m[None, :])
            - 0.5 * params.nu * (aad[:, None] + aad[None, :])
        ).astype(np.complex128)
        w = np.sqrt(np.arange(1.0, dim))
        self.w = w
        self.wcol = w[:, None]
        self.muW2 = params.mu * np.outer(w, w)
        self.nuW2 = params.nu * np.outer(w, w)

    def apply(self, rho, f):
        out = self.K * rho
        out[:-1, :-1] += self.muW2 * rho[1:, 1:]
        out[1:, 1:] += self.nuW2 * rho[:-1, :-1]
        if f is not None:
            g = np.zeros_like(rho)
            g[1:, :] = self.wcol * rho[:-1, :]
            g[:, :-1] -= rho[:, 1:] * self.w
            g2 = np.zeros_like(rho)
            g2[:-1, :] = self.wcol * rho[1:, :]
            g2[:, 1:] -= rho[:, :-1] * self.w
            out += ((1j * np.conj(f)) * g + (1j * f) * g2)
        return out


def _intervals(t_grid, params, drive):
    """Per grid interval, the (h, f0, f_mid, f1) of each of its RK4
    substeps at the default step, as evolve takes them."""
    active = drive.is_active(params)

    def fval(t):
        return drive.value(t, params) if active else None

    dt = default_dt(params, drive)
    for t0, t1 in zip(t_grid.tolist(), t_grid[1:].tolist()):
        n_sub = max(1, math.ceil((t1 - t0) / dt - 1e-9))
        h = (t1 - t0) / n_sub
        yield [(h, fval(t), fval(t + 0.5 * h), fval(t + h))
               for t in (t0 + j * h for j in range(n_sub))]


def _rk4(apply, rho, h, f0, f_mid, f1):
    """rho after one allocating RK4 step."""
    k1 = apply(rho, f0)
    k2 = apply(rho + (0.5 * h) * k1, f_mid)
    k3 = apply(rho + (0.5 * h) * k2, f_mid)
    k4 = apply(rho + h * k3, f1)
    return rho + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _reference_states(rho0, t_grid, params, drive):
    """The state at every grid time from the allocating RK4 loop."""
    apply = _AllocatingWorkspace(rho0.shape[0], params).apply
    rho = rho0.copy()
    states = [rho.copy()]
    for steps in _intervals(t_grid, params, drive):
        for step in steps:
            rho = _rk4(apply, rho, *step)
        states.append(rho.copy())
    return states


@pytest.mark.parametrize("dim", [2, 33, 64])
def test_grouped_drive_keeps_the_reference_exactly_hermitian(dim, rng):
    # The stepper stores half the state, so the other half must be the
    # conjugate of the stored one in value. The reference adds the two
    # drive terms to each other before they meet out: for Hermitian rho
    # the second is the conjugate transpose of the first, and the sum
    # commutes. Added to out one after the other, they leave this state
    # off by max|rho - rho^+| = 1.6e-17 at dim 33 and 1.7e-18 at dim 64
    # after 300 steps (dim 2 stays exact either way).
    drive = BITWISE_DRIVES["fourier"]
    apply = _AllocatingWorkspace(dim, P_BITWISE).apply
    h = default_dt(P_BITWISE, drive)
    rho = enveloped_density(dim, rng).matrix.copy()
    assert np.array_equal(rho, rho.conj().T)
    for j in range(300):
        f = [drive.value((j + 0.5 * k) * h, P_BITWISE) for k in range(3)]
        rho = _rk4(apply, rho, h, *f)
        assert np.array_equal(rho, rho.conj().T)


@pytest.mark.parametrize("driven", [False, True])
def test_load_rejects_a_start_that_is_not_exactly_hermitian(driven, rng):
    # the stepper would drop the lower half of such a start silently
    m = enveloped_density(8, rng).matrix.copy()
    m[5, 2] = np.nextafter(m[5, 2].real, 1.0) + 1j * m[5, 2].imag
    ws = _Workspace(8, P_BITWISE, driven=driven)
    with pytest.raises(ValueError, match="exactly Hermitian"):
        ws.load(m)
    with pytest.raises(ValueError, match="exactly Hermitian"):
        evolve(DensityMatrix(matrix=m), np.array([0.0, 0.01]), P_BITWISE,
               BITWISE_DRIVES["cosine" if driven else "none"])


def _half(m):
    """The stepper's stored words of m: row k holds m[i, (i+k) % dim]."""
    dim = m.shape[0]
    k, i = np.divmod(np.arange((dim // 2 + 1) * dim), dim)
    return m[i, (i + k) % dim]


def _assert_stepper_bitwise(rho0, t_grid, params, drive, ref):
    """A stepper loaded with rho0 and stepped as evolve steps it holds,
    at every grid time, bitwise the stored words of the reference states
    ref, and a rebuilt state that differs from ref only in the sign of
    exact-zero parts of the unstored half (so +0.0 added to both sides
    makes them bytewise equal)."""
    ws = _Workspace(rho0.shape[0], params, driven=drive.is_active(params))
    ws.load(rho0)
    for i, steps in enumerate([[]] + list(_intervals(t_grid, params, drive))):
        for step in steps:
            ws.step(*step)
        assert ws._rho.tobytes() == _half(ref[i]).tobytes()
        assert (ws.rho + 0.0).tobytes() == (ref[i] + 0.0).tobytes()


P_BITWISE = LindbladParams(omega=1.1, mu=0.6, nu=0.4, f0=0.3, Omega=1.3)
BITWISE_DRIVES = {
    "none": DriveFn.none(),
    "cosine": DriveFn.cosine(),
    "fourier": DriveFn.fourier((1, -2, 3), (0.2 + 0.1j, 0.15 - 0.05j, -0.1j)),
}


def _bitwise_start(dim, rng):
    if dim == 256:  # a Fock tail that goes subnormal
        return DensityMatrix.pure(coherent_state(1.25, dim))
    return enveloped_density(dim, rng)


# at dim 2 the top two Fock levels are the whole basis
@pytest.mark.filterwarnings("ignore::lindosc.fock_core.TruncationWarning")
@pytest.mark.parametrize("drive", sorted(BITWISE_DRIVES))
@pytest.mark.parametrize("dim", [2, 33, 256])
def test_evolve_bitwise_equals_allocating_rk4(dim, drive, rng):
    drive = BITWISE_DRIVES[drive]
    rho0 = _bitwise_start(dim, rng)
    # 4 + 5 substeps at the default step
    t = np.array([0.0, 0.02, 0.045])
    traj = evolve(rho0, t, P_BITWISE, drive,
                  IntegratorOptions(snapshot_times=tuple(t)))
    ref = _reference_states(rho0.matrix, t, P_BITWISE, drive)
    _assert_run_bitwise(traj, t, ref)
    _assert_stepper_bitwise(rho0.matrix, t, P_BITWISE, drive, ref)
    # The steps above take two values of h one ulp apart; these intervals
    # take h = 0.005, 0.005, 0.0055 and 0.005, so the step's scalars must
    # be written on every step, not once.
    t = np.array([0.0, 0.02, 0.045, 0.1, 0.13])
    ref = _reference_states(rho0.matrix, t, P_BITWISE, drive)
    _assert_stepper_bitwise(rho0.matrix, t, P_BITWISE, drive, ref)


def _assert_run_bitwise(traj, t, ref):
    """Every snapshot and record of traj is bitwise that of the reference
    states ref at the grid times t."""
    dim = ref[0].shape[0]
    w = np.sqrt(np.arange(1.0, dim))
    for i, rho in enumerate(ref):
        snap = DensityMatrix.from_matrix(rho, positivity_tol=1e-6)
        assert traj.snapshots[t[i]].matrix.tobytes() == snap.matrix.tobytes()
        assert traj.mean_a[i].tobytes() == np.sum(
            w * np.diagonal(rho, -1)).tobytes()
        assert traj.purity[i].tobytes() == np.sum(np.abs(rho) ** 2).tobytes()
        assert traj.mean_n[i].tobytes() == np.dot(
            np.arange(dim, dtype=float), np.diagonal(rho).real).tobytes()
        assert traj.trace_err[i].tobytes() == np.float64(
            abs(complex(rho.trace()) - 1.0)).tobytes()
        # the records read the floored spectrum of (rho + rho^+)/2
        eigs = floored_spectrum((rho + rho.conj().T) / 2.0)
        assert traj.min_eig[i].tobytes() == eigs[0].tobytes()
        pos = eigs[eigs > 1e-300]
        assert traj.entropy[i].tobytes() == (
            -np.dot(pos, np.log(pos)) + 0.0).tobytes()


# The benchmark's two driven starts at dim 256, where the floor leaves
# LAPACK 55 and 70 of the 256 levels: each record's entropy and minimum
# eigenvalue against LAPACK on the whole record matrix (a snapshot, which
# differs from it by the rounding of one division by its trace).
@pytest.mark.parametrize("kind", ["coherent", "gaussian"])
def test_record_spectrum_matches_raw_eigvalsh_at_dim_256(kind):
    p = LindbladParams(omega=1.1, mu=0.6, nu=0.2, f0=0.4,
                       Omega=1.0954451150103324)
    alpha = 1.25 * np.exp(0.7j)
    rho0 = (DensityMatrix.pure(coherent_state(alpha, 256))
            if kind == "coherent" else gaussian_class.materialize(
                gaussian_class.GaussianState.from_alpha(0.2, alpha), 256))
    t = np.linspace(0.0, 0.02, 5)
    traj = evolve(rho0, t, p, DriveFn.cosine(),
                  IntegratorOptions(snapshot_times=tuple(t)))
    for i, ti in enumerate(t):
        raw = np.linalg.eigvalsh(traj.snapshots[ti].matrix)
        pos = raw[raw > 1e-300]
        assert abs(traj.min_eig[i] - raw[0]) < SPECTRUM_TOL
        assert abs(traj.entropy[i] + np.dot(pos, np.log(pos))) < SPECTRUM_TOL


def _diagonal_start(dim, kind, rng):
    if kind == "vacuum":
        return DensityMatrix.pure(coherent_state(0.0, dim))
    if kind == "steady_state":
        return steady_state(P_BITWISE, dim)
    p = rng.uniform(size=dim) * 0.4 ** np.arange(dim)
    return DensityMatrix.from_matrix(np.diag(p).astype(np.complex128))


# Undriven from a Fock-diagonal start, evolve steps the diagonals only.
# 4 + 5 substeps, then n_last more in the last grid interval.
@pytest.mark.filterwarnings("ignore::lindosc.fock_core.TruncationWarning")
@pytest.mark.parametrize("n_last", [3, 100])
@pytest.mark.parametrize("start", ["vacuum", "steady_state", "random"])
@pytest.mark.parametrize("dim", [2, 3, 33, 256])
def test_diagonal_evolve_bitwise_equals_allocating_rk4(dim, start, n_last,
                                                       rng):
    rho0 = _diagonal_start(dim, start, rng)
    t = np.array([0.0, 0.02, 0.045, 0.045 + n_last * default_dt(P_BITWISE)])
    drive = DriveFn.none()
    traj = evolve(rho0, t, P_BITWISE, drive,
                  IntegratorOptions(snapshot_times=tuple(t)))
    ref = _reference_states(rho0.matrix, t, P_BITWISE, drive)
    _assert_run_bitwise(traj, t, ref)
    _assert_stepper_bitwise(rho0.matrix, t, P_BITWISE, drive, ref)


@pytest.mark.filterwarnings("ignore::lindosc.fock_core.TruncationWarning")
@pytest.mark.parametrize("word", ["imag -0.0", "real 1e-300"])
@pytest.mark.parametrize("dim", [3, 33])
def test_one_off_diagonal_word_keeps_the_full_step(dim, word, rng):
    # The start check reads bits: -0.0 == 0, yet the full step turns it
    # into +0.0, and it decays a 1e-300 entry that a check on magnitudes
    # might drop. Either word sits in row 1 of the stored half (rho[1, 2]
    # and rho[0, 1]), its conjugate in the unstored half, so the undriven
    # step covers rows 0 and 1.
    m = _diagonal_start(dim, "random", rng).matrix.copy()
    if word == "imag -0.0":
        m[1, 2] = complex(0.0, -0.0)
    else:
        m[0, 1] = m[1, 0] = 1e-300
    drive = DriveFn.none()
    t = np.array([0.0, 0.02, 0.045])
    ws = _Workspace(dim, P_BITWISE, driven=False)
    ws.load(m)
    assert ws._stage[0].size == 2 * dim
    ref = _reference_states(m, t, P_BITWISE, drive)
    _assert_stepper_bitwise(m, t, P_BITWISE, drive, ref)
    traj = evolve(DensityMatrix(matrix=m), t, P_BITWISE, drive,
                  IntegratorOptions(snapshot_times=tuple(t)))
    _assert_run_bitwise(traj, t, ref)


@pytest.mark.filterwarnings("ignore::lindosc.fock_core.TruncationWarning")
@pytest.mark.parametrize("dim", [3, 64, 256])
def test_diagonal_step_binds_the_diagonals_and_does_not_allocate(
        dim, monkeypatch):
    # evolve loads its start through _Workspace.load, which binds an
    # undriven stepper to the rows up to the last nonzero one, here the
    # diagonal (row 0); a driven one steps the whole stored half
    loaded = []
    load = _Workspace.load

    def spy(ws, m):
        load(ws, m)
        loaded.append(ws._stage[0].size)

    monkeypatch.setattr(_Workspace, "load", spy)
    evolve(steady_state(P_BITWISE, dim), np.array([0.0, 0.01]), P_BITWISE,
           DriveFn.cosine())
    evolve(steady_state(P_BITWISE, dim), np.array([0.0, 0.01]), P_BITWISE)
    half = (dim // 2 + 1) * dim
    assert loaded == [half, dim]
    monkeypatch.undo()
    start = steady_state(P_BITWISE, dim).matrix
    driven = _Workspace(dim, P_BITWISE, driven=True)
    driven.load(start)
    assert driven._stage[0].size == driven._rho.size == half
    ws = _Workspace(dim, P_BITWISE, driven=False)
    ws.load(start)
    assert ws.rho.shape == (dim, dim)
    assert ws.rho.tobytes() == start.tobytes()
    # no halo call; every ufunc operand a contiguous view (the 0-d ones
    # are the step's scalars), no view longer than the diagonal
    assert all(fn is not np.conjugate for fn, _ in ws._calls)
    views = _call_views(ws._calls)
    assert max(v.size for v in views) == dim
    assert all(v.base is not None for v in views)
    assert all(v.strides in ((), (16,))
               for fn, args in ws._calls if isinstance(fn, np.ufunc)
               for v in args if isinstance(v, np.ndarray))
    h = default_dt(P_BITWISE)
    ws.step(h, None, None, None)
    tracemalloc.start()
    try:
        ws.step(h, None, None, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024


def _call_views(calls):
    """Every array a bound call reads or writes: its arguments and, for a
    fill, the array whose method it is."""
    return [v for fn, args in calls
            for v in (getattr(fn, "__self__", None), *args)
            if isinstance(v, np.ndarray)]


@pytest.mark.parametrize("rows", [None, 2])
@pytest.mark.parametrize("driven", [False, True])
def test_stage_bindings_alias_the_stepper_buffers(driven, rows, rng,
                                                  monkeypatch):
    # A band or input copied when load binds the stages would keep every
    # bit of a step, so no bitwise test would see it: every bound view
    # lies in exactly one of the stepper's own buffers, each stage's
    # inputs in its half of _xy and its outputs in its own slope buffer.
    # Empty views (the wrap slots of a block that has none) hold no bytes.
    dim = 33
    if rows is not None:   # blocks of two rows, a ragged last block
        monkeypatch.setattr(lindblad_engine, "_BLOCK_ENTRIES", rows * dim)
    ws = _Workspace(dim, P_BITWISE, driven=driven)
    ws.load(enveloped_density(dim, rng).matrix)
    assert len(ws._blocks) == (1 if rows is None else 9)
    ext = ws._xy.size // 2
    x, y = ws._xy[:ext], ws._xy[ext:]
    slopes = [ws._k1, ws._k2, ws._k3]
    buffers = [x, y, *slopes, ws._s, ws.K, ws.muW2, ws.nuW2, ws._h]
    if driven:
        buffers += [ws._g, ws._g2, ws.wr, ws.wt]
    for v in _call_views(ws._calls):
        if v.size:
            assert sum(np.shares_memory(v, b) for b in buffers) == 1
    # no call converts an operand: every ufunc argument is a complex128
    # array (the step's scalars are 0-d views of _h), and every fill writes a
    # complex128 value into a complex128 array
    for fn, args in ws._calls:
        if isinstance(fn, np.ufunc):
            assert all(isinstance(v, np.ndarray) and v.dtype == np.complex128
                       for v in args)
        else:
            assert fn.__name__ == "fill" and len(args) == 1
            assert fn.__self__.dtype == np.complex128
            assert type(args[0]) is np.complex128
    # a driven stepper copies the end value's coefficients over the
    # midpoint's before stage 4, one np.positive call within _h
    calls = list(ws._calls)
    n = (len(calls) - 12 - driven) // 4
    copy = calls[3 * n + 9:3 * n + 9 + driven]
    del calls[3 * n + 9:3 * n + 9 + driven]
    assert len(copy) == driven
    for fn, (src, dst) in copy:
        assert fn is np.positive
        assert src.shape == dst.shape == (2,)
        assert src.ctypes.data == ws._h[8:].ctypes.data
        assert dst.ctypes.data == ws._h[6:].ctypes.data
    # the four stages of n calls each, and between them the 12 calls of
    # the RK4 combination, which read only the state, the slopes and _h
    cuts = (0, n, n + 2, 2 * n + 2, 2 * n + 4, 3 * n + 4, 3 * n + 9,
            4 * n + 9, 4 * n + 12)
    stages = [calls[a:b] for a, b in zip(cuts[::2], cuts[1::2])]
    combination = [c for a, b in zip(cuts[1::2], cuts[2::2])
                   for c in calls[a:b]]
    assert len(calls) == cuts[-1] and len(combination) == 12
    for v in _call_views(combination):
        assert any(np.shares_memory(v, b) for b in (ws._xy, *slopes, ws._h))
    # stage 4 reruns stage 3's call objects: L[y] into k3, bound once
    assert len(stages[3]) == len(stages[2]) == n
    assert all(c4 is c3 for c4, c3 in zip(stages[3], stages[2]))
    for stage, src, slope in zip(stages, (x, y, y, y), slopes + [ws._k3]):
        assert any(fn is np.conjugate for fn, _ in stage) == driven
        views = [v for v in _call_views(stage) if v.size]
        ins = [v for v in views if np.shares_memory(v, ws._xy)]
        outs = [v for v in views
                if any(np.shares_memory(v, k) for k in slopes)]
        assert ins and outs
        assert all(np.shares_memory(v, src) for v in ins)
        assert all(np.shares_memory(v, slope) for v in outs)


def test_vacuum_entropy_follows_the_gaussian_width():
    # vacuum relaxes through thermal states of width u(t) from u(0) = 0
    p = LindbladParams(omega=1.1, mu=0.6, nu=0.4)
    t = np.linspace(0.0, 30.0, 61)
    traj = evolve(DensityMatrix.pure(coherent_state(0.0, 64)), t, p)
    closed = [gaussian_class.entropy(u) for u in gaussian_class.solve_u(t, 0.0, p)]
    assert np.max(np.abs(traj.entropy - closed)) < 1e-8


@pytest.mark.parametrize("drive", sorted(BITWISE_DRIVES))
@pytest.mark.parametrize("dim", [2, 33, 256])
def test_rhs_bitwise_equals_allocating_apply(dim, drive, rng):
    drive = BITWISE_DRIVES[drive]
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    f = (drive.value(0.37, P_BITWISE) if drive.is_active(P_BITWISE)
         else None)
    ref = _AllocatingWorkspace(dim, P_BITWISE).apply(m, f)
    assert lindblad_rhs(m, 0.37, P_BITWISE, drive).tobytes() == ref.tobytes()


def _signed_zeros(shape, rng):
    z = np.empty(shape, dtype=np.complex128)
    z.real = np.copysign(0.0, rng.normal(size=shape))
    z.imag = np.copysign(0.0, rng.normal(size=shape))
    return z


@pytest.mark.parametrize("drive", sorted(BITWISE_DRIVES))
@pytest.mark.parametrize("dim", [2, 3, 5, 33])
def test_rhs_wrap_slots_keep_signed_zeros(dim, drive, rng):
    # The band products skip the first or last row and column, where an
    # entry keeps K rho or the drive's +0 fill plus fewer terms; only a
    # zero entry shows whether its sign is right.
    drive = BITWISE_DRIVES[drive]
    ref = _AllocatingWorkspace(dim, P_BITWISE)
    for draw in range(200):
        if draw % 2:
            m = _signed_zeros((dim, dim), rng)
        else:  # zeros where the first and last columns meet the row ends
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m[:, [0, -1]] = _signed_zeros((dim, 2), rng)
        t = rng.uniform(0.0, 10.0)
        f = (drive.value(t, P_BITWISE) if drive.is_active(P_BITWISE)
             else None)
        assert (lindblad_rhs(m, t, P_BITWISE, drive).tobytes()
                == ref.apply(m, f).tobytes())


@pytest.mark.parametrize("rows", [1, 2, None])
@pytest.mark.parametrize("drive", sorted(BITWISE_DRIVES))
@pytest.mark.parametrize("dim", [3, 4, 5, 33])
def test_stepper_wrap_slots_keep_signed_zeros(dim, drive, rows, rng,
                                              monkeypatch):
    # The half layout's runs also hit row ends and junctions, and the
    # drive reads the halo rows; only a zero entry shows whether a wrap
    # slot holds the right identity. The start's lower triangle is the
    # conjugate of its upper one bit for bit, so the halo rows hold the
    # reference's words, and one evaluation of L must match bitwise on
    # the rows that the step evaluates (undriven, rows 0..kmax).
    if rows is not None:   # blocks of rows rows, a ragged last block
        monkeypatch.setattr(lindblad_engine, "_BLOCK_ENTRIES", rows * dim)
    drive = BITWISE_DRIVES[drive]
    active = drive.is_active(P_BITWISE)
    apply = _AllocatingWorkspace(dim, P_BITWISE).apply
    iu = np.triu_indices(dim, 1)
    for draw in range(60):
        if draw % 2:
            m = _signed_zeros((dim, dim), rng)
        else:  # zeros in the first and last columns and at random
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m[:, [0, -1]] = _signed_zeros((dim, 2), rng)
            m[rng.uniform(size=(dim, dim)) < 0.3] = 0.0
            m = np.where(rng.uniform(size=(dim, dim)) < 0.5, m, -m)
        m.imag[np.diag_indices(dim)] = _signed_zeros(dim, rng).imag
        m.T[iu] = m[iu].conj()
        f = drive.value(rng.uniform(0.0, 10.0), P_BITWISE) if active else None
        ws = _Workspace(dim, P_BITWISE, driven=active)
        ws.load(m)
        if active:
            ws._h[4], ws._h[5] = 1j * np.conj(f), 1j * f
        ext = ws._xy.size // 2
        for fn, args in ws._bind(ws._xy[:ext], ws._k1, 0):   # k1 = L[rho]
            fn(*args)
        n = ws._stage[0].size
        assert ws._k1[:n].tobytes() == _half(apply(m, f))[:n].tobytes()


@pytest.mark.parametrize("drive", sorted(BITWISE_DRIVES))
def test_rhs_copies_any_input_layout(drive, rng):
    # a transposed, read-only or real input reads as its complex C copy
    drive = BITWISE_DRIVES[drive]
    base = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    frozen = base.copy()
    frozen.flags.writeable = False
    assert not base.T.flags.c_contiguous
    for m in (base.T, frozen, base.real):
        want = lindblad_rhs(np.array(m, dtype=np.complex128, order="C"),
                            0.37, P_BITWISE, drive)
        assert lindblad_rhs(m, 0.37, P_BITWISE, drive).tobytes() \
            == want.tobytes()


@pytest.mark.parametrize("dim", [64, 256])
def test_undriven_step_does_not_allocate(dim, rng):
    # The bands are complex, so no band product goes through a cast
    # buffer, and every view is bound when the stepper is built. Driven
    # steps are pinned by test_driven_step_does_not_allocate.
    ws = _Workspace(dim, P_BITWISE, driven=False)
    ws.load(enveloped_density(dim, rng).matrix)
    h = default_dt(P_BITWISE)
    ws.step(h, None, None, None)
    tracemalloc.start()
    try:
        ws.step(h, None, None, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024


@pytest.mark.parametrize("drive", ["cosine", "fourier"])
@pytest.mark.parametrize("dim", [64, 256])
def test_driven_step_does_not_allocate(dim, drive, rng):
    # a+ rho and a rho are flat runs on the row band wr, like every other
    # band product, so no operand broadcasts through an iterator buffer
    drive = BITWISE_DRIVES[drive]
    ws = _Workspace(dim, P_BITWISE)
    ws.load(enveloped_density(dim, rng).matrix)
    h = default_dt(P_BITWISE, drive)
    f = [drive.value(0.5 * k * h, P_BITWISE) for k in range(5)]
    ws.step(h, *f[:3])
    tracemalloc.start()
    try:
        ws.step(h, *f[2:])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024


@pytest.mark.parametrize("driven", [False, True])
def test_stepper_holds_one_block_of_scratch(driven):
    # K, muW2, nuW2, the five stage buffers and, driven, wt and wr hold
    # the stored half (dim//2 + 1 rows) and the gather index of ``rho``
    # dim*dim int64 words; the scratch and the two drive buffers hold one
    # row block each. At dim 256 the peak reads 5,299,993 B undriven and
    # 6,884,017 B driven, within the bound of 7 or 9 dim*dim arrays and
    # one or two blocks.
    dim = 256
    block = 16 * (lindblad_engine._BLOCK_ENTRIES // dim) * dim
    tracemalloc.start()
    try:
        _Workspace(dim, P_BITWISE, driven=driven)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays, blocks = (9, 2) if driven else (7, 1)
    assert peak < arrays * 16 * dim * dim + blocks * block + 64 * 1024


@pytest.mark.parametrize("drive", sorted(BITWISE_DRIVES))
def test_rhs_allocates_only_the_generator(drive, rng):
    # One evaluation holds its output, the real band W2 and mu or nu
    # times it (half an array each) and that band's product with the
    # input, plus g, g2 and the products of the drive sum when driven: no
    # copy of a C-contiguous complex input and none of the stepper's
    # buffers. At dim 256 the peak reads 3,394,480 B undriven and
    # 5,766,120 B under the cosine drive, within the bound of 5 and 7
    # arrays.
    dim = 256
    drive = BITWISE_DRIVES[drive]
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    arrays = 7 if drive.is_active(P_BITWISE) else 5
    tracemalloc.start()
    try:
        lindblad_rhs(m, 0.37, P_BITWISE, drive)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < arrays * 16 * dim * dim + 256 * 1024


@pytest.mark.filterwarnings("ignore::lindosc.fock_core.TruncationWarning")
@pytest.mark.parametrize("drive", sorted(BITWISE_DRIVES))
@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("dim", [5, 16, 33])
def test_blocked_apply_bitwise_equals_allocating_rk4(dim, rows, drive, rng,
                                                      monkeypatch):
    # Blocks of 1-3 rows, most with a ragged last block, put every block
    # boundary, partial band run and wrap slot at a dim the suite runs
    # fast; by default only dims above 128 get more than one block.
    def blocks(n):   # over all n // 2 + 1 stored rows
        ws = _Workspace(n, P_BITWISE)
        ws.load(np.full((n, n), 1.0 / n))
        return len(ws._blocks)

    assert blocks(128) == 1
    assert blocks(256) > 1
    monkeypatch.setattr(lindblad_engine, "_BLOCK_ENTRIES", rows * dim)
    assert blocks(dim) == -(-(dim // 2 + 1) // rows)
    drive = BITWISE_DRIVES[drive]
    rho0 = _bitwise_start(dim, rng)
    t = np.array([0.0, 0.02, 0.045])
    traj = evolve(rho0, t, P_BITWISE, drive,
                  IntegratorOptions(snapshot_times=tuple(t)))
    ref = _reference_states(rho0.matrix, t, P_BITWISE, drive)
    for ti, rho in zip(t, ref):
        snap = DensityMatrix.from_matrix(rho, positivity_tol=1e-6)
        assert traj.snapshots[ti].matrix.tobytes() == snap.matrix.tobytes()
    _assert_stepper_bitwise(rho0.matrix, t, P_BITWISE, drive, ref)
    apply = _AllocatingWorkspace(dim, P_BITWISE).apply
    for draw in range(20):   # the inputs of the wrap-slot test above
        if draw % 2:
            m = _signed_zeros((dim, dim), rng)
        else:
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m[:, [0, -1]] = _signed_zeros((dim, 2), rng)
        t = rng.uniform(0.0, 10.0)
        f = (drive.value(t, P_BITWISE) if drive.is_active(P_BITWISE)
             else None)
        assert (lindblad_rhs(m, t, P_BITWISE, drive).tobytes()
                == apply(m, f).tobytes())


def test_evolve_state_buffer_does_not_alias(rng):
    # a snapshot must not follow the run on, and rho0 must not be stepped
    m0 = enveloped_density(24, rng).matrix.copy()
    before = m0.tobytes()
    rho0 = DensityMatrix(matrix=m0)  # writable on purpose
    t = np.linspace(0.0, 0.6, 4)
    opts = IntegratorOptions(snapshot_times=(t[2],))
    full = evolve(rho0, t, P_BITWISE, DriveFn.cosine(), opts)
    short = evolve(rho0, t[:3], P_BITWISE, DriveFn.cosine(), opts)
    assert (full.snapshots[t[2]].matrix.tobytes()
            == short.snapshots[t[2]].matrix.tobytes())
    assert m0.tobytes() == before


@pytest.mark.parametrize("drive", sorted(BITWISE_DRIVES))
def test_rho_reads_are_fresh_writable_copies(drive, rng):
    # a caller may write the matrix a read returns; that must move
    # neither a later read nor the state the next step starts from
    drive = BITWISE_DRIVES[drive]
    start = enveloped_density(33, rng).matrix
    ws, ref = (_Workspace(33, P_BITWISE, driven=drive.is_active(P_BITWISE))
               for _ in range(2))
    ws.load(start)
    ref.load(start)
    first, second = ws.rho, ws.rho
    assert first.flags.writeable and second.flags.writeable
    assert not np.shares_memory(first, second)
    first.fill(np.nan)
    assert ws.rho.tobytes() == second.tobytes() == ref.rho.tobytes()
    (steps,) = _intervals(np.array([0.0, 0.01]), P_BITWISE, drive)
    for step in steps:
        ws.rho.fill(np.nan)
        ws.step(*step)
        ref.step(*step)
    assert ws.rho.tobytes() == ref.rho.tobytes()
