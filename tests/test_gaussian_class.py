import math
import warnings

import numpy as np
import pytest

from lindosc.fock_core import (
    DensityMatrix,
    TruncationError,
    TruncationWarning,
    _phase_point,
    coherent_state,
    log_factorial,
    trace_distance,
)
from lindosc.gaussian_class import (
    GaussianState,
    _TAIL_CAP,
    _occupation,
    _population_tail,
    entropy,
    entropy_infinity,
    gaussian_flow,
    husimi_grid,
    husimi_value,
    limit_cycle_state,
    materialize,
    solve_u,
)
from lindosc.lindblad_engine import (
    DriveFn,
    IntegratorOptions,
    LindbladParams,
    evolve,
)
from lindosc.observables import limit_cycle_alpha

from conftest import expectation, ladder_ops

P = LindbladParams(omega=1.1, mu=0.6, nu=0.4)
P_DRIVEN = LindbladParams(omega=1.1, mu=0.6, nu=0.4, f0=1.4,
                          Omega=1.0954451150103324)


def test_state_validation_and_properties():
    with pytest.raises(ValueError):
        GaussianState(u=1.0, beta=0.0)
    with pytest.raises(ValueError):
        GaussianState(u=-0.01, beta=0.0)
    with pytest.raises(ValueError):
        GaussianState(u=0.2, beta=complex("nan"))
    with pytest.raises(ValueError):
        GaussianState.thermal(-0.5)

    g = GaussianState.from_alpha(0.25, 0.4 - 0.3j)
    assert g.b == 0.75
    assert g.beta == pytest.approx((0.4 - 0.3j) * 0.75, abs=1e-16)
    assert g.alpha == pytest.approx(0.4 - 0.3j, abs=1e-16)

    assert GaussianState.coherent(1.0).is_pure
    th = GaussianState.thermal(2.0)
    assert th.u == pytest.approx(2.0 / 3.0, abs=1e-16)
    assert th.beta == 0.0


def test_solve_u_pinned_and_fixed_point():
    p0 = LindbladParams(omega=1.1, mu=0.6, nu=0.0)
    assert solve_u(2.0, 0.5, p0) == pytest.approx(0.23147521650098238,
                                                  abs=1e-15)
    u_star = P.nu / P.mu
    out = solve_u(np.linspace(0.0, 50.0, 7), u_star, P)
    assert np.max(np.abs(out - u_star)) < 1e-15


def test_solve_u_satisfies_riccati():
    h = 1e-5
    for u0 in (0.0, 0.2, 0.9):
        for t in (0.5, 3.0):
            du = (solve_u(t + h, u0, P) - solve_u(t - h, u0, P)) / (2 * h)
            u = solve_u(t, u0, P)
            rhs = P.nu - 2.0 * P.gamma_prime * u + P.mu * u * u
            assert abs(du - rhs) < 1e-8


def test_solve_u_domain():
    with pytest.raises(ValueError):
        solve_u(1.0, 1.0, P)
    with pytest.raises(ValueError):
        solve_u(1.0, -0.1, P)
    with pytest.raises(ValueError):
        solve_u(-1.0, 0.5, P)


def test_gaussian_flow_matches_integrator():
    dim = 48
    g0 = GaussianState.from_alpha(0.3, 0.8)
    drive = DriveFn.cosine()
    t_end = 1.5
    traj = evolve(materialize(g0, dim), np.array([0.0, t_end]), P_DRIVEN,
                  drive=drive,
                  opts=IntegratorOptions(snapshot_times=(t_end,)))
    g1 = gaussian_flow(g0, t_end, P_DRIVEN, drive)
    assert trace_distance(traj.snapshots[t_end], materialize(g1, dim)) < 1e-6


def test_materialize_thermal_is_geometric():
    g = GaussianState.thermal(1.5)  # u = 0.6
    rho = materialize(g, 64)
    pops = np.diagonal(rho.matrix).real
    n = np.arange(64)
    want = 0.4 * 0.6 ** n
    assert np.max(np.abs(pops - want)) < 1e-12
    assert np.max(np.abs(rho.matrix - np.diag(pops))) == 0.0


def test_materialize_pure_is_projector():
    g = GaussianState.coherent(0.9 + 0.4j)
    rho = materialize(g, 32)
    psi = coherent_state(0.9 + 0.4j, 32)
    assert trace_distance(rho, DensityMatrix.pure(psi)) < 1e-14


def test_materialize_moments_cross_check():
    g = GaussianState.from_alpha(0.35, 0.6 - 0.4j)
    dim = 48
    rho = materialize(g, dim)
    a, _, nop = ladder_ops(dim)
    assert abs(expectation(a, rho) - g.alpha) < 1e-12
    assert abs(expectation(nop, rho).real - _occupation(g.u, g.alpha)) < 1e-12


def test_materialize_truncation_paths():
    with pytest.warns(TruncationWarning):
        materialize(GaussianState.thermal(4.0), 32)  # u = 0.8
    with pytest.raises(TruncationError):
        materialize(GaussianState.from_alpha(0.2, 3.0), 8)
    with pytest.raises(ValueError):
        materialize(GaussianState.thermal(1.0), 1)


@pytest.mark.parametrize("dim", [math.inf, math.nan])
def test_materialize_rejects_non_finite_dim(dim):
    with pytest.raises(ValueError, match="dim must be an integer"):
        materialize(GaussianState.thermal(1.0), dim)


def test_materialize_warns_on_displaced_tail():
    # resonant limit-cycle start: u^40 = 9.0e-8 but 1.6e-5 of the
    # population lies above level 39
    p = LindbladParams(omega=1.1, mu=0.6, nu=0.4, f0=0.3,
                       Omega=math.sqrt(1.2))
    g = limit_cycle_state(0.0, p, DriveFn.cosine())
    assert g.u ** 40 < 1e-7
    with pytest.warns(TruncationWarning, match="1.566e-05"):
        materialize(g, 40)


def _populations_by_sum(g, n_levels):
    # p_m = Z sum_n C(m, n) u^n |beta|^(2(m-n)) / (m-n)!: the diagonal of
    # M M+ in materialize, summed term by term
    lf = log_factorial(n_levels)
    b2 = abs(g.beta) ** 2
    Z = g.b * math.exp(-b2 / g.b)
    return np.array([Z * sum(math.exp(lf[m] - lf[n] - 2.0 * lf[m - n])
                             * g.u ** n * b2 ** (m - n)
                             for n in range(m + 1))
                     for m in range(n_levels)])


@pytest.mark.parametrize("g", [
    GaussianState.coherent(0.0), GaussianState.coherent(3.0),
    GaussianState.thermal(5.0), GaussianState.from_alpha(0.3, 1.2 + 0.7j),
    GaussianState.from_alpha(0.9, 3.0),
], ids=["vacuum", "coherent", "thermal", "displaced", "wide-displaced"])
def test_population_tail_matches_direct_sum(g):
    n, above = _population_tail(g, 10 ** 6, 1e-8)
    assert above is None
    tails = 1.0 - np.concatenate(([0.0], np.cumsum(_populations_by_sum(g, n))))
    assert tails[-1] <= 1e-8 and (n == 1 or tails[-2] > 1e-8)
    for dim in range(2, n):
        assert _population_tail(g, dim, 1e-8) == (n, pytest.approx(
            tails[dim], abs=1e-14))


def test_population_tail_wide_thermal():
    # geometric populations: the mass on the levels >= d is exactly u^d
    g = GaussianState.thermal(99.0)
    n, above = _population_tail(g, 64, 1e-8)
    assert above == pytest.approx(g.u ** 64, rel=1e-13)
    assert n == math.ceil(math.log(1e-8) / math.log(g.u))


def test_population_tail_walk_is_capped():
    # need ~ 1.8e10 levels: the walk stops at the cap and says so by
    # returning cap + 1, a lower bound
    g = GaussianState.thermal(1e9)
    n, above = _population_tail(g, 64, 1e-8)
    assert n == _TAIL_CAP + 1
    assert above == pytest.approx(g.u ** 64, rel=1e-9)


@pytest.mark.parametrize("g, dim", [
    (GaussianState.thermal(1e5), 64), (GaussianState.thermal(4.0), 32),
    (GaussianState.from_alpha(0.9, 3.0), 40),
    (GaussianState.from_alpha(0.3, 1.2 + 0.7j), 8),
])
def test_materialize_warning_needs_no_walk_past_dim(g, dim):
    # materialize reads the tail above its basis from 1 - tr(M M+), with
    # no walk at all, and gives the full walk's number; each of these
    # states needs more than dim + 1 levels
    n, above = _population_tail(g, dim, 1e-7)
    assert n > dim + 1
    with pytest.warns(TruncationWarning, match=f"population {above:.3e} "):
        materialize(g, dim)


def _warned_tail(g, dim):
    """The population materialize(g, dim) warns of, or None."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        materialize(g, dim)
    msgs = [str(w.message) for w in caught
            if issubclass(w.category, TruncationWarning)]
    assert len(msgs) <= 1
    return msgs[0].split()[1] if msgs else None


def test_materialize_tail_from_trace_matches_walk():
    # the trace identity against the Laguerre walk: the same warn/no-warn
    # decision and the same printed number on seeded states
    rng = np.random.default_rng(1717)
    outcomes = set()
    for _ in range(400):
        dim = int(rng.integers(2, 81))
        r = rng.uniform() * min(3.0, math.sqrt(dim) / 2.0)
        g = GaussianState.from_alpha(
            rng.uniform(0.01, 0.95), r * np.exp(2j * math.pi * rng.uniform()))
        above = _population_tail(g, dim, 1e-7)[1]
        expected = None if above is None else f"{above:.3e}"
        assert _warned_tail(g, dim) == expected, (g, dim)
        outcomes.add(expected is None)
    assert outcomes == {True, False}


def test_gaussian_expectations_formulas():
    # <n> and the (x, p) map of a Gaussian state, as read from (u, alpha)
    g = GaussianState.from_alpha(0.25, 1.2 - 0.7j)
    assert _occupation(g.u, g.alpha) == pytest.approx(
        0.25 / 0.75 + abs(g.alpha) ** 2, abs=1e-15)
    x, p = _phase_point(g.alpha, 1.1)
    assert x == pytest.approx(math.sqrt(2 / 1.1) * 1.2, abs=1e-15)
    assert p == pytest.approx(-math.sqrt(2 * 1.1) * 0.7, abs=1e-15)


def test_husimi_value_peak_and_falloff():
    g = GaussianState.from_alpha(0.4, 0.3 + 0.2j)
    assert husimi_value(g.alpha, g) == pytest.approx(g.b, abs=1e-16)
    assert husimi_value(g.alpha + 1.0, g) == pytest.approx(
        g.b * math.exp(-g.b), abs=1e-16)


def test_husimi_grid_orientation():
    g = GaussianState.from_alpha(0.4, 0.3 + 0.2j)
    omega = 1.1
    grid = husimi_grid(g, (-1.0, 2.0, -0.5, 1.5), (5, 7), omega)
    assert grid.values.shape == (5, 7)
    s = math.sqrt(2.0 * omega)
    for i, x in enumerate(grid.x_axis):
        for j, p in enumerate(grid.p_axis):
            pt = (omega * x + 1j * p) / s
            assert abs(grid.values[i, j] - husimi_value(pt, g)) < 1e-15
    square = husimi_grid(g, (-1.0, 1.0, -1.0, 1.0), (4, 4), omega)
    assert square.values.shape == (4, 4)


@pytest.mark.parametrize("u,alpha", [(0.0, 0.0), (0.4, 0.3 + 0.2j),
                                     (2.0 / 3.0, -1.7 + 2.4j)])
def test_husimi_grid_bitwise_equals_husimi_value(u, alpha):
    g = GaussianState.from_alpha(u, alpha)
    omega = 1.1
    grid = husimi_grid(g, (-4.0, 3.0, -2.5, 4.5), (41, 33), omega)
    # the points husimi_grid builds, each passed alone
    pts = (omega * grid.x_axis[:, None] + 1j * grid.p_axis[None, :]) \
        / math.sqrt(2.0 * omega)
    scalar = np.array([husimi_value(pt, g) for pt in pts.ravel()])
    assert grid.values.tobytes() == scalar.tobytes()


@pytest.mark.parametrize("window", [(0.0, math.inf, -1.0, 1.0),
                                    (-1.0, 1.0, -math.inf, 1.0),
                                    (-1.0, 1.0, -1.0, math.nan)])
def test_husimi_grid_rejects_non_finite_window(window):
    g = GaussianState.thermal(1.0)
    with pytest.raises(ValueError, match="window must be finite"):
        husimi_grid(g, window, (5, 5), 1.1)


def test_husimi_grid_validation():
    g = GaussianState.thermal(1.0)
    with pytest.raises(ValueError):
        husimi_grid(g, (1.0, -1.0, -1.0, 1.0), (5, 5), 1.1)
    with pytest.raises(ValueError):
        husimi_grid(g, (-1.0, 1.0, -1.0, 1.0), (5, 1), 1.1)


def test_limit_cycle_state():
    g = limit_cycle_state(0.7, P_DRIVEN, DriveFn.cosine())
    assert g.u == pytest.approx(0.4 / 0.6, abs=1e-15)
    assert g.alpha == pytest.approx(
        limit_cycle_alpha(0.7, P_DRIVEN, DriveFn.cosine()), abs=1e-15)
    # no active drive: the cycle is the thermal steady state
    g = limit_cycle_state(0.7, P_DRIVEN, DriveFn.none())
    assert (g.u, g.beta) == (0.4 / 0.6, 0j)


def test_entropy_values():
    assert entropy(0.0) == 0.0
    assert entropy(2.0 / 3.0) == pytest.approx(1.9095425048844383, abs=1e-15)
    with pytest.raises(ValueError):
        entropy(1.0)
    assert entropy_infinity(P) == pytest.approx(entropy(P.nu / P.mu),
                                                abs=1e-14)
    assert entropy_infinity(LindbladParams(omega=1.0, mu=0.5, nu=0.0)) == 0.0
