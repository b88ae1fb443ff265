"""Cross-oracle validation suite.

Each check computes one physical quantity along two independent routes
(closed form against the brute-force integrator, or two closed forms
derived through different constructions) and compares them at a stated
tolerance.  The ``validate`` subcommand prints one line per result and
the acceptance tests assert the same results, so the command line and
the test suite can never drift apart.

Randomized inputs draw from fixed seeds; repeated runs are identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import observables as obs
from .fock_core import (
    DensityMatrix,
    _phase_point,
    coherent_state,
    trace_distance,
)
from .freeform_solutions import efg, fujii_density, thermal_from_ground
from .gaussian_class import (
    GaussianState,
    entropy,
    entropy_infinity,
    gaussian_flow,
    husimi_value,
    limit_cycle_state,
    materialize,
    solve_u,
)
from .lindblad_engine import (
    DriveFn,
    IntegratorOptions,
    LindbladParams,
    evolve,
    lindblad_rhs,
    steady_state,
)
from .nonhermitian import NHParams, abc, nh_expectations

# Benchmark point used across the suite: moderate damping with a thermal
# floor (nbar = 2) and a near-resonant cosine drive.
BENCH = LindbladParams(omega=1.1, mu=0.6, nu=0.4, f0=1.4, Omega=1.095445)
BENCH_FREE = LindbladParams(omega=1.1, mu=0.6, nu=0.4)


@dataclass(frozen=True)
class CheckResult:
    key: str
    expected: str
    actual: str
    tolerance: str
    passed: bool

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return (f"{mark}  {self.key}: expected {self.expected}, "
                f"actual {self.actual}, tol {self.tolerance}")


def _bound(key: str, err: float, tol: float) -> CheckResult:
    return CheckResult(key=key, expected=f"deviation <= {tol:g}",
                       actual=f"{err:.3e}", tolerance=f"{tol:g}",
                       passed=bool(err <= tol))


def _vacuum(dim: int) -> DensityMatrix:
    return DensityMatrix.pure(coherent_state(0.0, dim))


def check_thermal_relaxation() -> list[CheckResult]:
    """Vacuum relaxation: integrator occupation against the closed curve
    n(t) = (nu/2 gamma)(1 - exp(-2 gamma t)), plus the truncated steady
    state against the exact asymptote nu/(2 gamma)."""
    p, dim = BENCH_FREE, 64
    t = np.linspace(0.0, 30.0, 61)
    traj = evolve(_vacuum(dim), t, p)
    n_inf = p.nbar
    closed = n_inf * -np.expm1(-2.0 * p.gamma * t)
    err = float(np.max(np.abs(traj.mean_n - closed)))
    ss = steady_state(p, dim)
    n_ss = float(np.dot(np.arange(dim), np.diagonal(ss.matrix).real))
    return [
        _bound("thermal-relaxation/occupation-curve", err, 1e-6),
        CheckResult("thermal-relaxation/asymptote", expected=f"{n_inf:g}",
                    actual=f"{n_ss:.12f}", tolerance="1e-08",
                    passed=bool(abs(n_ss - n_inf) <= 1e-8)),
    ]


def check_series_vs_integrator(seed: int = 20260816) -> list[CheckResult]:
    """Full-rank random mixed states propagated by the operator series and
    by RK4; trace distance compared at several times.  The random states
    carry a thermal-like envelope so their support fits the truncation."""
    p, dim, n_states = BENCH_FREE, 32, 20
    times = (0.5, 1.0, 2.0, 5.0)
    t_grid = np.array((0.0,) + times)
    rng = np.random.default_rng(seed)
    grades = np.arange(dim) / 2.0
    worst = 0.0
    for _ in range(n_states):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        env = rng.uniform(0.3, 0.5) ** grades
        m = env[:, None] * a
        rho0 = DensityMatrix.from_matrix(m @ m.conj().T)
        traj = evolve(rho0, t_grid, p,
                      opts=IntegratorOptions(snapshot_times=times))
        for ts in times:
            d = trace_distance(fujii_density(rho0, ts, p), traj.snapshots[ts])
            worst = max(worst, d)
    return [_bound("series-vs-integrator/trace-distance", worst, 1e-6)]


def check_riccati() -> list[CheckResult]:
    """Width parameter u(t) from the vacuum: logistic closed form against
    the series coefficient G(t), and both against a scalar RK4 oracle."""
    p, n_points = BENCH_FREE, 1000
    t = np.linspace(0.0, 50.0, n_points)
    u = solve_u(t, 0.0, p)
    _, _, g = efg(t, p)
    err_closed = float(np.max(np.abs(u - g)))

    def rhs(v: float) -> float:
        return p.nu - (p.mu + p.nu) * v + p.mu * v * v

    u_rk = np.empty(n_points)
    u_rk[0] = 0.0
    v = 0.0
    for i in range(1, n_points):
        span = float(t[i] - t[i - 1])
        n_sub = max(1, math.ceil(span / 1e-3))
        h = span / n_sub
        for _ in range(n_sub):
            k1 = rhs(v)
            k2 = rhs(v + 0.5 * h * k1)
            k3 = rhs(v + 0.5 * h * k2)
            k4 = rhs(v + h * k3)
            v += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        u_rk[i] = v
    err_rk = float(np.max(np.abs(u - u_rk)))
    return [
        _bound("riccati-consistency/closed-forms", err_closed, 1e-12),
        _bound("riccati-consistency/vs-rk4", err_rk, 1e-8),
    ]


def check_form_invariance(seed: int = 8016) -> list[CheckResult]:
    """The driven Gaussian flow, materialized over the Fock basis, must
    satisfy the master equation: central finite difference of rho(t)
    against the generator applied to rho(t), entrywise."""
    p, dim, n_states = BENCH, 48, 10
    drive = DriveFn.cosine()
    rng = np.random.default_rng(seed)
    t0, eps = 0.5, 1e-4
    worst = 0.0
    for _ in range(n_states):
        # u capped at 0.5: wider envelopes put real weight on the top
        # Fock levels, where the truncated generator misses the inflow
        # through the boundary and the comparison measures truncation
        # instead of the flow.
        u0 = rng.uniform(0.05, 0.5)
        al = rng.uniform(0.0, 1.5) * np.exp(2j * np.pi * rng.uniform())
        g0 = GaussianState.from_alpha(u0, complex(al))

        def dm(ts: float) -> np.ndarray:
            return materialize(gaussian_flow(g0, ts, p, drive), dim).matrix

        diff = (dm(t0 + eps) - dm(t0 - eps)) / (2.0 * eps)
        gen = lindblad_rhs(dm(t0), t0, p, drive)
        worst = max(worst, float(np.max(np.abs(diff - gen))))
    return [_bound("form-invariance/generator-match", worst, 1e-6)]


def check_limit_cycle_geometry() -> list[CheckResult]:
    """Asymptotic cycle: phase-space peak height 1 - nu/mu at every phase,
    the (x, p) centers on the stated ellipse, and exact period return of
    the Gaussian flow started on the cycle."""
    p = BENCH
    drive = DriveFn.cosine()
    period = 2.0 * math.pi / p.Omega
    target = 1.0 - p.nu / p.mu

    err_peak = 0.0
    for k in range(6):
        g = limit_cycle_state(k * period / 6.0, p, drive)
        err_peak = max(err_peak, abs(husimi_value(g.alpha, g) - target))

    lc = obs.quantum_lc(p, drive)
    err_ellipse = 0.0
    for ts in np.linspace(0.0, period, 100, endpoint=False):
        x, px = _phase_point(limit_cycle_state(ts, p, drive).alpha, p.omega)
        z = (px - p.gamma * x) / lc.Omega
        err_ellipse = max(err_ellipse, abs(z * z + x * x - lc.A_q ** 2))

    g0 = limit_cycle_state(0.0, p, drive)
    g1 = gaussian_flow(g0, period, p, drive)
    err_period = abs(g1.u - g0.u) + abs(g1.beta - g0.beta)
    return [
        _bound("limit-cycle-geometry/peak-height", err_peak, 1e-9),
        _bound("limit-cycle-geometry/ellipse", err_ellipse, 1e-9),
        _bound("limit-cycle-geometry/period-return", err_period, 1e-9),
    ]


def check_limit_cycle_occupation(seed: int = 4127) -> list[CheckResult]:
    """Cycle-averaged occupation: the quadrature form against the period
    mean of |alpha|^2, at the benchmark point, at exact resonance (where
    the value is pinned), and over random admissible parameters."""
    def alpha_route(q: LindbladParams) -> float:
        # nbar + |c+|^2 + |c-|^2 for alpha_lc = c+ e^{i Omega t} +
        # c- e^{-i Omega t}: the cross terms of |alpha_lc|^2 average out
        w, g, W, f0 = q.omega, q.gamma, q.Omega, q.f0
        cp, cm = 0.5 * f0 / (w + W - 1j * g), 0.5 * f0 / (w - W - 1j * g)
        return q.nbar + (abs(cp) ** 2 + abs(cm) ** 2)

    occ = obs.mean_n_limit_cycle(BENCH, DriveFn.cosine())
    r_bench = _bound("limit-cycle-occupation/cross-form",
                     abs(occ.nbar - alpha_route(BENCH)), 1e-10)

    p_res = replace(BENCH, Omega=obs.resonance_frequency(BENCH))
    occ_res = obs.mean_n_limit_cycle(p_res, DriveFn.cosine())
    r_pin = CheckResult("limit-cycle-occupation/resonant-pin",
                        expected="51", actual=f"{occ_res.nbar:.12f}",
                        tolerance="1e-09",
                        passed=bool(abs(occ_res.nbar - 51.0) <= 1e-9))

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        mu = rng.uniform(0.3, 1.0)
        nu = rng.uniform(0.0, 0.8 * mu)
        q = LindbladParams(omega=rng.uniform(0.6, 2.0), mu=mu, nu=nu,
                           f0=rng.uniform(0.1, 1.0),
                           Omega=rng.uniform(0.05, 2.5))
        o = obs.mean_n_limit_cycle(q, DriveFn.cosine())
        worst = max(worst, abs(o.nbar - alpha_route(q)))
    r_draws = _bound("limit-cycle-occupation/random-draws", worst, 1e-10)
    return [r_bench, r_pin, r_draws]


def check_entropy() -> list[CheckResult]:
    """Entropy along the relaxation: the closed asymptote against a direct
    spectral sum, monotonicity from both sides of the fixed point, and
    bitwise independence of u(t) from the drive."""
    p = BENCH_FREE
    u_inf = p.nu / p.mu
    s_cf = entropy_infinity(p)

    n = np.arange(2400)
    w = (1.0 - u_inf) * u_inf ** n
    w = w[w > 1e-300]
    s_oracle = float(-np.dot(w, np.log(w)))
    r_asym = CheckResult("entropy/asymptote", expected=f"{s_oracle:.12f}",
                         actual=f"{s_cf:.12f}", tolerance="1e-10",
                         passed=bool(abs(s_cf - s_oracle) <= 1e-10))
    r_forms = _bound("entropy/closed-forms", abs(entropy(u_inf) - s_cf), 1e-12)

    t = np.linspace(0.0, 40.0, 201)
    s_up = np.array([entropy(v) for v in solve_u(t, 0.1, p)])
    d_up = float(np.min(np.diff(s_up)))
    r_up = CheckResult("entropy/monotone-up", expected="nondecreasing",
                       actual=f"min step {d_up:.2e}", tolerance="-1e-13",
                       passed=bool(d_up >= -1e-13))
    s_dn = np.array([entropy(v) for v in solve_u(t, 0.95, p)])
    d_dn = float(np.max(np.diff(s_dn)))
    r_dn = CheckResult("entropy/monotone-down", expected="nonincreasing",
                       actual=f"max step {d_dn:.2e}", tolerance="1e-13",
                       passed=bool(d_dn <= 1e-13))

    du = float(np.max(np.abs(solve_u(t, 0.3, BENCH)
                             - solve_u(t, 0.3, replace(BENCH, f0=0.0)))))
    r_drive = CheckResult("entropy/drive-independent", expected="identical",
                          actual=f"max |du| = {du:g}", tolerance="0",
                          passed=bool(du == 0.0))
    return [r_asym, r_forms, r_up, r_dn, r_drive]


def check_resonance() -> list[CheckResult]:
    """Response curve: the scan's peak sits at sqrt(omega^2 - gamma^2)
    within one grid step, and the amplitude there matches
    ftilde0 / (2 gamma omega)."""
    p = BENCH
    lo, hi, samples = 0.5, 1.7, 400
    table = obs.resonance_scan(p, (lo, hi), samples)
    step = (hi - lo) / (samples - 1)
    k = int(np.argmax(table[:, 1]))
    w_res = obs.resonance_frequency(p)
    r_loc = CheckResult("resonance/peak-location", expected=f"{w_res:.9f}",
                        actual=f"{table[k, 0]:.9f}",
                        tolerance=f"{step:.4g} (grid step)",
                        passed=bool(abs(table[k, 0] - w_res) <= step))

    a_peak = obs.quantum_lc(replace(p, Omega=w_res), DriveFn.cosine()).A_q
    a_ident = obs.resonance_amplitude(p)
    r_amp = CheckResult("resonance/peak-amplitude", expected=f"{a_ident:.12f}",
                        actual=f"{a_peak:.12f}", tolerance="1e-10",
                        passed=bool(abs(a_peak - a_ident) <= 1e-10))
    return [r_loc, r_amp]


def check_nonhermitian() -> list[CheckResult]:
    """Pure-damping equivalence: conditional-evolution closed forms
    against the Lindblad closed forms, against the integrator, and the
    (A, B, C) coefficients against their defining ODEs."""
    dim = 64
    al0 = 0.9 + 0.4j
    cases = (
        (NHParams(omega=1.1, gamma=0.1, f0=0.4, Omega=1.0954451150103324),
         DriveFn.cosine()),
        (NHParams(omega=1.1, gamma=0.1), DriveFn.none()),
    )
    t = np.linspace(0.0, 20.0, 401)
    err_closed = 0.0
    for npar, drive in cases:
        lp = npar.to_lindblad()
        ex = nh_expectations(t, al0, npar)
        ref = obs.mean_a(t, al0, lp, drive)
        err_closed = max(err_closed, float(np.max(np.abs(ex.a - ref))),
                         float(np.max(np.abs(ex.n - np.abs(ref) ** 2))))

    t_g = np.linspace(0.0, 20.0, 41)
    rho0 = DensityMatrix.pure(coherent_state(al0, dim))
    err_num = 0.0
    for npar, drive in cases:
        traj = evolve(rho0, t_g, npar.to_lindblad(), drive)
        ex = nh_expectations(t_g, al0, npar)
        err_num = max(err_num, float(np.max(np.abs(traj.mean_a - ex.a))),
                      float(np.max(np.abs(traj.mean_n - ex.n))))

    npar = cases[0][0]
    tf = np.linspace(0.01, 19.99, 1500)
    eps = 1e-5
    a_p, b_p, c_p = abc(tf + eps, npar)
    a_m, b_m, c_m = abc(tf - eps, npar)
    _, _, c_0 = abc(tf, npar)
    f = npar.f0 * np.cos(npar.Omega * tf)
    wt = npar.omega_tilde
    r_b = np.abs((b_p - b_m) / (2 * eps) - 1j * f * np.exp(-1j * wt * tf))
    r_c = np.abs((c_p - c_m) / (2 * eps) + 1j * (wt * c_0 - f))
    r_a = np.abs((a_p - a_m) / (2 * eps) - 1j * f * c_0)
    err_ode = float(max(r_a.max(), r_b.max(), r_c.max()))
    return [
        _bound("nonhermitian-equivalence/closed-forms", err_closed, 1e-10),
        _bound("nonhermitian-equivalence/integrator", err_num, 1e-7),
        _bound("nonhermitian-equivalence/abc-ode", err_ode, 1e-7),
    ]


def check_integrator_order() -> list[CheckResult]:
    """Global convergence order of the stepper, estimated from vacuum
    relaxation against the exact thermalization matrix at two step sizes
    (4x refinement)."""
    p, dim = BENCH_FREE, 64
    times = (0.5, 1.0, 2.0, 4.0)
    t_grid = np.array((0.0,) + times)

    def run(h: float) -> float:
        traj = evolve(_vacuum(dim), t_grid, p,
                      opts=IntegratorOptions(dt=h, snapshot_times=times))
        worst = 0.0
        for ts in times:
            exact = thermal_from_ground(ts, p, dim).matrix
            worst = max(worst, float(np.max(np.abs(
                traj.snapshots[ts].matrix - exact))))
        return worst

    e1, e2 = run(0.02), run(0.005)
    order = math.log(e1 / e2) / math.log(4.0)
    return [CheckResult("integrator-order/observed-order", expected=">= 3.7",
                        actual=f"{order:.3f} (err {e1:.2e} -> {e2:.2e})",
                        tolerance="order >= 3.7",
                        passed=bool(order >= 3.7))]


ALL_CHECKS = (
    check_thermal_relaxation,
    check_series_vs_integrator,
    check_riccati,
    check_form_invariance,
    check_limit_cycle_geometry,
    check_limit_cycle_occupation,
    check_entropy,
    check_resonance,
    check_nonhermitian,
    check_integrator_order,
)

# Checks that consume randomness, with a fixed offset so one user seed
# still gives every check its own stream.
_SEED_OFFSET = {
    check_series_vs_integrator: 1,
    check_form_invariance: 2,
    check_limit_cycle_occupation: 3,
}


def run_all(seed: int | None = None) -> list[CheckResult]:
    """Run every check in order; returns the flat result list.

    ``seed`` overrides the built-in seeds of the randomized checks; the
    tolerances are properties of the construction, not of a lucky draw,
    so any seed is expected to pass.
    """
    results: list[CheckResult] = []
    for fn in ALL_CHECKS:
        if seed is not None and fn in _SEED_OFFSET:
            results.extend(fn(seed=seed + _SEED_OFFSET[fn]))
        else:
            results.extend(fn())
    return results
