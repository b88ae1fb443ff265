"""The four benchmark workloads, their seeded inputs and correctness gates.

Every workload is a list of operations.  An operation's ``run`` is the
timed call into lindosc; its ``check`` runs afterwards, untimed, and
returns the list of gate failures (empty when the output is correct).
Inputs are drawn from the benchmark seed only; the program sees nothing
but the generated config files and arrays.

Why each workload exists, and which layers it stresses, is written down
in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import warnings
from dataclasses import dataclass

import numpy as np

OMEGA = 1.1
OMEGA_DRIVE = 1.0954451150103324
ALPHA0_ABS = 1.25      # |alpha0| of both evolve starts
GAUSS_U0 = 0.2         # width parameter of the Gaussian evolve start
# Distinct seeded inputs per run.  A run cycles through them in whole
# cycles, so each weighs the same in every run.
N_EVOLVE = 2           # one coherent and one Gaussian start
N_VALIDATE = 1         # validate costs the same for every [run] seed
N_POINTS = 4           # closed-forms parameter points


@dataclass(frozen=True)
class Sizes:
    dim: int
    sparse_t_max: float
    sparse_n_times: int
    dense_n_times: int
    dense_spacing: float
    husimi_resolution: int
    scan_samples: int
    mean_n_horizon: float
    series_dim: int
    materialize_dim: int


FULL = Sizes(dim=256, sparse_t_max=0.5, sparse_n_times=5, dense_n_times=31,
             dense_spacing=0.005, husimi_resolution=201, scan_samples=4000,
             mean_n_horizon=40.0, series_dim=64, materialize_dim=96)
SMOKE = Sizes(dim=32, sparse_t_max=0.1, sparse_n_times=3, dense_n_times=5,
              dense_spacing=0.005, husimi_resolution=21, scan_samples=400,
              mean_n_horizon=4.0, series_dim=32, materialize_dim=16)


def _ini(sections: dict) -> str:
    out = []
    for sec, kv in sections.items():
        out.append(f"[{sec}]")
        out.extend(f"{k} = {v}" for k, v in kv.items())
        out.append("")
    return "\n".join(out)


def _fresh_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f))
               for f in os.listdir(path)) if os.path.isdir(path) else 0


def _cli(lo, argv):
    """Run the command line entry point in-process; stdout is captured so
    the benchmark's own last line stays the result."""
    buf = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(buf):
        warnings.simplefilter("always")
        rc = lo.cli.main(argv)
    return rc, buf.getvalue(), [w.category.__name__ for w in caught]


class Op:
    """One timed call; ``out_dir`` holds the files a CLI call writes."""

    def __init__(self, lo, out_dir: str):
        self.lo = lo
        self.out_dir = out_dir

    def prepare(self) -> None:
        _fresh_dir(self.out_dir)

    def run(self):
        raise NotImplementedError

    def check(self, result) -> list[str]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# evolve-sparse / evolve-dense


class EvolveOp(Op):
    def __init__(self, lo, out_dir, config, n_times):
        super().__init__(lo, out_dir)
        self.config = config
        self.n_times = n_times

    def run(self):
        return _cli(self.lo, ["evolve", "--config", self.config,
                              "--out", self.out_dir, "--quiet"])

    def check(self, result):
        rc, _, caught = result
        errs = []
        if rc != 0:
            errs.append(f"evolve exit code {rc}")
        if "TruncationWarning" in caught:
            errs.append("evolve raised TruncationWarning")
        path = os.path.join(self.out_dir, "trajectory.tsv")
        if not os.path.isfile(path):
            return errs + ["evolve wrote no trajectory.tsv"]
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        rows = [ln for ln in lines if ln and not ln.startswith("#")]
        checks = [ln for ln in lines if ln.startswith("# check:")]
        if len(rows) != self.n_times:
            errs.append(f"evolve wrote {len(rows)} rows, "
                        f"expected {self.n_times}")
        if len(checks) != 5:
            errs.append(f"evolve footer has {len(checks)} check lines, "
                        "expected 5")
        errs += [f"evolve footer: {ln}" for ln in checks
                 if not ln.endswith("-> OK")]
        return errs


def _evolve_configs(lo, seed, work, sizes: Sizes, dense: bool):
    rng = np.random.default_rng([seed, 2 if dense else 1])
    if dense:
        p0 = lo.LindbladParams(omega=OMEGA, mu=0.6, nu=0.2, f0=0.4,
                               Omega=OMEGA_DRIVE)
        dt = lo.default_dt(p0, lo.DriveFn.cosine())
        if sizes.dense_spacing > dt:
            raise ValueError(f"dense grid spacing {sizes.dense_spacing} "
                             f"exceeds default_dt {dt}")
        n_times = sizes.dense_n_times
        t_max = sizes.dense_spacing * (n_times - 1)
    else:
        n_times, t_max = sizes.sparse_n_times, sizes.sparse_t_max
    ops = []
    for k in range(N_EVOLVE):
        # A step costs more the more of the Fock tail holds subnormal
        # numbers (up to 2x at dim 256).  A coherent start leaves such a
        # tail, a Gaussian one much less, and how much depends steeply on
        # |alpha0| and u0.  So each run gets one start of each kind with
        # |alpha0| and u0 fixed; the seed draws the phase of alpha0, the
        # rates and the drive amplitude.
        mu = rng.uniform(0.5, 0.7)
        nu = rng.uniform(0.2, 0.4) * mu
        if k % 2 == 0:
            initial = {"kind": "coherent"}
        else:
            initial = {"kind": "gaussian", "u0": repr(GAUSS_U0)}
        initial["alpha0"] = repr(complex(
            ALPHA0_ABS * np.exp(2j * np.pi * rng.uniform())))
        text = _ini({
            # omega and Omega stay fixed so default_dt, and with it the
            # step count, is the same for every seed.
            "params": {"omega": repr(OMEGA), "mu": repr(mu), "nu": repr(nu),
                       "f0": repr(rng.uniform(0.2, 0.6)),
                       "Omega": repr(OMEGA_DRIVE)},
            "drive": {"kind": "cosine"},
            "initial": initial,
            "grid": {"t_max": repr(t_max), "n_times": n_times},
            "integrator": {"dim": sizes.dim},
        })
        cfg = os.path.join(work, "inputs", f"evolve_{k}.ini")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        ops.append(EvolveOp(lo, os.path.join(work, "out", f"evolve_{k}"),
                            cfg, n_times))
    return ops


# ---------------------------------------------------------------------------
# validate


class ValidateOp(Op):
    def __init__(self, lo, out_dir, config):
        super().__init__(lo, out_dir)
        self.config = config

    def run(self):
        return _cli(self.lo, ["validate", "--config", self.config,
                              "--out", self.out_dir, "--quiet"])

    def check(self, result):
        rc, stdout, _ = result
        errs = [] if rc == 0 else [f"validate exit code {rc}: "
                                   + stdout.strip().replace("\n", "; ")]
        path = os.path.join(self.out_dir, "validate_report.tsv")
        if not os.path.isfile(path):
            return errs + ["validate wrote no report"]
        with open(path, encoding="utf-8") as fh:
            rows = [ln.split("\t") for ln in fh.read().splitlines()
                    if ln and not ln.startswith("#")]
        if not rows:
            errs.append("validate report has no checks")
        errs += [f"validate {r[1]}: {r[0]}" for r in rows if r[0] != "PASS"]
        return errs


def _validate_configs(lo, seed, work, sizes: Sizes):
    rng = np.random.default_rng([seed, 3])
    ops = []
    for k in range(N_VALIDATE):
        cfg = os.path.join(work, "inputs", f"validate_{k}.ini")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(_ini({"run": {"seed": int(rng.integers(0, 2 ** 31))}}))
        ops.append(ValidateOp(lo, os.path.join(work, "out", f"validate_{k}"),
                              cfg))
    return ops


# ---------------------------------------------------------------------------
# closed-forms


class ClosedFormsOp(Op):
    """One admissible parameter point through every closed-form engine:
    husimi and scan on the command line, then driven <n>, the operator
    series, materialization and the non-Hermitian map as library calls."""

    def __init__(self, lo, out_dir, config, point, sizes: Sizes):
        super().__init__(lo, out_dir)
        self.config = config
        self.sizes = sizes
        (self.p, self.p_free, self.nh, self.a0, self.n0, self.rho_full,
         self.t_series, self.g_mat) = point
        # mean_n steps 500 substeps per period of its fastest frequency;
        # scaling the horizon by that frequency keeps the step count, and
        # so the cost, the same at every parameter point.
        horizon = sizes.mean_n_horizon * OMEGA / max(self.p.omega,
                                                     self.p.Omega)
        self.t_mean = np.linspace(0.0, horizon, 81)
        self.t_nh = np.linspace(0.0, horizon, 2001)

    def run(self):
        lo, s = self.lo, self.sizes
        drive = lo.DriveFn.cosine()
        rc_h = _cli(lo, ["husimi", "--config", self.config,
                         "--out", self.out_dir, "--quiet"])
        rc_s = _cli(lo, ["scan", "--config", self.config,
                         "--out", self.out_dir, "--quiet"])
        n = lo.mean_n(self.t_mean, self.n0, self.a0, self.p, drive)
        full = lo.fujii_density(self.rho_full, self.t_series, self.p_free)
        coh = lo.fujii_density(
            lo.DensityMatrix.pure(lo.coherent_state(self.a0, s.series_dim)),
            self.t_series, self.p_free)
        coh_ref = lo.materialize(
            lo.coherent_free_evolution(self.a0, self.t_series, self.p_free),
            s.series_dim)
        mat = lo.materialize(self.g_mat, s.materialize_dim)
        nh = lo.nh_expectations(self.t_nh, self.a0, self.nh)
        return rc_h, rc_s, n, full, coh, coh_ref, mat, nh

    def check(self, result):
        lo, p = self.lo, self.p
        rc_h, rc_s, n, full, coh, coh_ref, mat, nh = result
        errs = []
        for name, (rc, _, caught) in (("husimi", rc_h), ("scan", rc_s)):
            if rc != 0:
                errs.append(f"{name} exit code {rc}")
            if "TruncationWarning" in caught:
                errs.append(f"{name} raised TruncationWarning")

        # driven <n> against |<a>|^2 + nu/2g + (n0 - |a0|^2 - nu/2g) e^-2gt
        a = lo.mean_a(self.t_mean, self.a0, p, lo.DriveFn.cosine())
        floor = p.nu / (2.0 * p.gamma)
        ident = (np.abs(a) ** 2 + floor
                 + (self.n0 - abs(self.a0) ** 2 - floor)
                 * np.exp(-2.0 * p.gamma * self.t_mean))
        err = float(np.max(np.abs(n - ident)))
        if not err <= 1e-8:
            errs.append(f"mean_n identity off by {err:.3e} (tol 1e-8)")

        d = lo.trace_distance(coh, coh_ref)
        if not d <= 1e-9:
            errs.append(f"fujii_density vs coherent_free_evolution: "
                        f"trace distance {d:.3e} (tol 1e-9)")
        if full.dim != self.sizes.series_dim or mat.dim != self.sizes.materialize_dim:
            errs.append("series or materialize returned the wrong dim")
        if not np.allclose(nh.n, np.abs(nh.a) ** 2, rtol=0, atol=1e-12):
            errs.append("nh_expectations: <n> != |<a>|^2")

        # scan peak within one grid step of sqrt(omega^2 - gamma^2)
        table = _read_table(os.path.join(self.out_dir, "resonance_scan.tsv"))
        if table is None or table.shape[0] != self.sizes.scan_samples:
            errs.append("scan table missing or wrong length")
        else:
            step = table[1, 0] - table[0, 0]
            k = int(np.argmax(table[:, 1]))
            off = abs(table[k, 0] - lo.resonance_frequency(p))
            if not off <= step * (1 + 1e-9):
                errs.append(f"scan peak {off:.3e} from resonance "
                            f"(grid step {step:.3e})")

        # Husimi peak of the limit cycle equals b = 1 - u with u = nu/mu
        b = 1.0 - p.nu / p.mu
        g = lo.limit_cycle_state(0.0, p, lo.DriveFn.cosine())
        if not abs(lo.husimi_value(g.alpha, g) - b) <= 1e-12:
            errs.append("husimi_value at the cycle center != 1 - u")
        grids = sorted(f for f in os.listdir(self.out_dir)
                       if f.startswith("husimi_"))
        if len(grids) != 6:
            errs.append(f"husimi wrote {len(grids)} grids, expected 6")
        for f in grids:
            path = os.path.join(self.out_dir, f)
            vals = _read_table(path)
            peak = float(vals.max()) if vals is not None else float("nan")
            # The grid need not sample the exact centre: its maximum lies
            # between b and the value half a grid step off in x and in p.
            head = _header(path)
            x0, x1 = (float(v) for v in head["x-range"].split())
            p0, p1 = (float(v) for v in head["p-range"].split())
            dx = (x1 - x0) / (int(head["nx"]) - 1)
            dp = (p1 - p0) / (int(head["np"]) - 1)
            off2 = ((p.omega * dx / 2) ** 2 + (dp / 2) ** 2) / (2 * p.omega)
            low = b * math.exp(-b * off2)
            if not low * (1 - 1e-12) <= peak <= b * (1 + 1e-12):
                errs.append(f"{f}: grid peak {peak:.9g} outside "
                            f"[{low:.9g}, 1 - u = {b:.9g}]")
        return errs


def _header(path: str) -> dict:
    """The '# key: value' lines at the top of a CLI output file."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for ln in fh:
            if not ln.startswith("#"):
                break
            key, sep, val = ln[1:].partition(":")
            if sep:
                out[key.strip()] = val.strip()
    return out


def _read_table(path: str):
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as fh:
        rows = [ln.split() for ln in fh.read().splitlines()
                if ln and not ln.startswith("#")]
    return np.array(rows, dtype=float) if rows else None


def _closed_form_points(lo, seed, work, sizes: Sizes):
    rng = np.random.default_rng([seed, 4])
    ops = []
    for k in range(N_POINTS):
        omega = rng.uniform(0.9, 1.3)
        mu = rng.uniform(0.2, 0.6)
        nu = rng.uniform(0.0, 0.6) * mu
        f0 = rng.uniform(0.2, 1.0)
        Omega = omega * rng.uniform(0.8, 1.2)
        p = lo.LindbladParams(omega=omega, mu=mu, nu=nu, f0=f0, Omega=Omega)
        p_free = lo.LindbladParams(omega=omega, mu=mu, nu=nu)
        nh = lo.NHParams(omega=omega, gamma=mu / 2.0, f0=f0, Omega=Omega)
        a0 = complex(rng.uniform(0.3, 1.5) * np.exp(2j * np.pi * rng.uniform()))
        n0 = abs(a0) ** 2 + rng.uniform(0.0, 1.0)
        d = sizes.series_dim
        m = ((rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
             * rng.uniform(0.3, 0.45) ** (np.arange(d) / 2.0)[:, None])
        # Hermitian, positive and of unit trace by construction; passed as
        # a plain array, so the series validates it, not the set-up.
        rho_full = m @ m.conj().T
        rho_full /= rho_full.trace().real
        t_series = rng.uniform(0.5, 3.0)
        g_mat = lo.GaussianState.from_alpha(rng.uniform(0.05, 0.4), a0)
        cfg = os.path.join(work, "inputs", f"closed_{k}.ini")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(_ini({
                "params": {"omega": repr(omega), "mu": repr(mu),
                           "nu": repr(nu), "f0": repr(f0),
                           "Omega": repr(Omega)},
                "drive": {"kind": "cosine"},
                "husimi": {"resolution": sizes.husimi_resolution},
                "scan": {"Omega_min": 0.5, "Omega_max": 1.7,
                         "samples": sizes.scan_samples},
            }))
        point = (p, p_free, nh, a0, n0, rho_full, t_series, g_mat)
        ops.append(ClosedFormsOp(lo, os.path.join(work, "out", f"closed_{k}"),
                                 cfg, point, sizes))
    return ops


def build(name: str, lo, seed: int, work: str, sizes: Sizes) -> list[Op]:
    """Generate the seeded inputs of one workload under ``work``."""
    _fresh_dir(os.path.join(work, "inputs"))
    if name == "evolve-sparse":
        return _evolve_configs(lo, seed, work, sizes, dense=False)
    if name == "evolve-dense":
        return _evolve_configs(lo, seed, work, sizes, dense=True)
    if name == "validate":
        return _validate_configs(lo, seed, work, sizes)
    if name == "closed-forms":
        return _closed_form_points(lo, seed, work, sizes)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("evolve-sparse", "evolve-dense", "validate", "closed-forms")
