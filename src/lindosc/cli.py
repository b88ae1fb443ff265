"""Command line front end.

Subcommands: evolve (trajectory table with analytic reference columns),
husimi (phase-space grids plus the cycle path), scan (driving-frequency
sweep), validate (cross-oracle check suite), steady-state (asymptotic
populations).  Runs are described by a flat INI config; every output
file starts with a header echoing the resolved configuration and the
library version, and identical configs produce byte-identical files.
Every number in a table body is one "%.17g" cell, the bytes of
format(x, ".17g"): 17 significant digits, integral values such as the
steady-state level n without a decimal point.  Float tables are
formatted about 2000 cells at a time by _table_cells, which computes the
digits of all of them with numpy, certified exact, and passes each cell
it cannot certify to format itself.  scan sweeps the response
to the cosine drive f0 cos(Omega t), so it refuses (exit 2) a config
whose [drive] is fourier, or none with a nonzero f0, and one whose
response or occupation denominator underflows to zero on the grid.

Exit codes: 0 success, 1 validation failures, 2 bad configuration,
3 numerical divergence.
"""

from __future__ import annotations

import argparse
import cmath
import configparser
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import __version__, _table_cells
from . import observables as obs
from .fock_core import (
    DensityMatrix,
    TruncationError,
    _phase_point,
    required_dim,
)
from .gaussian_class import (
    GaussianState,
    _TAIL_CAP,
    _occupation,
    _population_tail,
    entropy,
    entropy_infinity,
    gaussian_flow,
    husimi_grid,
    limit_cycle_state,
    materialize,
    solve_u,
)
from .lindblad_engine import (
    DriveFn,
    IntegrationDivergedError,
    IntegratorOptions,
    LindbladParams,
    _checked_dt,
    evolve,
    steady_state,
)
from .validation import run_all


class ConfigError(Exception):
    """Bad or inconsistent run configuration; maps to exit code 2."""


def _fmt(x) -> str:
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    return format(x, ".17g")


# ---------------------------------------------------------------------------
# config parsing

_KNOWN_KEYS = {
    "params": {"omega", "mu", "nu", "f0", "Omega"},
    "drive": {"kind", "harmonics", "coefficients"},
    "initial": {"kind", "alpha0", "nbar0", "u0", "path"},
    "grid": {"t_max", "n_times"},
    "integrator": {"dim", "dt"},
    "husimi": {"times", "resolution", "window"},
    "scan": {"Omega_min", "Omega_max", "samples"},
    "run": {"seed"},
}

_INITIAL_KINDS = ("vacuum", "coherent", "thermal", "gaussian",
                  "limit-cycle", "file")

_MISSING = object()


class _Cfg:
    """configparser wrapper producing section/field diagnostics."""

    def __init__(self, cp: configparser.ConfigParser):
        self.cp = cp
        for sec in cp.sections():
            if sec not in _KNOWN_KEYS:
                raise ConfigError(f"unknown section [{sec}]")
            for key in cp.options(sec):
                if key not in _KNOWN_KEYS[sec]:
                    raise ConfigError(f"[{sec}] unknown key '{key}'")

    def has(self, sec: str, key: str) -> bool:
        return self.cp.has_option(sec, key)

    def get(self, sec: str, key: str, conv, default=_MISSING):
        if not self.cp.has_option(sec, key):
            if default is _MISSING:
                raise ConfigError(f"[{sec}] missing required key '{key}'")
            return default
        raw = self.cp.get(sec, key).strip()
        try:
            val = conv(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"[{sec}] {key} = {raw!r}: {exc}") from exc
        # one rule for every float or complex value and each token of a list
        vals = val if isinstance(val, tuple) else (val,)
        if any(isinstance(v, (float, complex)) and not cmath.isfinite(v)
               for v in vals):
            raise ConfigError(f"[{sec}] {key} = {raw!r}: must be finite")
        return val


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split())


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.split())


def _complexes(raw: str) -> tuple[complex, ...]:
    return tuple(complex(tok) for tok in raw.split())


@dataclass
class RunConfig:
    params: LindbladParams
    drive: DriveFn
    initial_kind: str
    initial_given: bool
    alpha0: complex
    nbar0: float
    u0: float
    initial_path: str | None
    dim: int
    t_max: float
    n_times: int
    dt: float | None
    husimi_times: tuple | None
    resolution: tuple
    window: tuple | None
    scan_range: tuple
    scan_samples: int
    seed: int | None

    def echo(self) -> list[tuple[str, str]]:
        """Resolved settings for output-file headers, in a fixed order."""
        p = self.params
        lines = [
            ("params.omega", _fmt(p.omega)), ("params.mu", _fmt(p.mu)),
            ("params.nu", _fmt(p.nu)), ("params.f0", _fmt(p.f0)),
            ("params.Omega", _fmt(p.Omega)),
            ("drive.kind", self.drive.kind),
        ]
        if self.drive.kind == "fourier":
            lines += [
                ("drive.harmonics",
                 " ".join(str(h) for h in self.drive.harmonics)),
                ("drive.coefficients",
                 " ".join(_fmt(c) for c in self.drive.coefficients)),
            ]
        lines.append(("initial.kind", self.initial_kind))
        if self.initial_kind in ("coherent", "gaussian"):
            lines.append(("initial.alpha0", _fmt(self.alpha0)))
        if self.initial_kind == "thermal":
            lines.append(("initial.nbar0", _fmt(self.nbar0)))
        if self.initial_kind == "gaussian":
            lines.append(("initial.u0", _fmt(self.u0)))
        if self.initial_kind == "file":
            lines.append(("initial.path", str(self.initial_path)))
        lines += [
            ("integrator.dim", str(self.dim)),
            ("integrator.dt", "auto" if self.dt is None else _fmt(self.dt)),
            ("grid.t_max", _fmt(self.t_max)),
            ("grid.n_times", str(self.n_times)),
        ]
        if self.seed is not None:
            lines.append(("run.seed", str(self.seed)))
        return lines


def resolve_config(path: str | None, dim_override: int | None) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str  # keys are case-sensitive (omega vs Omega)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                cp.read_file(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config {path!r}: {exc}") from exc
    cfg = _Cfg(cp)

    try:
        params = LindbladParams(
            omega=cfg.get("params", "omega", float, 1.1),
            mu=cfg.get("params", "mu", float, 0.6),
            nu=cfg.get("params", "nu", float, 0.4),
            f0=cfg.get("params", "f0", float, 0.0),
            Omega=cfg.get("params", "Omega", float, 0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"[params] {exc}") from exc

    default_kind = "cosine" if params.f0 != 0.0 else "none"
    kind = cfg.get("drive", "kind", str, default_kind)
    if kind == "none":
        drive = DriveFn.none()
    elif kind == "cosine":
        drive = DriveFn.cosine()
    elif kind == "fourier":
        try:
            drive = DriveFn.fourier(cfg.get("drive", "harmonics", _ints),
                                    cfg.get("drive", "coefficients",
                                            _complexes))
        except ValueError as exc:
            raise ConfigError(f"[drive] {exc}") from exc
    else:
        raise ConfigError(f"[drive] kind = {kind!r}: "
                          "expected none, cosine or fourier")
    if drive.is_active(params) and not params.Omega > 0:
        raise ConfigError("[params] Omega must be > 0 for an active drive")

    initial_given = cp.has_section("initial")
    ikind = cfg.get("initial", "kind", str, "vacuum")
    if ikind not in _INITIAL_KINDS:
        raise ConfigError(f"[initial] kind = {ikind!r}: expected one of "
                          + ", ".join(_INITIAL_KINDS))
    alpha0 = cfg.get("initial", "alpha0", complex, 0j)
    nbar0 = cfg.get("initial", "nbar0", float, 0.0)
    u0 = cfg.get("initial", "u0", float, 0.0)
    ipath = cfg.get("initial", "path", str, None)
    if ikind == "thermal" and not cfg.has("initial", "nbar0"):
        raise ConfigError("[initial] kind = thermal needs nbar0")
    if ikind == "gaussian" and not cfg.has("initial", "u0"):
        raise ConfigError("[initial] kind = gaussian needs u0")
    if ikind == "file" and ipath is None:
        raise ConfigError("[initial] kind = file needs path")
    if nbar0 < 0:
        raise ConfigError(f"[initial] nbar0 = {nbar0}: must be >= 0")
    if not 0.0 <= u0 < 1.0:
        raise ConfigError(f"[initial] u0 = {u0}: must lie in [0, 1)")

    dim = cfg.get("integrator", "dim", int, 64)
    if dim_override is not None:
        dim = dim_override
    if dim < 2:
        raise ConfigError(f"[integrator] dim = {dim}: must be >= 2")
    dt = cfg.get("integrator", "dt", float, None)
    if dt is not None and not dt > 0:
        raise ConfigError(f"[integrator] dt = {dt}: must be > 0")

    t_max = cfg.get("grid", "t_max", float, 10.0)
    n_times = cfg.get("grid", "n_times", int, 101)
    if not t_max > 0:
        raise ConfigError(f"[grid] t_max = {t_max}: must be > 0")
    if n_times < 1:
        raise ConfigError(f"[grid] n_times = {n_times}: empty time grid")

    husimi_times = cfg.get("husimi", "times", _floats, None)
    if husimi_times is not None and len(husimi_times) == 0:
        raise ConfigError("[husimi] times: empty list")
    res = cfg.get("husimi", "resolution", _ints, (101,))
    if len(res) == 1:
        resolution: tuple = (res[0], res[0])
    elif len(res) == 2:
        resolution = res
    else:
        raise ConfigError("[husimi] resolution: one or two integers")
    if min(resolution) < 2:
        raise ConfigError("[husimi] resolution: each axis needs >= 2 points")
    window = cfg.get("husimi", "window", _floats, None)
    if window is not None:
        if len(window) != 4:
            raise ConfigError("[husimi] window: need x_min x_max p_min p_max")
        if not (window[0] < window[1] and window[2] < window[3]):
            raise ConfigError("[husimi] window: ranges must be increasing")

    lo = cfg.get("scan", "Omega_min", float, 0.5)
    hi = cfg.get("scan", "Omega_max", float, 1.7)
    samples = cfg.get("scan", "samples", int, 400)
    if not (0.0 <= lo < hi):
        raise ConfigError(f"[scan] range [{lo}, {hi}]: need 0 <= min < max")
    if samples < 3:
        raise ConfigError(f"[scan] samples = {samples}: need at least 3 "
                          "(a single-sample range has no peak)")

    seed = cfg.get("run", "seed", int, None)

    return RunConfig(params=params, drive=drive, initial_kind=ikind,
                     initial_given=initial_given, alpha0=alpha0, nbar0=nbar0,
                     u0=u0, initial_path=ipath, dim=dim, t_max=t_max,
                     n_times=n_times, dt=dt, husimi_times=husimi_times,
                     resolution=resolution, window=window,
                     scan_range=(lo, hi), scan_samples=samples, seed=seed)


# ---------------------------------------------------------------------------
# shared pieces

def _gaussian_initial(cfg: RunConfig) -> GaussianState | None:
    """The initial state in Gaussian form, or None for matrix-from-file."""
    k = cfg.initial_kind
    if k == "vacuum":
        return GaussianState.coherent(0j)
    if k == "coherent":
        return GaussianState.coherent(cfg.alpha0)
    if k == "thermal":
        return GaussianState.thermal(cfg.nbar0)
    if k == "gaussian":
        return GaussianState.from_alpha(cfg.u0, cfg.alpha0)
    if k == "limit-cycle":
        return limit_cycle_state(0.0, cfg.params, cfg.drive)
    return None


def _ensure_adequate(cfg: RunConfig, g0: GaussianState | None) -> None:
    """Reject a basis that cannot hold the largest |<a>| the run visits
    over [0, t_max], sampled from the closed-form mean (undriven, that is
    |a0| at t = 0), or that leaves more of the start state's population
    outside than the 1e-8 required_dim allows a coherent state."""
    if g0 is None:
        return  # matrix from file: runtime tail diagnostics apply
    f_max = max(cfg.params.omega, cfg.drive.max_frequency(cfg.params))
    # 32 samples a period, 512 to 65536 of them; min() before int(), because
    # a long enough t_max makes the count infinite
    n = max(512, int(min(32 * cfg.t_max * f_max / (2.0 * math.pi),
                         65535.0)) + 1)
    t = np.linspace(0.0, cfg.t_max, n)
    reach = 1.02 * float(np.max(np.abs(obs.mean_a(t, g0.alpha, cfg.params,
                                                  cfg.drive))))
    need = required_dim(reach)
    if cfg.dim < need:
        raise ConfigError(
            f"[integrator] dim = {cfg.dim} cannot hold the run: |<a>| "
            f"reaches {reach:.4g}; increase dim to >= {need}")
    # checked second: its cost grows with the state's width, up to a cap
    need, above = _population_tail(g0, cfg.dim, 1e-8)
    if above is not None:
        bound = (f" (a lower bound: levels >= {need - 1} were not summed)"
                 if need > max(cfg.dim, _TAIL_CAP) else "")
        raise ConfigError(
            f"[integrator] dim = {cfg.dim} cannot hold the run: the initial "
            f"state puts {above:.2e} of its population above level "
            f"{cfg.dim - 1}; increase dim to >= {need}{bound}")


def _initial_density(cfg: RunConfig,
                     g0: GaussianState | None) -> DensityMatrix:
    if g0 is not None:
        return materialize(g0, cfg.dim)
    try:
        m = np.load(cfg.initial_path, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise ConfigError(
            f"[initial] path = {cfg.initial_path!r}: {exc}") from exc
    try:
        rho0 = DensityMatrix.from_matrix(m)
    except ValueError as exc:
        raise ConfigError(f"[initial] {cfg.initial_path!r}: {exc}") from exc
    if rho0.dim != cfg.dim:
        raise ConfigError(
            f"[initial] matrix is {rho0.dim}x{rho0.dim} but "
            f"[integrator] dim = {cfg.dim}")
    return rho0


_CHUNK = 2048      # float cells formatted, then written, at a time


def _write_table(out_dir: str, name: str, command: str, cfg: RunConfig,
                 table: np.ndarray, extra=(), meta=(), columns=None,
                 footer=(), sep: str = "\t") -> str:
    """Write out_dir/name in the one layout every output file shares.

    Header: version, command, one ``# key = value`` line per resolved
    setting and ``extra`` pair, one ``# `` line per ``meta`` entry, then
    ``# columns:`` when given.  Body: one line per row of the 2-d array
    ``table``, its cells joined by ``sep``.  A float64 table is formatted
    by _table_cells, about 2000 cells at a time, each chunk written before
    the next is formatted; its cells read as format(x, ".17g"), so a level
    n < 1e17 stored as a float reads as str(n).  A table of strings (the
    validate report) is written as it stands.
    Footer: one ``# `` line per entry.  Returns the path written.
    """
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# lindosc {__version__}\n")
        fh.write(f"# command: {command}\n")
        for key, val in list(cfg.echo()) + list(extra):
            fh.write(f"# {key} = {val}\n")
        for line in meta:
            fh.write(f"# {line}\n")
        if columns is not None:
            fh.write("# columns: " + " ".join(columns) + "\n")
        if table.dtype == np.float64:
            rows = max(1, _CHUNK // table.shape[1])
            for i in range(0, len(table), rows):
                fh.write(_table_cells.cells(table[i:i + rows], sep))
        else:
            for row in table:
                fh.write(sep.join(row.tolist()) + "\n")
        for line in footer:
            fh.write(f"# {line}\n")
    return path


def _say(quiet: bool, *lines: str) -> None:
    if not quiet:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands

def cmd_evolve(cfg: RunConfig, out_dir: str, quiet: bool) -> int:
    try:  # evolve's own step rule, before any state is built
        _checked_dt(cfg.params, cfg.drive, cfg.dt, cfg.t_max)
    except ValueError as exc:
        raise ConfigError(f"[integrator] {exc}") from exc
    g0 = _gaussian_initial(cfg)
    _ensure_adequate(cfg, g0)
    t = np.linspace(0.0, cfg.t_max, cfg.n_times)
    opts = IntegratorOptions(dt=cfg.dt)
    # unbound, so evolve can free the start state once it has copied it
    traj = evolve(_initial_density(cfg, g0), t, cfg.params, cfg.drive, opts)

    cols = ["t", "re_a", "im_a", "n", "x", "p", "S", "purity",
            "trace_err", "min_eig"]
    data = [t, traj.mean_a.real, traj.mean_a.imag, traj.mean_n,
            traj.mean_x, traj.mean_p, traj.entropy, traj.purity,
            traj.trace_err, traj.min_eig]
    footer: list[str] = []
    if g0 is not None:
        u_ref = np.asarray(solve_u(t, g0.u, cfg.params))
        a_ref = np.asarray(obs.mean_a(t, g0.alpha, cfg.params, cfg.drive))
        n_ref = _occupation(u_ref, a_ref)
        x_ref, p_ref = _phase_point(a_ref, cfg.params.omega)
        s_ref = np.array([entropy(v) for v in u_ref])
        cols += ["re_a_ref", "im_a_ref", "n_ref", "x_ref", "p_ref", "S_ref"]
        data += [a_ref.real, a_ref.imag, n_ref, x_ref, p_ref, s_ref]
        for label, err in (
            ("|a - a_ref|", float(np.max(np.abs(traj.mean_a - a_ref)))),
            ("|n - n_ref|", float(np.max(np.abs(traj.mean_n - n_ref)))),
            ("|x - x_ref|", float(np.max(np.abs(traj.mean_x - x_ref)))),
            ("|p - p_ref|", float(np.max(np.abs(traj.mean_p - p_ref)))),
            ("|S - S_ref|", float(np.max(np.abs(traj.entropy - s_ref)))),
        ):
            verdict = "OK" if err <= 1e-6 else "MISMATCH"
            footer.append(f"check: max {label} = {err:.3e} "
                          f"(tol 1e-06) -> {verdict}")

    path = _write_table(out_dir, "trajectory.tsv", "evolve", cfg,
                        np.column_stack(data), columns=cols,
                        footer=footer)
    _say(quiet, f"wrote {path} ({t.size} rows)", *footer)
    return 0


def _auto_window(states: list[GaussianState], omega: float) -> tuple:
    xs, ps, wx, wp = [], [], [], []
    for g in states:
        x, p = _phase_point(g.alpha, omega)
        xs.append(x)
        ps.append(p)
        wx.append(7.0 / math.sqrt(g.b * omega))
        wp.append(7.0 * math.sqrt(omega / g.b))
    return (min(xs) - max(wx), max(xs) + max(wx),
            min(ps) - max(wp), max(ps) + max(wp))


def cmd_husimi(cfg: RunConfig, out_dir: str, quiet: bool) -> int:
    p, drive = cfg.params, cfg.drive
    periodic = drive.is_active(p)

    period = 2.0 * math.pi / p.Omega if periodic else None
    times = cfg.husimi_times
    if times is None:
        if periodic:
            times = tuple(k * period / 6.0 for k in range(6))
        else:
            times = (0.0,)
    if any(ts < 0 for ts in times):
        raise ConfigError("[husimi] times must be >= 0")

    # With no explicit [initial] section and an active drive the natural
    # subject is the asymptotic cycle itself.
    kind = cfg.initial_kind
    if not cfg.initial_given and periodic:
        kind = "limit-cycle"
    if kind == "file":
        raise ConfigError("[initial] kind = file: phase-space grids need a "
                          "Gaussian-representable initial state")
    if kind == "limit-cycle":
        states = [limit_cycle_state(ts, p, drive) for ts in times]
    else:
        g0 = _gaussian_initial(cfg)
        states = [gaussian_flow(g0, ts, p, drive) for ts in times]

    window = cfg.window
    auto = window is None
    if auto:
        window = _auto_window(states, p.omega)
    else:
        for ts, g in zip(times, states):
            xc, pc = _phase_point(g.alpha, p.omega)
            if not (window[0] <= xc <= window[1]
                    and window[2] <= pc <= window[3]):
                warnings.warn(
                    f"state center (x={xc:.4g}, p={pc:.4g}) at t={ts:g} "
                    "lies outside the requested window; the grid will "
                    "miss the peak")

    grids = [husimi_grid(g, window, cfg.resolution, p.omega) for g in states]

    extra = [("husimi.window", " ".join(_fmt(w) for w in window)
              + (" (auto)" if auto else "")),
             ("husimi.resolution",
              f"{cfg.resolution[0]} {cfg.resolution[1]}"),
             ("husimi.subject", kind)]
    for i, (ts, grid) in enumerate(zip(times, grids)):
        meta = (f"x-range: {_fmt(window[0])} {_fmt(window[1])}",
                f"p-range: {_fmt(window[2])} {_fmt(window[3])}",
                f"nx: {grid.x_axis.size}", f"np: {grid.p_axis.size}",
                f"time: {_fmt(float(ts))}")
        path = _write_table(out_dir, f"husimi_{i:02d}.txt", "husimi", cfg,
                            grid.values, extra, meta, sep=" ")
        _say(quiet, f"wrote {path} "
                    f"(t = {ts:g}, peak {float(grid.values.max()):.6g})")

    if periodic:
        ts = np.linspace(0.0, period, 257)
        x, mp = _phase_point(obs.limit_cycle_alpha(ts, p, drive), p.omega)
        rows = np.column_stack((ts, x, mp))
        path = _write_table(out_dir, "cycle_path.tsv", "husimi", cfg, rows,
                            extra, columns=("t", "x", "p"))
        _say(quiet, f"wrote {path} (cycle, {len(ts)} samples)")
    return 0


def cmd_scan(cfg: RunConfig, out_dir: str, quiet: bool) -> int:
    kind, f0 = cfg.drive.kind, cfg.params.f0
    if not (kind == "cosine" or (kind == "none" and f0 == 0.0)):
        raise ConfigError(
            f"[drive] kind = {kind} with [params] f0 = {_fmt(f0)}: scan "
            "sweeps the cosine drive f0 cos(Omega t), so it needs "
            "kind = cosine, or kind = none with f0 = 0")
    try:
        table = obs.resonance_scan(cfg.params, cfg.scan_range,
                                   cfg.scan_samples)
    except ValueError as exc:
        raise ConfigError(f"[params] {exc}") from exc
    lo, hi = cfg.scan_range
    step = (hi - lo) / (cfg.scan_samples - 1)
    k = int(np.argmax(table[:, 1]))
    footer = [f"peak: Omega = {_fmt(float(table[k, 0]))} (sample {k})"]
    try:
        w_res = obs.resonance_frequency(cfg.params)
        off = abs(float(table[k, 0]) - w_res)
        inside = lo <= w_res <= hi
        verdict = "OK" if off <= step else (
            "OFF-GRID" if not inside else "MISMATCH")
        footer.append(f"reference: sqrt(omega^2 - gamma^2) = {_fmt(w_res)}")
        footer.append(f"|peak - reference| = {off:.6g} vs grid step "
                      f"{step:.6g} -> {verdict}")
    except ValueError:
        footer.append("reference: overdamped (gamma >= omega), "
                      "no resonance frequency")

    extra = [("scan.Omega_min", _fmt(lo)), ("scan.Omega_max", _fmt(hi)),
             ("scan.samples", str(cfg.scan_samples))]
    path = _write_table(out_dir, "resonance_scan.tsv", "scan", cfg, table,
                        extra, columns=("Omega", "A_q", "phi_q", "nbar"),
                        footer=footer)
    _say(quiet, f"wrote {path} ({cfg.scan_samples} rows)", *footer)
    return 0


def cmd_steady_state(cfg: RunConfig, out_dir: str, quiet: bool) -> int:
    p = cfg.params
    ss = steady_state(p, cfg.dim)
    pops = np.diagonal(ss.matrix).real
    mean_n = float(np.dot(np.arange(cfg.dim), pops))
    meta = (f"u = {_fmt(p.nu / p.mu)}", f"nbar = {_fmt(p.nbar)}",
            f"entropy = {_fmt(entropy_infinity(p))}",
            f"truncated_mean_n = {_fmt(mean_n)}",
            f"top_level_population = {_fmt(float(pops[-1]))}")
    path = _write_table(out_dir, "steady_state.tsv", "steady-state", cfg,
                        np.column_stack((np.arange(cfg.dim), pops)),
                        meta=meta, columns=("n", "p_n"))
    _say(quiet, f"wrote {path} (dim {cfg.dim}, <n> = {mean_n:.6g})")
    return 0


def cmd_validate(cfg: RunConfig, out_dir: str | None, quiet: bool) -> int:
    # The suite runs canonical parameters, but a supplied config must
    # still be coherent (catches dim/amplitude mistakes early).
    _ensure_adequate(cfg, _gaussian_initial(cfg))
    results = run_all(seed=cfg.seed)
    fails = [r for r in results if not r.passed]
    for r in results:
        if not quiet or not r.passed:
            print(r.line())
    if out_dir is not None:
        rows = np.array([("PASS" if r.passed else "FAIL", r.key, r.expected,
                          r.actual, r.tolerance) for r in results])
        path = _write_table(out_dir, "validate_report.tsv", "validate", cfg,
                            rows, columns=("status", "key", "expected",
                                           "actual", "tolerance"))
        _say(quiet, f"wrote {path}")
    print(f"{len(results) - len(fails)}/{len(results)} checks passed")
    if fails:
        print("failing keys: " + ", ".join(r.key for r in fails))
        return 1
    return 0


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lindosc",
        description="Damped, driven oscillator under Lindblad dynamics: "
                    "integrator, closed forms, and their cross-checks.")
    ap.add_argument("--version", action="version",
                    version=f"lindosc {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    # name -> (handler, help); read when the parser is built, so a handler
    # replaced on the module after import is the one that runs
    commands = {
        "evolve": (cmd_evolve,
                   "integrate a trajectory and export observables"),
        "husimi": (cmd_husimi, "export phase-space grids and the cycle path"),
        "scan": (cmd_scan, "sweep the driving frequency"),
        "validate": (cmd_validate, "run the cross-oracle check suite"),
        "steady-state": (cmd_steady_state,
                         "export the asymptotic populations"),
    }
    for name, (handler, help_text) in commands.items():
        optional = name == "validate"
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(handler=handler)
        sp.add_argument("--config", required=not optional,
                        help="INI run configuration" +
                             (" (optional; defaults used when absent)"
                              if optional else ""))
        sp.add_argument("--out", required=not optional,
                        help="output directory" +
                             (" (optional; report file when given)"
                              if optional else ""))
        sp.add_argument("--dim", type=int, default=None,
                        help="override [integrator] dim")
        sp.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args.config, args.dim)
        return args.handler(cfg, args.out, args.quiet)
    except (ConfigError, TruncationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IntegrationDivergedError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
