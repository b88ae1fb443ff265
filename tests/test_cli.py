import math
import tempfile
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindosc import __version__
from lindosc.cli import _write_table, main, resolve_config
from lindosc.gaussian_class import (
    GaussianState,
    husimi_value,
    limit_cycle_state,
    materialize,
)
from lindosc.lindblad_engine import DriveFn, LindbladParams
from lindosc.validation import CheckResult


def write_ini(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


BASIC = """
[params]
omega = 1.1
mu = 0.6
nu = 0.4
f0 = 0.4
Omega = 1.2

[initial]
kind = coherent
alpha0 = 0.5+0.2j

[grid]
t_max = 2.0
n_times = 5

[integrator]
dim = 48
"""


def read_rows(path):
    header, rows = [], []
    for line in path.read_text().splitlines():
        (header if line.startswith("#") else rows).append(line)
    return header, rows


def test_evolve_writes_trajectory(tmp_path):
    cfg = write_ini(tmp_path, BASIC)
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    header, rows = read_rows(out / "trajectory.tsv")
    assert header[0].startswith("# lindosc ")
    assert header[1] == "# command: evolve"
    mu_line = next(h for h in header if h.startswith("# params.mu"))
    assert float(mu_line.split("=")[1]) == 0.6
    cols = next(h for h in header if h.startswith("# columns:")).split()[2:]
    assert cols[:4] == ["t", "re_a", "im_a", "n"]
    assert "re_a_ref" in cols and "S_ref" in cols
    assert len(rows) == 5
    first = dict(zip(cols, (float(v) for v in rows[0].split("\t"))))
    assert first["t"] == 0.0
    assert first["re_a"] == pytest.approx(0.5, abs=1e-12)
    assert first["im_a"] == pytest.approx(0.2, abs=1e-12)
    checks = [h for h in header if h.startswith("# check:")]
    assert len(checks) == 5
    assert all(h.endswith("-> OK") for h in checks)


def test_evolve_deterministic_bytes(tmp_path):
    cfg = write_ini(tmp_path, BASIC)
    assert main(["evolve", "--config", cfg, "--out",
                 str(tmp_path / "a"), "--quiet"]) == 0
    assert main(["evolve", "--config", cfg, "--out",
                 str(tmp_path / "b"), "--quiet"]) == 0
    a = (tmp_path / "a" / "trajectory.tsv").read_bytes()
    b = (tmp_path / "b" / "trajectory.tsv").read_bytes()
    assert a == b


def test_dim_override(tmp_path):
    cfg = write_ini(tmp_path, BASIC)
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out), "--quiet",
                 "--dim", "56"]) == 0
    header, _ = read_rows(out / "trajectory.tsv")
    assert "# integrator.dim = 56" in header


def test_gaussian_start_echoes_u0_and_seed(tmp_path):
    body = BASIC.replace("kind = coherent", "kind = gaussian\nu0 = 0.25")
    cfg = write_ini(tmp_path, body + "\n[run]\nseed = 17\n")
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    header, rows = read_rows(out / "trajectory.tsv")
    assert "# initial.kind = gaussian" in header
    assert "# initial.u0 = 0.25" in header
    assert "# run.seed = 17" in header
    cols = next(h for h in header if h.startswith("# columns:")).split()[2:]
    first = dict(zip(cols, (float(v) for v in rows[0].split("\t"))))
    # <n> = u/(1-u) + |alpha|^2 of the start state
    assert first["n"] == pytest.approx(0.25 / 0.75 + 0.29, abs=1e-10)


@pytest.mark.parametrize("body,needle", [
    ("[params]\nfoo = 1\n", "unknown key"),
    ("[params]\nmu = 0.4\nnu = 0.6\n", "mu > nu"),
    ("[params]\nomega = abc\n", "omega"),
    ("[initial]\nkind = thermal\n", "nbar0"),
    ("[initial]\nkind = gaussian\nu0 = 1.5\nalpha0 = 0\n", "u0"),
    ("[bogus]\nx = 1\n", "unknown section"),
    ("[params]\nOmega = 0\n[drive]\nkind = fourier\nharmonics = 1\n"
     "coefficients = 0.3\n", "Omega must be > 0"),
    ("[params]\nf0 = 0.3\n", "Omega must be > 0"),
    ("omega = 1.1\n", "malformed config"),
    ("[drive]\nkind = fourier\n", "missing required key 'harmonics'"),
    ("[params]\nOmega = 1\n[drive]\nkind = fourier\nharmonics = 1 2\n"
     "coefficients = 0.3\n", "needs matching"),
    ("[drive]\nkind = square\n", "expected none, cosine or fourier"),
    ("[initial]\nkind = squeezed\n", "expected one of"),
    ("[initial]\nkind = gaussian\n", "needs u0"),
    ("[initial]\nkind = file\n", "needs path"),
    ("[initial]\nkind = thermal\nnbar0 = -1\n", "nbar0 = -1.0: must be >= 0"),
    ("[integrator]\ndim = 1\n", "dim = 1: must be >= 2"),
    ("[integrator]\ndt = 0\n", "dt = 0.0: must be > 0"),
    ("[integrator]\nrenorm_every = -1\n",
     "[integrator] unknown key 'renorm_every'"),
    ("[grid]\nt_max = 0\n", "t_max = 0.0: must be > 0"),
    ("[grid]\nn_times = 0\n", "empty time grid"),
    ("[husimi]\ntimes =\n", "[husimi] times: empty list"),
    ("[husimi]\nresolution = 11 11 11\n", "one or two integers"),
    ("[husimi]\nresolution = 1\n", "each axis needs >= 2 points"),
    ("[husimi]\nwindow = -1 1 -1\n", "need x_min x_max p_min p_max"),
    ("[husimi]\nwindow = 1 -1 -1 1\n", "ranges must be increasing"),
    ("[scan]\nOmega_min = 2\n", "need 0 <= min < max"),
    ("[scan]\nsamples = 2\n", "need at least 3"),
    ("[initial]\nkind = file\npath = no-such-dir/state.npy\n",
     "[initial] path = 'no-such-dir/state.npy'"),
    ("[params]\nf0 = 0.3\nOmega = 1.0\n[grid]\nt_max = inf\n",
     "[grid] t_max = 'inf': must be finite"),
    ("[grid]\nt_max = inf\n", "[grid] t_max = 'inf': must be finite"),
    ("[grid]\nt_max = nan\n", "[grid] t_max = 'nan': must be finite"),
    ("[initial]\nkind = coherent\nalpha0 = inf\n",
     "[initial] alpha0 = 'inf': must be finite"),
    ("[initial]\nkind = gaussian\nu0 = 0.2\nalpha0 = 1+nanj\n",
     "[initial] alpha0 = '1+nanj': must be finite"),
    ("[initial]\nkind = thermal\nnbar0 = inf\n",
     "[initial] nbar0 = 'inf': must be finite"),
    ("[integrator]\ndt = inf\n", "[integrator] dt = 'inf': must be finite"),
    ("[params]\nOmega = 1\n[drive]\nkind = fourier\nharmonics = 1 2\n"
     "coefficients = 0.3 -infj\n",
     "[drive] coefficients = '0.3 -infj': must be finite"),
])
def test_config_errors_exit_2(tmp_path, capsys, body, needle):
    cfg = write_ini(tmp_path, body)
    rc = main(["evolve", "--config", cfg, "--out",
               str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert needle in err


def test_unreadable_inputs_exit_2(tmp_path, capsys):
    rc = main(["evolve", "--config", str(tmp_path / "missing.ini"),
               "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err
    npy = tmp_path / "skew.npy"
    np.save(npy, np.array([[0.5, 0.4], [0.0, 0.5]]))  # not Hermitian
    cfg = write_ini(tmp_path, f"""
[initial]
kind = file
path = {npy}

[integrator]
dim = 2
""")
    rc = main(["evolve", "--config", cfg, "--out",
               str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    assert "not Hermitian" in capsys.readouterr().err
    latin = tmp_path / "latin.ini"
    latin.write_bytes(b"[params]\nomega = 1.1 # \xff\n")  # not UTF-8
    rc = main(["evolve", "--config", str(latin), "--out",
               str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "latin.ini" in err


def test_constant_fourier_drive_runs(tmp_path):
    # k = 0 alone: f(t) = 0.3 at every t, with a valid base frequency
    cfg = write_ini(tmp_path, """
[params]
Omega = 1.0

[drive]
kind = fourier
harmonics = 0
coefficients = 0.3

[grid]
t_max = 1.0
n_times = 3

[integrator]
dim = 32
""")
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    header, rows = read_rows(out / "trajectory.tsv")
    assert len(rows) == 3
    checks = [h for h in header if h.startswith("# check:")]
    assert len(checks) == 5
    assert all(h.endswith("-> OK") for h in checks)


@pytest.mark.parametrize("body,needle", [
    ("[husimi]\ntimes = 0 -1\n", "times must be >= 0"),
    ("[initial]\nkind = file\npath = state.npy\n",
     "phase-space grids need"),
    ("[husimi]\nwindow = 0 inf -1 1\n",
     "[husimi] window = '0 inf -1 1': must be finite"),
    ("[husimi]\ntimes = 0 inf\n", "[husimi] times = '0 inf': must be finite"),
])
def test_husimi_config_errors_exit_2(tmp_path, capsys, body, needle):
    cfg = write_ini(tmp_path, body)
    rc = main(["husimi", "--config", cfg, "--out",
               str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert needle in err


LIMIT_CYCLE_START = """
[params]
omega = 1.1
mu = 0.6
nu = 0.4
f0 = 0.3
Omega = 1.0954451150103321

[grid]
t_max = 2.0
n_times = 11

[initial]
kind = limit-cycle
"""


@pytest.mark.parametrize("body,need", [
    pytest.param("[initial]\nkind = coherent\nalpha0 = 3.0\n"
                 "[integrator]\ndim = 8\n", 48, id="coherent-amplitude"),
    # the width, not the amplitude, overflows these bases
    pytest.param("[initial]\nkind = thermal\nnbar0 = 5\n"
                 "[integrator]\ndim = 24\n", 102, id="thermal-width"),
    pytest.param(LIMIT_CYCLE_START + "[integrator]\ndim = 40\n", 63,
                 id="limit-cycle-dim40"),
    pytest.param(LIMIT_CYCLE_START + "[integrator]\ndim = 60\n", 63,
                 id="limit-cycle-dim60"),
])
def test_small_basis_rejected_before_running(tmp_path, capsys, body, need):
    cfg = write_ini(tmp_path, body)
    rc = main(["evolve", "--config", cfg, "--out",
               str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "increase dim to >=" in err
    assert err.rstrip().endswith(f"increase dim to >= {need}")


def test_wide_start_rejected_within_a_second(tmp_path, capsys):
    # the tail walk stops at a fixed level, so a start wider than any
    # basis is rejected as fast as a narrow one, with a lower bound for dim
    cfg = write_ini(tmp_path, "[initial]\nkind = thermal\nnbar0 = 1e9\n"
                    "[integrator]\ndim = 64\n")
    t0 = time.perf_counter()
    rc = main(["evolve", "--config", cfg, "--out",
               str(tmp_path / "out"), "--quiet"])
    assert time.perf_counter() - t0 < 1.0
    assert rc == 2
    err = capsys.readouterr().err
    assert "increase dim to >= 100001 (a lower bound" in err


def test_divergent_step_exit_3(tmp_path, capsys):
    cfg = write_ini(tmp_path, """
[grid]
t_max = 5.0
n_times = 2

[integrator]
dim = 32
dt = 1.0
""")
    rc = main(["evolve", "--config", cfg, "--out",
               str(tmp_path / "out"), "--quiet"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("divergence:")


@pytest.mark.parametrize("body", [
    pytest.param("[grid]\nt_max = 1e308\n", id="t_max"),
    pytest.param("[integrator]\ndim = 12\n[grid]\nt_max = 1e300\n",
                 id="t_max-past-2**53"),
    pytest.param("[integrator]\ndim = 12\ndt = 5e-324\n"
                 "[grid]\nt_max = 1\nn_times = 3\n", id="dt"),
])
def test_uncountable_step_count_exit_2(tmp_path, capsys, body):
    # t_max / dt overflows to inf, or is finite but above 2**53 where a
    # float no longer counts steps exactly: rejected before a stepper is
    # built
    cfg = write_ini(tmp_path, body)
    rc = main(["evolve", "--config", cfg, "--out",
               str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [integrator] dt = ")
    assert "more steps than a float can count" in err


def test_validate_accepts_longest_grid(tmp_path, capsys, monkeypatch):
    # the basis check samples a capped number of times even when
    # 32 samples a period overflow to inf
    monkeypatch.setattr("lindosc.cli.run_all",
                        lambda seed=None: _fake_results()[:1])
    cfg = write_ini(tmp_path, "[grid]\nt_max = 1e308\n")
    assert main(["validate", "--config", cfg, "--quiet"]) == 0


def test_file_initial_roundtrip(tmp_path):
    rho0 = materialize(GaussianState.thermal(1.0), 48)
    npy = tmp_path / "state.npy"
    np.save(npy, rho0.matrix)
    cfg = write_ini(tmp_path, f"""
[initial]
kind = file
path = {npy}

[grid]
t_max = 1.0
n_times = 3

[integrator]
dim = 48
""")
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    header, rows = read_rows(out / "trajectory.tsv")
    cols = next(h for h in header if h.startswith("# columns:")).split()[2:]
    assert "n_ref" not in cols  # no closed form declared for file input
    first = dict(zip(cols, (float(v) for v in rows[0].split("\t"))))
    assert first["n"] == pytest.approx(1.0, abs=1e-9)

    bad = write_ini(tmp_path, f"""
[initial]
kind = file
path = {npy}

[integrator]
dim = 32
""", name="bad.ini")  # 48x48 file against dim = 32
    assert main(["evolve", "--config", bad, "--out",
                 str(tmp_path / "out2"), "--quiet"]) == 2


def _fake_results():
    return [
        CheckResult(key="alpha/decay", expected="0", actual="1e-09",
                    tolerance="1e-06", passed=True),
        CheckResult(key="entropy/asymptote", expected="1.9", actual="2.4",
                    tolerance="1e-08", passed=False),
    ]


def test_validate_reports_failures(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("lindosc.cli.run_all",
                        lambda seed=None: _fake_results())
    out = tmp_path / "rep"
    rc = main(["validate", "--out", str(out)])
    assert rc == 1
    got = capsys.readouterr().out
    assert "PASS  alpha/decay" in got
    assert "FAIL  entropy/asymptote" in got
    assert "1/2 checks passed" in got
    assert "failing keys: entropy/asymptote" in got
    header, rows = read_rows(out / "validate_report.tsv")
    assert "# command: validate" in header
    assert rows == [
        "PASS\talpha/decay\t0\t1e-09\t1e-06",
        "FAIL\tentropy/asymptote\t1.9\t2.4\t1e-08",
    ]


def test_validate_quiet_shows_only_failures(capsys, monkeypatch):
    monkeypatch.setattr("lindosc.cli.run_all",
                        lambda seed=None: _fake_results())
    rc = main(["validate", "--quiet"])
    assert rc == 1
    got = capsys.readouterr().out
    assert "PASS" not in got
    assert "FAIL  entropy/asymptote" in got


def test_validate_all_green(capsys, monkeypatch):
    monkeypatch.setattr("lindosc.cli.run_all",
                        lambda seed=None: _fake_results()[:1])
    assert main(["validate", "--quiet"]) == 0
    assert "1/1 checks passed" in capsys.readouterr().out


HUSIMI = """
[params]
omega = 1.1
mu = 0.6
nu = 0.4
f0 = 0.4
Omega = 1.2

[husimi]
resolution = 21
"""


def test_husimi_grids_and_cycle_path(tmp_path):
    cfg = write_ini(tmp_path, HUSIMI)
    out = tmp_path / "out"
    assert main(["husimi", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    files = sorted(f.name for f in out.iterdir())
    assert files == ["cycle_path.tsv"] \
        + [f"husimi_{i:02d}.txt" for i in range(6)]

    header, rows = read_rows(out / "husimi_00.txt")
    meta = {h.split(":")[0][2:]: h.split(":", 1)[1].strip()
            for h in header if ":" in h and not h.startswith("# command")}
    assert meta["nx"] == "21" and meta["np"] == "21"
    assert float(meta["time"]) == 0.0
    assert len(rows) == 21
    # spot check the first grid node against the closed-form density
    p = LindbladParams(omega=1.1, mu=0.6, nu=0.4, f0=0.4, Omega=1.2)
    g = limit_cycle_state(0.0, p, DriveFn.cosine())
    x0 = float(meta["x-range"].split()[0])
    p0 = float(meta["p-range"].split()[0])
    pt = (1.1 * x0 + 1j * p0) / math.sqrt(2 * 1.1)
    assert float(rows[0].split()[0]) == pytest.approx(husimi_value(pt, g),
                                                      abs=1e-12)

    _, path_rows = read_rows(out / "cycle_path.tsv")
    assert len(path_rows) == 257
    first = [float(v) for v in path_rows[0].split("\t")]
    last = [float(v) for v in path_rows[-1].split("\t")]
    assert abs(first[1] - last[1]) < 1e-9  # one full period closes the loop
    assert abs(first[2] - last[2]) < 1e-9


FOURIER_LIMIT_CYCLE = f"""
[params]
omega = 1.1
mu = 0.6
nu = 0.4
Omega = 1.3

[drive]
kind = fourier
harmonics = 1 -2
coefficients = 0.2+0.1j 0.15-0.05j

[grid]
t_max = {2.0 * math.pi / 1.3!r}
n_times = 11

[integrator]
dim = 64

[initial]
kind = limit-cycle

[husimi]
resolution = 21
"""


def test_fourier_limit_cycle_start(tmp_path):
    # the integrator stays on the two-harmonic cycle for one period, and
    # husimi draws that cycle
    cfg = write_ini(tmp_path, FOURIER_LIMIT_CYCLE)
    out = tmp_path / "evolve"
    assert main(["evolve", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    header, rows = read_rows(out / "trajectory.tsv")
    assert len(rows) == 11
    checks = [h for h in header if h.startswith("# check:")]
    assert len(checks) == 5
    assert all(h.endswith("-> OK") for h in checks)

    out = tmp_path / "husimi"
    assert main(["husimi", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    files = sorted(f.name for f in out.iterdir())
    assert files == ["cycle_path.tsv"] \
        + [f"husimi_{i:02d}.txt" for i in range(6)]
    _, path_rows = read_rows(out / "cycle_path.tsv")
    first = [float(v) for v in path_rows[0].split("\t")]
    last = [float(v) for v in path_rows[-1].split("\t")]
    assert abs(first[1] - last[1]) < 1e-9  # one full period closes the loop
    assert abs(first[2] - last[2]) < 1e-9


def test_husimi_undriven_single_frame(tmp_path):
    cfg = write_ini(tmp_path, """
[initial]
kind = thermal
nbar0 = 1.0

[husimi]
resolution = 11
""")
    out = tmp_path / "out"
    assert main(["husimi", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    assert (out / "husimi_00.txt").exists()
    assert not (out / "husimi_01.txt").exists()
    assert not (out / "cycle_path.tsv").exists()


def test_husimi_window_warning(tmp_path):
    cfg = write_ini(tmp_path, HUSIMI + "window = 40 50 40 50\n")
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="outside the requested window"):
        assert main(["husimi", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0


def test_scan_footer_confirms_peak(tmp_path):
    cfg = write_ini(tmp_path, """
[params]
omega = 1.1
mu = 0.6
nu = 0.4
f0 = 1.4
Omega = 1.2

[scan]
Omega_min = 0.5
Omega_max = 1.7
samples = 201
""")
    out = tmp_path / "out"
    assert main(["scan", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    header, rows = read_rows(out / "resonance_scan.tsv")
    assert len(rows) == 201
    tail = "\n".join(header)
    assert "-> OK" in tail
    assert "sqrt(omega^2 - gamma^2)" in tail


@pytest.mark.parametrize("drive, needle", [
    ("f0 = 0.5\nOmega = 1.2\n[drive]\nkind = fourier\nharmonics = 1\n"
     "coefficients = 0.2\n", "kind = fourier with [params] f0 = 0.5"),
    ("f0 = 0.5\n[drive]\nkind = none\n",
     "kind = none with [params] f0 = 0.5"),
], ids=["fourier", "none-with-f0"])
def test_scan_refuses_a_drive_it_does_not_sweep(tmp_path, capsys, drive,
                                               needle):
    cfg = write_ini(tmp_path, "[params]\n" + drive)
    rc = main(["scan", "--config", cfg, "--out", str(tmp_path / "out"),
               "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert needle in err and "scan sweeps the cosine drive" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("params,needle", [
    ("omega = 1e-170\nmu = 2e-170\nnu = 0\nf0 = 0.3\nOmega = 1\n",
     "occupation denominator 4 gamma omega underflows"),
    ("omega = 1e-200\nmu = 2e-200\nnu = 0\nf0 = 1\nOmega = 1\n"
     "[scan]\nOmega_min = 0\n", "response denominator underflows"),
], ids=["occupation", "response"])
def test_scan_underflowing_denominator_exit_2(tmp_path, capsys, params,
                                              needle):
    cfg = write_ini(tmp_path,
                    "[params]\n" + params + "[drive]\nkind = cosine\n")
    rc = main(["scan", "--config", cfg, "--out", str(tmp_path / "out"),
               "--quiet"])
    assert rc == 2
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_scan_non_finite_range_exit_2(tmp_path, capsys):
    cfg = write_ini(tmp_path, "[scan]\nOmega_max = inf\n")
    rc = main(["scan", "--config", cfg, "--out", str(tmp_path / "out"),
               "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "[scan] Omega_max = 'inf': must be finite" in err
    assert not (tmp_path / "out").exists()


def test_scan_overdamped_has_no_reference(tmp_path):
    cfg = write_ini(tmp_path, """
[params]
omega = 0.05
mu = 0.5
nu = 0.3
f0 = 0.1
Omega = 1.0

[scan]
samples = 11
""")
    out = tmp_path / "out"
    assert main(["scan", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    header, _ = read_rows(out / "resonance_scan.tsv")
    assert any("overdamped" in h for h in header)


def test_steady_state_table(tmp_path):
    cfg = write_ini(tmp_path, "[integrator]\ndim = 64\n")
    out = tmp_path / "out"
    assert main(["steady-state", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    header, rows = read_rows(out / "steady_state.tsv")
    nbar_line = next(h for h in header if h.startswith("# nbar"))
    assert float(nbar_line.split("=")[1]) == pytest.approx(2.0, abs=1e-12)
    pops = np.array([float(r.split("\t")[1]) for r in rows])
    assert pops.size == 64
    assert pops.sum() == pytest.approx(1.0, abs=1e-12)
    assert pops[1] / pops[0] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_table_cells_read_as_format_17g(tmp_path):
    cells = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1e-5, 1e-4,
             1e16, 1e17, math.nan, math.inf, -math.inf, 5.0, -3.0, 255.0,
             1.0 / 3.0, -2.5e-300, 1.7976931348623157e308]
    table = np.array(cells).reshape(6, 3)
    cfg = resolve_config(None, None)
    for sep in ("\t", " "):
        path = _write_table(str(tmp_path), "t.tsv", "test", cfg, table,
                            sep=sep)
        with open(path, encoding="utf-8") as fh:
            body = [ln for ln in fh.read().split("\n")
                    if ln and not ln.startswith("#")]
        assert body == [sep.join(format(x, ".17g") for x in row)
                        for row in table.tolist()]


def _assert_body_reads_as_format_17g(directory, table):
    cfg = resolve_config(None, None)
    for sep in ("\t", " "):
        path = _write_table(directory, "t.tsv", "test", cfg, table, sep=sep)
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
        body = "".join(ln for ln in text.splitlines(keepends=True)
                       if not ln.startswith("#"))
        assert body == "".join(sep.join(format(x, ".17g") for x in row)
                               + "\n" for row in table.tolist())


# any 64-bit pattern: nan payloads, infinities, subnormals, both zeros
_BIT_TABLES = st.tuples(st.integers(1, 7), st.integers(1, 60)).flatmap(
    lambda shape: st.lists(st.integers(0, 2 ** 64 - 1),
                           min_size=shape[0] * shape[1],
                           max_size=shape[0] * shape[1]).map(
        lambda bits: np.array(bits, np.uint64).view(np.float64)
        .reshape(shape)))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(table=_BIT_TABLES)
def test_float_cells_read_as_format_17g_for_any_bits(table):
    with tempfile.TemporaryDirectory() as directory:
        _assert_body_reads_as_format_17g(directory, table)


def _neighbours(x, ulps=3):
    up, down = [x], [x]
    for _ in range(ulps):
        up.append(float(np.nextafter(up[-1], math.inf)))
        down.append(float(np.nextafter(down[-1], -math.inf)))
    return down[:0:-1] + up


def test_float_cells_read_as_format_17g_at_the_hard_cases(tmp_path):
    cells = []
    for k in range(-320, 309):            # 10**k, whose exponent is tight
        cells += _neighbours(float(f"1e{k}"))
    for x in (1e-5, 1e-4, 1e16, 1e17,     # fixed / exponent switch points
              1e-280, 1e280,              # edges of the certified range
              2.0 ** 53, 2.0 ** 52, 1.0):
        cells += _neighbours(x)
    # just below a power of ten, some reading as that power
    cells += [float(f"9.99999999999999999e{k}") for k in range(-310, 308)]
    cells += [float(f"9.9999999999999995e{k}") for k in range(-310, 308)]
    # exact ties at the 18th digit: round half to even (.2, .8)
    cells += [1125899906842624.25, 1125899906842624.75]
    cells += [float(n) for n in range(10001)]
    cells += [float(2 ** k + j) for k in range(54) for j in (-1, 0, 1)]
    cells += [float(10 ** k + j) for k in range(16) for j in (-1, 0, 1)]
    x = np.array(cells)
    x = np.concatenate([x, -x, np.zeros(-2 * x.size % 7)])
    _assert_body_reads_as_format_17g(str(tmp_path), x.reshape(-1, 7))


def test_float_table_is_written_a_chunk_at_a_time(tmp_path):
    # a 201 x 201 table writes about 0.95 MB of text; formatting it whole
    # before writing holds all of it at once (9.5 MB), a chunk of about
    # 2000 cells at a time 0.47 MB: the bound guards the closed-form
    # runs' peak memory, which hold six such grids
    table = np.random.default_rng(3).standard_normal((201, 201))
    cfg = resolve_config(None, None)
    # the first call builds the formatter's lookup tables
    _write_table(str(tmp_path), "w.txt", "test", cfg, table[:2], sep=" ")
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _write_table(str(tmp_path), "t.txt", "test", cfg, table, sep=" ")
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 640 * 1024


def test_steady_state_levels_read_as_integers(tmp_path):
    cfg = write_ini(tmp_path, "[integrator]\ndim = 12\n")
    out = tmp_path / "out"
    assert main(["steady-state", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    _, rows = read_rows(out / "steady_state.tsv")
    assert [r.split("\t")[0] for r in rows] == [str(n) for n in range(12)]


def test_output_files_share_one_layout(tmp_path, monkeypatch):
    # the suite itself is covered by the acceptance tests; here only the
    # report file's layout matters
    monkeypatch.setattr("lindosc.cli.run_all",
                        lambda seed=None: _fake_results()[:1])
    cfg = write_ini(tmp_path, BASIC + """
[husimi]
resolution = 11 9

[scan]
samples = 11
""")
    out = tmp_path / "out"
    for command in ("evolve", "husimi", "scan", "steady-state", "validate"):
        assert main([command, "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
    names = sorted(f.name for f in out.iterdir())
    assert names == sorted(
        ["trajectory.tsv", "cycle_path.tsv", "resonance_scan.tsv",
         "steady_state.tsv", "validate_report.tsv"]
        + [f"husimi_{i:02d}.txt" for i in range(6)])
    commands = {"trajectory.tsv": "evolve", "cycle_path.tsv": "husimi",
                "resonance_scan.tsv": "scan",
                "steady_state.tsv": "steady-state",
                "validate_report.tsv": "validate"}
    for name in names:
        lines = (out / name).read_text().splitlines()
        header, rows = read_rows(out / name)
        assert lines[0] == f"# lindosc {__version__}"
        assert lines[1] == f"# command: {commands.get(name, 'husimi')}"
        assert "# integrator.dim = 48" in header
        cols = [h for h in header if h.startswith("# columns: ")]
        if name.startswith("husimi_"):
            assert cols == []
            assert len(rows) == 11
            assert all(len(r.split(" ")) == 9 for r in rows)
        else:
            assert len(cols) == 1 and rows
            n_cols = len(cols[0].split()) - 2
            assert all(len(r.split("\t")) == n_cols for r in rows)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("lindosc ")


def test_missing_out_is_usage_error(tmp_path, capsys):
    cfg = write_ini(tmp_path, BASIC)
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--config", cfg])
    assert exc.value.code == 2
