"""Print the sha256 of every file the lindosc CLI writes for fixed configs.

Runs evolve (cosine, Fourier and undriven drives, cosine and Fourier
limit-cycle starts, a density matrix from a file, a cosine drive at dim
256, and undriven runs from a thermal start and from vacuum at dim 256,
which step only the populations), husimi (cosine and Fourier limit cycles
and a thermal state), scan (undriven and driven), steady-state and
validate on configs defined below, plus five configs that must fail (exit
2 or 3), each into its own directory under a temporary root. It prints
one ``sha256  relpath`` line per output file, sorted by path within each
run, one ``sha256  run/(stdout)`` line per run for what the command
printed, and one ``sha256  run/(exit)`` line per run for its exit code,
what it printed to stderr and the categories of the warnings it raised
(categories only, so that a warning's source line does not enter the
digest). The temporary root is replaced by a fixed placeholder throughout.
Running it against two source trees and diffing the two listings checks
that a change keeps every CLI output, exit code and error message
byte-identical:

    python tools/output_digests.py --src base/src > base.txt
    python tools/output_digests.py --src src > head.txt
    diff base.txt head.txt

With ``--cells BASE_SRC`` it runs the configs on both trees instead and,
for every output whose bytes differ, prints where: per column of a table
(named by its ``# columns:`` line), the number of cells that moved and
their largest absolute and relative difference, and every other line
that differs (header, footer, printed text) as it reads in each tree:

    python tools/output_digests.py --src src --cells base/src

Needs only the standard library and numpy (which lindosc itself needs).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
import warnings

import numpy as np
from fresh_import import import_lindosc

_PARAMS = "[params]\nomega = 1.1\nmu = 0.6\nnu = 0.4\n"
_GRID = "[grid]\nt_max = 4\nn_times = 41\n[integrator]\ndim = 40\n"
_RESONANT = "f0 = 0.3\nOmega = 1.0954451150103321\n"
_FOURIER = ("Omega = 1.3\n[drive]\nkind = fourier\nharmonics = 1 -2\n"
            "coefficients = 0.2+0.1j 0.15-0.05j\n")

# (name, subcommand, config text)
RUNS = (
    ("evolve-cosine", "evolve",
     _PARAMS + _RESONANT + _GRID
     + "[initial]\nkind = coherent\nalpha0 = 0.5+0.2j\n"),
    ("evolve-fourier", "evolve",
     _PARAMS + _FOURIER + _GRID
     + "[initial]\nkind = gaussian\nalpha0 = 0.5+0.2j\nu0 = 0.3\n"),
    ("evolve-undriven", "evolve",
     _PARAMS + _GRID
     + "[initial]\nkind = gaussian\nalpha0 = 0.5+0.2j\nu0 = 0.2\n"),
    ("husimi-driven", "husimi",
     _PARAMS + _RESONANT + _GRID + "[husimi]\nresolution = 41\n"),
    ("husimi-thermal", "husimi",
     _PARAMS + _GRID + "[initial]\nkind = thermal\nnbar0 = 0.8\n"
     + "[husimi]\ntimes = 0 1 2.5\nresolution = 41 33\n"),
    ("evolve-limit-cycle", "evolve",
     _PARAMS + _RESONANT
     + "[grid]\nt_max = 2\nn_times = 11\n[integrator]\ndim = 80\n"
     + "[initial]\nkind = limit-cycle\n"),
    # a two-harmonic cycle, which is not an ellipse: one period at dim 64
    ("husimi-fourier", "husimi",
     _PARAMS + _FOURIER + _GRID + "[husimi]\nresolution = 41\n"),
    ("evolve-limit-cycle-fourier", "evolve",
     _PARAMS + _FOURIER
     + "[grid]\nt_max = 4.83321946706122\nn_times = 11\n"
       "[integrator]\ndim = 64\n"
     + "[initial]\nkind = limit-cycle\n"),
    # relative path, resolved against the temporary root (the working
    # directory during the runs), so the header echo is root-independent
    ("evolve-file", "evolve",
     _PARAMS + _GRID + "[initial]\nkind = file\npath = state.npy\n"),
    # the largest basis: where the stepper does most work and the Fock
    # tail of the coherent start is subnormal
    ("evolve-dim256", "evolve",
     _PARAMS + _RESONANT
     + "[grid]\nt_max = 0.5\nn_times = 5\n[integrator]\ndim = 256\n"
     + "[initial]\nkind = coherent\nalpha0 = 1.25\n"),
    # undriven from a Fock-diagonal start: evolve steps the diagonal only
    ("evolve-thermal-undriven", "evolve",
     _PARAMS + _GRID + "[initial]\nkind = thermal\nnbar0 = 0.8\n"),
    ("evolve-vacuum-dim256", "evolve",
     _PARAMS + "[grid]\nt_max = 4\nn_times = 9\n[integrator]\ndim = 256\n"
     + "[initial]\nkind = vacuum\n"),
    ("scan", "scan", _PARAMS + "[scan]\nsamples = 120\n"),
    ("scan-driven", "scan",
     _PARAMS + "f0 = 1.4\nOmega = 1.2\n[scan]\nsamples = 150\n"),
    ("steady-state", "steady-state", _PARAMS + _GRID),
    ("validate", "validate", _PARAMS + _GRID),
    # configuration errors (exit 2) and a divergent step (exit 3)
    ("error-unknown-key", "evolve", _PARAMS + "foo = 1\n" + _GRID),
    ("error-mu-le-nu", "evolve", "[params]\nmu = 0.4\nnu = 0.6\n" + _GRID),
    ("error-file-dim", "evolve",
     _PARAMS + "[grid]\nt_max = 4\nn_times = 41\n[integrator]\ndim = 32\n"
     + "[initial]\nkind = file\npath = state.npy\n"),
    ("error-small-basis", "evolve",
     "[initial]\nkind = coherent\nalpha0 = 3.0\n[integrator]\ndim = 8\n"),
    ("error-divergent-step", "evolve",
     "[grid]\nt_max = 5.0\nn_times = 2\n[integrator]\ndim = 32\ndt = 1.0\n"),
)


def outputs(src: str) -> list[tuple[str, bytes]]:
    """(relpath, bytes) of every output, in the order of the listing."""
    cli, = import_lindosc(src, "cli")
    out = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        # the evolve-file start: a fixed diagonal (geometric) state, dim 40
        pops = 0.5 ** np.arange(40)
        np.save(os.path.join(root, "state.npy"), np.diag(pops / pops.sum()))
        os.chdir(root)
        try:
            for name, command, text in RUNS:
                cfg = os.path.join(root, f"{name}.ini")
                with open(cfg, "w", encoding="utf-8") as fh:
                    fh.write(text)
                run_dir = os.path.join(root, name)
                buf, err = io.StringIO(), io.StringIO()
                with warnings.catch_warnings(record=True) as caught, \
                        contextlib.redirect_stdout(buf), \
                        contextlib.redirect_stderr(err):
                    warnings.simplefilter("always")
                    rc = cli.main([command, "--config", cfg, "--out",
                                   run_dir])
                fnames = (sorted(os.listdir(run_dir))
                          if os.path.isdir(run_dir) else [])
                for fname in fnames:
                    with open(os.path.join(run_dir, fname), "rb") as fh:
                        out.append((f"{name}/{fname}", fh.read()))
                exit_text = f"exit {rc}\n{err.getvalue()}" + "".join(
                    f"warning: {w.category.__name__}\n" for w in caught)
                for label, text in (("(stdout)", buf.getvalue()),
                                    ("(exit)", exit_text)):
                    text = text.replace(root, "<root>")
                    out.append((f"{name}/{label}", text.encode()))
        finally:
            os.chdir(cwd)
    return out


def _is_row(line: str) -> bool:
    """Whether a line is a table row: not a comment, every cell a float."""
    if line.startswith("#"):
        return False
    try:
        for cell in line.split():
            float(cell)
    except ValueError:
        return False
    return True


def cell_report(base: bytes, head: bytes) -> list[str]:
    """Where two versions of one output differ: one line per table column
    whose cells moved, then the other lines that differ."""
    old, new = base.decode().splitlines(), head.decode().splitlines()
    if len(old) != len(new):
        return [f"{len(old)} lines in the base, {len(new)} here"]
    names: list[str] = []
    moved: dict[int, list[tuple[float, float]]] = {}   # by column index
    text = []
    for i, (a, b) in enumerate(zip(old, new)):
        if b.startswith("# columns:"):
            names = b.split()[2:]
        if a == b:
            continue
        cells_a, cells_b = a.split(), b.split()
        if not (_is_row(a) and _is_row(b)) or len(cells_a) != len(cells_b):
            text += [f"line {i + 1} base: {a}", f"line {i + 1} here: {b}"]
            continue
        for k, (u, v) in enumerate(zip(cells_a, cells_b)):
            if u != v:
                moved.setdefault(k, []).append((float(u), float(v)))
    out = []
    for k, pairs in sorted(moved.items()):
        name = names[k] if k < len(names) else f"column {k + 1}"
        u, v = np.array(pairs).T
        d = np.abs(v - u)
        scale = np.maximum(np.abs(u), np.abs(v))
        rel = np.max(np.divide(d, scale, out=np.zeros_like(d),
                               where=scale > 0))
        out.append(f"{name}: {d.size} cells, max |d| {np.max(d):.2g}, "
                   f"max |d|/max(|base|, |here|) {rel:.2g}")
    return out + text


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True,
                    help="source directory that contains the lindosc package")
    ap.add_argument("--cells", metavar="BASE_SRC",
                    help="source directory of a base tree: print the cells "
                         "of every output that differs from it, not digests")
    args = ap.parse_args(argv)
    if args.cells is None:
        for rel, data in outputs(args.src):
            print(f"{hashlib.sha256(data).hexdigest()}  {rel}")
        return 0
    base, here = dict(outputs(args.cells)), outputs(args.src)
    for rel, data in here:
        if rel not in base:
            print(f"{rel}: only here")
        elif base[rel] != data:
            print(f"{rel}:")
            for line in cell_report(base[rel], data):
                print(f"  {line}")
    for rel in sorted(base.keys() - dict(here).keys()):
        print(f"{rel}: only in the base")
    return 0


if __name__ == "__main__":
    sys.exit(main())
