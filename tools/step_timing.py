"""Time one RK4 step of lindosc's stepper, ``_Workspace.step``.

Prints the microseconds per step at dim 32, 64, 128, 256 and 384,
undriven and under the cosine drive, on a fixed random Hermitian start.
Dims 128 and 384 sit on either side of the size where the stepper starts
to evaluate the generator in more than one row block. Each sample
times a run of steps from a fresh copy of the start, and the samples of
every (tree, dim, drive) cell are interleaved, so slow drift of the
machine spreads over all cells alike; the table shows each cell's median.
Given two or more source trees, it times them in one process, in the
same interleaved order, with one column per tree and a last column
saying whether every tree's final state is bitwise the same:

    python tools/step_timing.py --src src
    python tools/step_timing.py --src base/src --src src

The stepper is built once per cell, outside the timed runs, so the table
reads the per-step cost that ``evolve`` pays, not the construction.
Needs only the standard library and numpy (which lindosc itself needs).
"""

from __future__ import annotations

import argparse
import importlib
import os
import statistics
import sys
import time

import numpy as np

DIMS = (32, 64, 128, 256, 384)
DRIVES = ("none", "cosine")
STEPS = {32: 40, 64: 20, 128: 5, 256: 2, 384: 1}  # about 2-20 ms a sample


def _import_engine(src: str):
    """lindosc.lindblad_engine from the tree at src, imported afresh."""
    src = os.path.abspath(src)
    for k in [k for k in sys.modules
              if k == "lindosc" or k.startswith("lindosc.")]:
        del sys.modules[k]
    sys.path.insert(0, src)
    try:
        eng = importlib.import_module("lindosc.lindblad_engine")
    finally:
        sys.path.remove(src)
    if not os.path.abspath(eng.__file__).startswith(src + os.sep):
        raise SystemExit(f"lindosc imported from {eng.__file__}, not {src}")
    return eng


class _Cell:
    """One stepper, its start state and the drive values of its steps."""

    def __init__(self, eng, dim: int, drive: str):
        params = eng.LindbladParams(omega=1.1, mu=0.6, nu=0.4, f0=0.3,
                                    Omega=1.3)
        fn = eng.DriveFn.cosine() if drive == "cosine" else eng.DriveFn.none()
        self.h = eng.default_dt(params, fn)
        rng = np.random.default_rng(dim)
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        self.start = (m + m.conj().T) / (2.0 * dim)
        self.ws = eng._Workspace(dim, params)
        self.fs = []
        for j in range(STEPS[dim]):
            t = j * self.h
            self.fs.append(
                tuple(fn.value(s, params) if drive == "cosine" else None
                      for s in (t, t + 0.5 * self.h, t + self.h)))

    def sample(self) -> float:
        """Microseconds per step over one run from the start state."""
        ws, h, fs = self.ws, self.h, self.fs
        ws.rho[...] = self.start
        t0 = time.perf_counter()
        for f0, f_mid, f1 in fs:
            ws.step(h, f0, f_mid, f1)
        return (time.perf_counter() - t0) * 1e6 / len(fs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, action="append",
                    help="source directory that contains the lindosc "
                         "package; repeat it to compare trees")
    ap.add_argument("--samples", type=int, default=21,
                    help="samples per cell (default 21)")
    args = ap.parse_args(argv)
    cells = {}
    for src in args.src:
        eng = _import_engine(src)
        for dim in DIMS:
            for drive in DRIVES:
                cells[(src, dim, drive)] = _Cell(eng, dim, drive)
    times = {key: [] for key in cells}
    for _ in range(args.samples + 1):      # the first round warms up
        for key, cell in cells.items():
            times[key].append(cell.sample())
    compare = len(args.src) > 1
    print("dim\tdrive\t" + "\t".join(f"us/step {s}" for s in args.src)
          + ("\tbitwise" if compare else ""))
    for dim in DIMS:
        for drive in DRIVES:
            row = [f"{statistics.median(times[(s, dim, drive)][1:]):.1f}"
                   for s in args.src]
            if compare:   # every sample ends on the same steps' state
                states = {cells[(s, dim, drive)].ws.rho.tobytes()
                          for s in args.src}
                row.append("yes" if len(states) == 1 else "NO")
            print(f"{dim}\t{drive}\t" + "\t".join(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
