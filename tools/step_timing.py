"""Time one RK4 step of lindosc's stepper, ``_Workspace.step``.

Prints the microseconds per step at dim 32, 64, 128, 256 and 384 for
three runs: undriven (``none``) and under the cosine drive (``cosine``)
on a fixed random Hermitian start, and undriven from the Fock-diagonal
``steady_state`` (``thermal``), where ``evolve`` steps the diagonal only.
Dims 128 and 384 sit on either side of the size where the stepper starts
to evaluate the generator in more than one row block. Each sample
times a run of steps from a fresh copy of the start on a freshly built
stepper, so a cell's median does not carry one stepper's heap placement,
and the samples of every (tree, dim, run) cell are interleaved, so slow
drift of the machine spreads over all cells alike; the table shows each
cell's median.
Given two or more source trees, it times them in one process, in the
same interleaved order, with one column per tree and a last column
saying whether every tree's final state is bitwise the same:

    python tools/step_timing.py --src src
    python tools/step_timing.py --src base/src --src src

Each stepper is built and loaded as ``evolve`` builds and loads it
(undriven when the drive is off, the start through ``_Workspace.load``,
or copied into ``rho`` on a tree whose stepper has no ``load``), outside
the timed runs, so the table reads the per-step cost that ``evolve``
pays, not the construction.
Needs only the standard library and numpy (which lindosc itself needs).
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import numpy as np
from fresh_import import import_lindosc

DIMS = (32, 64, 128, 256, 384)
RUNS = ("none", "cosine", "thermal")
STEPS = {32: 40, 64: 20, 128: 5, 256: 2, 384: 1}  # about 2-20 ms a sample


class _Cell:
    """The stepper's inputs, its start state and the drive values of its
    steps; ``ws`` is the stepper of the latest sample."""

    def __init__(self, eng, dim: int, run: str):
        self.eng, self.dim = eng, dim
        self.params = eng.LindbladParams(omega=1.1, mu=0.6, nu=0.4, f0=0.3,
                                         Omega=1.3)
        fn = eng.DriveFn.cosine() if run == "cosine" else eng.DriveFn.none()
        self.driven = fn.is_active(self.params)
        self.h = eng.default_dt(self.params, fn)
        if run == "thermal":
            self.start = eng.steady_state(self.params, dim).matrix
        else:
            rng = np.random.default_rng(dim)
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            self.start = (m + m.conj().T) / (2.0 * dim)
        self.ws = None
        self.fs = []
        for j in range(STEPS[dim]):
            t = j * self.h
            self.fs.append(
                tuple(fn.value(s, self.params) if self.driven else None
                      for s in (t, t + 0.5 * self.h, t + self.h)))

    def sample(self) -> float:
        """Microseconds per step over one run from the start state."""
        self.ws = None       # free the last stepper before building anew
        self.ws = ws = self.eng._Workspace(self.dim, self.params,
                                           driven=self.driven)
        h, fs = self.h, self.fs
        if hasattr(ws, "load"):
            ws.load(self.start)
        else:
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
        eng, = import_lindosc(src, "lindblad_engine")
        for dim in DIMS:
            for run in RUNS:
                cells[(src, dim, run)] = _Cell(eng, dim, run)
    times = {key: [] for key in cells}
    for _ in range(args.samples + 1):      # the first round warms up
        for key, cell in cells.items():
            times[key].append(cell.sample())
    compare = len(args.src) > 1
    print("dim\trun\t" + "\t".join(f"us/step {s}" for s in args.src)
          + ("\tbitwise" if compare else ""))
    for dim in DIMS:
        for run in RUNS:
            row = [f"{statistics.median(times[(s, dim, run)][1:]):.1f}"
                   for s in args.src]
            if compare:   # every sample ends on the same steps' state
                states = {cells[(s, dim, run)].ws.rho.tobytes()
                          for s in args.src}
                row.append("yes" if len(states) == 1 else "NO")
            print(f"{dim}\t{run}\t" + "\t".join(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
