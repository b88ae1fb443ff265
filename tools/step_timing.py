"""Time the two layers of lindosc's integrator: one RK4 step of the
stepper ``_Workspace.step`` and the floored Hermitian spectrum
``fock_core._eigvalsh`` behind the per-record entropy and positivity check.

The ``step`` rows give the microseconds per step at dim 32, 64, 128, 256
and 384 for three runs: undriven (``none``) and under the cosine drive
(``cosine``) on a fixed random Hermitian start, and undriven from the
Fock-diagonal ``steady_state`` (``thermal``), where ``evolve`` steps the
diagonal only. Dims 128 and 384 sit on either side of the size where the
stepper starts to evaluate the generator in more than one row block.
Each sample times a run of steps from a fresh copy of the start on a
freshly built stepper, built and loaded as ``evolve`` builds and loads it
(undriven when the drive is off, the start through ``_Workspace.load``)
and given one warm-up step, all outside the timed run, so a cell reads
the per-step cost that ``evolve`` pays, not one stepper's heap placement
or the first touch of its fresh pages.

The ``spectrum`` rows give the milliseconds of one ``_eigvalsh`` call on
a fresh copy of a density matrix (it zeroes the parts below its floor
and hands LAPACK the live levels only, the rows that keep a part; both
passes are timed) at dim 32, 64 and 256, for three starts: a coherent
state (|alpha| = 1.25), a Gaussian (u = 0.2, |alpha| = 1.25) and a
seeded random state with a thermal-like Fock envelope (ratio 0.4). Each
sample first makes one untimed call on another fresh copy, so that no
cell pays for the caches the cell before it left cold. Every tree times
the same matrices, built by the first tree. A second table gives, per
matrix, the milliseconds of raw ``np.linalg.eigvalsh``, then for each
tree the live levels (the order of the matrix that its ``_eigvalsh``
hands LAPACK, out of dim) and the real and imaginary parts its floor
zeroes (the nonzero parts of the matrix that do not reach LAPACK, out
of 2 * dim**2), both read from one untimed call, and last the largest
|delta lambda| between the raw spectrum and any tree's.

The samples of every cell are interleaved in one loop, whose first round
warms up and every other round of which runs the cells in reverse
order, so slow drift of the machine spreads over all cells alike and no
tree always goes first; each cell shows its median, then its lower and
upper quartile in brackets, so that a run during which the host slowed
down reads as a wide spread rather than as slower code. Given two or more
source trees, it times them in one process, one column per tree, with a
last column saying whether every tree ends the cell on the same bytes
(for ``step`` the whole state matrix, read through ``_Workspace.rho``,
so trees that store or step different parts of the state are compared;
the eigenvalues for ``spectrum``):

    python tools/step_timing.py --src src
    python tools/step_timing.py --src base/src --src src

Needs only the standard library and numpy (which lindosc itself needs).
"""

from __future__ import annotations

import argparse
import cmath
import sys
import time

import numpy as np
from fresh_import import import_lindosc

STEP_DIMS = (32, 64, 128, 256, 384)
RUNS = ("none", "cosine", "thermal")
STEPS = {32: 40, 64: 20, 128: 5, 256: 2, 384: 1}  # about 2-20 ms a sample
SPECTRUM_DIMS = (32, 64, 256)
STATES = ("coherent", "gaussian", "envelope")
UNITS = {"step": ("us/step", 1), "spectrum": ("ms/call", 2)}


class _Step:
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
        for j in range(STEPS[dim] + 1):      # the first warms up
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
        ws.load(self.start)
        ws.step(h, *fs[0])
        t0 = time.perf_counter()
        for f0, f_mid, f1 in fs[1:]:
            ws.step(h, f0, f_mid, f1)
        return (time.perf_counter() - t0) * 1e6 / (len(fs) - 1)

    @property
    def last(self) -> np.ndarray:
        return self.ws.rho


class _Spectrum:
    """One spectrum function on one matrix; ``last`` is the spectrum of
    the latest sample."""

    def __init__(self, fn, m: np.ndarray):
        self.fn, self.m, self.last = fn, m, None

    def sample(self) -> float:
        """Milliseconds of one call on a fresh copy of the matrix, after
        one untimed call on another fresh copy."""
        self.fn(self.m.copy())
        h = self.m.copy()
        t0 = time.perf_counter()
        self.last = self.fn(h)
        return (time.perf_counter() - t0) * 1e3


def _lapack_input(fn, m: np.ndarray) -> np.ndarray:
    """The matrix that the spectrum function ``fn`` hands
    ``np.linalg.eigvalsh`` when called on a copy of ``m`` (an empty one
    when it does not call it)."""
    seen = [np.zeros((0, 0))]
    eigvalsh = np.linalg.eigvalsh

    def recording(a):
        seen.append(a.copy())
        return eigvalsh(a)

    np.linalg.eigvalsh = recording
    try:
        fn(m.copy())
    finally:
        np.linalg.eigvalsh = eigvalsh
    return seen[-1]


def _state(fc, gc, dim: int, kind: str) -> np.ndarray:
    alpha = cmath.rect(1.25, 0.7)
    if kind == "coherent":
        return fc.DensityMatrix.pure(fc.coherent_state(alpha, dim)).matrix
    if kind == "gaussian":
        u = 0.2
        return gc.materialize(gc.GaussianState(u=u, beta=alpha * (1 - u)),
                              dim).matrix
    rng = np.random.default_rng(dim)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = (0.4 ** (np.arange(dim) / 2.0))[:, None] * a
    return fc.DensityMatrix.from_matrix(m @ m.conj().T).matrix


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, action="append",
                    help="source directory that contains the lindosc "
                         "package; repeat it to compare trees")
    ap.add_argument("--samples", type=int, default=21,
                    help="samples per cell (default 21)")
    args = ap.parse_args(argv)
    trees = [import_lindosc(src, "lindblad_engine", "fock_core",
                            "gaussian_class") for src in args.src]
    _, fc, gc = trees[0]
    mats = {(dim, kind): _state(fc, gc, dim, kind)
            for dim in SPECTRUM_DIMS for kind in STATES}
    rows = ([("step", dim, run) for dim in STEP_DIMS for run in RUNS]
            + [("spectrum", dim, kind) for dim, kind in mats])
    cells = {}         # (row, tree index or "raw") -> cell
    for row in rows:
        layer, dim, case = row
        for i, (eng, fc_i, _) in enumerate(trees):
            cells[(row, i)] = (_Step(eng, dim, case) if layer == "step"
                               else _Spectrum(fc_i._eigvalsh,
                                              mats[(dim, case)]))
        if layer == "spectrum":
            cells[(row, "raw")] = _Spectrum(np.linalg.eigvalsh,
                                            mats[(dim, case)])
    times = {key: [] for key in cells}
    keys = list(cells)
    for r in range(args.samples + 1):      # the first round warms up
        for key in keys[::-1] if r % 2 else keys:
            times[key].append(cells[key].sample())
    quartiles = {key: np.percentile(t[1:], (25, 50, 75))
                 for key, t in times.items()}

    ids = range(len(trees))
    compare = len(trees) > 1
    print("layer\tdim\tcase\tunit\t" + "\t".join(args.src)
          + ("\tbitwise" if compare else ""))
    for row in rows:
        unit, digits = UNITS[row[0]]
        line = [*map(str, row), unit]
        for i in ids:    # median [lower quartile, upper quartile]
            lo, mid, hi = (f"{q:.{digits}f}" for q in quartiles[(row, i)])
            line.append(f"{mid} [{lo}, {hi}]")
        if compare:   # every sample ends on the same bytes
            outs = {cells[(row, i)].last.tobytes() for i in ids}
            line.append("yes" if len(outs) == 1 else "NO")
        print("\t".join(line))

    print("\ndim\tcase\tms raw\t"
          + "".join(f"live levels {src}\t" for src in args.src)
          + "".join(f"floored parts {src}\t" for src in args.src)
          + "max |dlambda|")
    for (dim, kind), m in mats.items():
        row = ("spectrum", dim, kind)
        nonzero = np.count_nonzero(m.view(np.float64))
        lapack = [_lapack_input(fc_i._eigvalsh, m) for _, fc_i, _ in trees]
        raw = cells[(row, "raw")].last
        delta = max(np.max(np.abs(raw - cells[(row, i)].last)) for i in ids)
        print(f"{dim}\t{kind}\t{quartiles[(row, 'raw')][1]:.2f}\t"
              + "".join(f"{a.shape[0]}\t" for a in lapack)
              + "".join(f"{nonzero - np.count_nonzero(a.view(np.float64))}\t"
                        for a in lapack)
              + f"{delta:.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
