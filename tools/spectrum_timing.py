"""Time lindosc's Hermitian spectrum, raw ``eigvalsh`` against the floored
``fock_core._eigvalsh`` of one or more source trees.

Prints the milliseconds per call of ``np.linalg.eigvalsh`` on a density
matrix and of each tree's ``_eigvalsh`` (which zeroes every part below
``_SPECTRUM_FLOOR`` and hands LAPACK the live levels only, the rows that
keep a part; both passes are included in its time) at dim 32, 64 and
256, for three starts: a coherent state (|alpha| = 1.25), a Gaussian
(u = 0.2, |alpha| = 1.25) and a seeded random state with a thermal-like
Fock envelope (ratio 0.4). The last columns give the number of live
levels (out of dim), the number of real and imaginary parts the floor
zeroes (out of 2 * dim**2) and the largest |delta lambda| between the
raw spectrum and any tree's. Each sample times one call on a fresh copy
of the matrix, the samples of every cell are interleaved, and the table
shows each cell's median. Given two or more trees, it times them in one
process, with one column per tree:

    python tools/spectrum_timing.py --src src
    python tools/spectrum_timing.py --src base/src --src src

Every tree times the same matrices, built by the first tree.
Needs only the standard library and numpy (which lindosc itself needs).
"""

from __future__ import annotations

import argparse
import cmath
import statistics
import sys
import time

import numpy as np
from fresh_import import import_lindosc

DIMS = (32, 64, 256)
STATES = ("coherent", "gaussian", "envelope")


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


def _ms(fn, m: np.ndarray) -> float:
    h = m.copy()
    t0 = time.perf_counter()
    fn(h)
    return (time.perf_counter() - t0) * 1e3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, action="append",
                    help="source directory that contains the lindosc "
                         "package; repeat it to compare trees")
    ap.add_argument("--samples", type=int, default=21,
                    help="samples per cell (default 21)")
    args = ap.parse_args(argv)
    trees = [import_lindosc(src, "fock_core", "gaussian_class")
             for src in args.src]
    fc, gc = trees[0]
    floor = fc._SPECTRUM_FLOOR
    fns = [np.linalg.eigvalsh] + [t[0]._eigvalsh for t in trees]
    cells = {(dim, kind): _state(fc, gc, dim, kind)
             for dim in DIMS for kind in STATES}
    times = {(key, k): [] for key in cells for k in range(len(fns))}
    for _ in range(args.samples + 1):      # the first round warms up
        for key, m in cells.items():
            for k, fn in enumerate(fns):
                times[(key, k)].append(_ms(fn, m))
    print("dim\tstate\tms raw\t" + "\t".join(f"ms {s}" for s in args.src)
          + "\tlive levels\tfloored parts\tmax |dlambda|")
    for (dim, kind), m in cells.items():
        a = np.abs(m.view(np.float64))
        live = np.count_nonzero(np.any(a >= floor, axis=1))
        zeroed = np.count_nonzero((a != 0) & (a < floor))
        raw = np.linalg.eigvalsh(m)
        delta = max(np.max(np.abs(raw - fn(m.copy()))) for fn in fns[1:])
        ms = [f"{statistics.median(times[((dim, kind), k)][1:]):.2f}"
              for k in range(len(fns))]
        print(f"{dim}\t{kind}\t" + "\t".join(ms)
              + f"\t{live}\t{zeroed}\t{delta:.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
