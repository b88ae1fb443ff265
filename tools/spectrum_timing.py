"""Time lindosc's Hermitian spectrum, raw ``eigvalsh`` against the floored
``fock_core._eigvalsh``.

Prints the milliseconds per call of ``np.linalg.eigvalsh`` on a density
matrix and of ``_eigvalsh`` (which first zeroes every part below
``_SPECTRUM_FLOOR``, the floor pass included in its time) at dim 32, 64
and 256, for three starts: a coherent state (|alpha| = 1.25), a Gaussian
(u = 0.2, |alpha| = 1.25) and a seeded random state with a thermal-like
Fock envelope (ratio 0.4). The last columns give the number of real and
imaginary parts the floor zeroes (out of 2 * dim**2) and the largest
|delta lambda| between the two spectra. Each sample times one call on
a fresh copy of the matrix, the samples of every cell are interleaved,
and the table shows each cell's median:

    python tools/spectrum_timing.py --src src

Needs only the standard library and numpy (which lindosc itself needs).
"""

from __future__ import annotations

import argparse
import cmath
import importlib
import os
import statistics
import sys
import time

import numpy as np

DIMS = (32, 64, 256)
STATES = ("coherent", "gaussian", "envelope")


def _import_lindosc(src: str):
    """(fock_core, gaussian_class) of lindosc from the tree at src."""
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    try:
        fc = importlib.import_module("lindosc.fock_core")
        gc = importlib.import_module("lindosc.gaussian_class")
    finally:
        sys.path.remove(src)
    if not os.path.abspath(fc.__file__).startswith(src + os.sep):
        raise SystemExit(f"lindosc imported from {fc.__file__}, not {src}")
    return fc, gc


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
    ap.add_argument("--src", required=True,
                    help="source directory that contains the lindosc package")
    ap.add_argument("--samples", type=int, default=21,
                    help="samples per cell (default 21)")
    args = ap.parse_args(argv)
    fc, gc = _import_lindosc(args.src)
    fns = (np.linalg.eigvalsh, fc._eigvalsh)
    cells = {(dim, kind): _state(fc, gc, dim, kind)
             for dim in DIMS for kind in STATES}
    times = {(key, k): [] for key in cells for k in range(len(fns))}
    for _ in range(args.samples + 1):      # the first round warms up
        for key, m in cells.items():
            for k, fn in enumerate(fns):
                times[(key, k)].append(_ms(fn, m))
    print("dim\tstate\tms raw\tms floored\tfloored parts\tmax |dlambda|")
    for (dim, kind), m in cells.items():
        parts = m.view(np.float64)
        zeroed = np.count_nonzero(
            (parts != 0) & (np.abs(parts) < fc._SPECTRUM_FLOOR))
        delta = np.max(np.abs(np.linalg.eigvalsh(m) - fc._eigvalsh(m.copy())))
        ms = [f"{statistics.median(times[((dim, kind), k)][1:]):.2f}"
              for k in range(len(fns))]
        print(f"{dim}\t{kind}\t" + "\t".join(ms)
              + f"\t{zeroed}\t{delta:.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
