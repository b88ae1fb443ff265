"""Time the layers of lindosc's closed-form outputs: the table writer
``cli._write_table`` and ``observables.resonance_scan``.

Prints the nanoseconds per value that ``_write_table`` takes to write a
201x201 Husimi grid of the limit cycle (space-separated, as
``husimi_NN.txt``) and a 4000-row resonance scan (tab-separated, as
``resonance_scan.tsv``), header and file open included, and the
milliseconds one 4000-sample ``resonance_scan`` call takes. The inputs
are those of the benchmark's closed-forms points: the default
parameters with f0 = 0.3 and Omega = 1.2, the grid over the automatic
window. Each sample times one call, the samples of every (tree, layer)
cell are interleaved, so slow drift of the machine spreads over all
cells alike, and the table shows each cell's median. Given two or more
source trees, it times them in one process, one column per tree, with a
last column saying whether every tree wrote the same bytes (the same
scan rows, for ``resonance_scan``):

    python tools/output_timing.py --src src
    python tools/output_timing.py --src base/src --src src

A tree whose ``_write_table`` takes ``rows`` rather than a 2-d ``table``
(the writer that formatted one cell per call) is handed the row lists
its own CLI passed. Needs only the standard library and numpy (which
lindosc itself needs).
"""

from __future__ import annotations

import argparse
import inspect
import os
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np
from fresh_import import import_lindosc

RESOLUTION = 201
SCAN_SAMPLES = 4000
LAYERS = (("write husimi 201x201", "ns/value"),
          ("write scan 4000x4", "ns/value"),
          ("resonance_scan 4000", "ms/call"))


class _Tree:
    """One tree's inputs and the output of its latest sample per layer."""

    def __init__(self, src: str, out_dir: str):
        self.cli, self.obs, gc, eng = import_lindosc(
            src, "cli", "observables", "gaussian_class", "lindblad_engine")
        self.out_dir = out_dir
        self.cfg = self.cli.resolve_config(None, None)
        self.params = eng.LindbladParams(
            omega=1.1, mu=0.6, nu=0.4, f0=0.3, Omega=1.2)
        drive = eng.DriveFn.cosine()
        g = gc.limit_cycle_state(0.0, self.params, drive)
        window = self.cli._auto_window([g], self.params.omega)
        self.grid = gc.husimi_grid(g, window, (RESOLUTION, RESOLUTION),
                                   self.params.omega).values
        self.scan = self.obs.resonance_scan(self.params, (0.5, 1.7),
                                            SCAN_SAMPLES)
        self.by_rows = "table" not in inspect.signature(
            self.cli._write_table).parameters
        self.last = {}

    def _write(self, layer: str, table: np.ndarray, sep: str) -> float:
        rows = (row.tolist() for row in table) if self.by_rows else table
        t0 = time.perf_counter()
        path = self.cli._write_table(self.out_dir, "table.txt", "timing",
                                     self.cfg, rows, sep=sep)
        ns = (time.perf_counter() - t0) * 1e9 / table.size
        with open(path, "rb") as fh:
            self.last[layer] = fh.read()
        return ns

    def sample(self, layer: str) -> float:
        """One timed call of the layer; its output goes to last[layer]."""
        if layer == LAYERS[0][0]:
            return self._write(layer, self.grid, " ")
        if layer == LAYERS[1][0]:
            return self._write(layer, self.scan, "\t")
        t0 = time.perf_counter()
        rows = self.obs.resonance_scan(self.params, (0.5, 1.7), SCAN_SAMPLES)
        ms = (time.perf_counter() - t0) * 1e3
        self.last[layer] = rows.tobytes()
        return ms


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, action="append",
                    help="source directory that contains the lindosc "
                         "package; repeat it to compare trees")
    ap.add_argument("--samples", type=int, default=21,
                    help="samples per cell (default 21)")
    args = ap.parse_args(argv)
    root = tempfile.mkdtemp(prefix="lindosc-output-timing-")
    try:
        trees = [_Tree(src, os.path.join(root, str(i)))
                 for i, src in enumerate(args.src)]
        times = {(i, layer): [] for i in range(len(trees))
                 for layer, _ in LAYERS}
        for _ in range(args.samples + 1):      # the first round warms up
            for layer, _ in LAYERS:
                for i, tree in enumerate(trees):
                    times[(i, layer)].append(tree.sample(layer))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    compare = len(trees) > 1
    print("layer\tunit\t" + "\t".join(args.src)
          + ("\tidentical" if compare else ""))
    for layer, unit in LAYERS:
        cells = [f"{statistics.median(times[(i, layer)][1:]):.1f}"
                 for i in range(len(trees))]
        if compare:   # the last sample's bytes, which every sample repeats
            outs = {t.last[layer] for t in trees}
            cells.append("yes" if len(outs) == 1 else "NO")
        print(f"{layer}\t{unit}\t" + "\t".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
