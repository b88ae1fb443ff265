"""lindosc benchmark: one closed-loop client driving the package in-process.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --smoke

Run from the root of a lindosc checkout; the package is imported from the
checkout's ``src/``.  Each operation starts when the previous one returns.
BLAS threading is left at the environment default and recorded.

With ``--trace 0`` the last stdout line reports the end-to-end metrics,
measured untraced.  With ``--trace 1`` half the window runs untraced and
half traced, and the last line reports the per-layer metrics.  The line
before it records the environment.  ``--smoke`` runs every workload once
at reduced size in both modes and checks that every metric named in
BENCHMARK.json is emitted with its unit and that every gate passes.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import envinfo  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
MIN_TIMED_OPS = 3
PROBE_DIMS = (32, 64, 256)
PROBE_REPEATS = 3


class BenchError(Exception):
    """The benchmark cannot run here (e.g. no lindosc sources)."""


def load_lindosc():
    """Import lindosc afresh from the checkout (dropping earlier imports),
    so each set-up repeat pays the package import again."""
    if not os.path.isfile(os.path.join(SRC, "lindosc", "__init__.py")):
        raise BenchError(f"no lindosc sources under {SRC}")
    for k in [k for k in sys.modules if k == "lindosc" or k.startswith("lindosc.")]:
        del sys.modules[k]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    lo = importlib.import_module("lindosc")
    importlib.import_module("lindosc.cli")
    if not os.path.abspath(lo.__file__).startswith(SRC + os.sep):
        raise BenchError(f"lindosc imported from {lo.__file__}, not {SRC}")
    return lo


def modules_of(lo):
    return {m: sys.modules[f"lindosc.{m}"] for m in tracing.MODULES}


def setup(name, seed, work, sizes):
    """Import plus input generation, repeated; returns the last result and
    every repeat's duration."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lo = load_lindosc()
        ops = workloads.build(name, lo, seed, work, sizes)
        times.append(time.perf_counter() - t0)
    return lo, ops, times


class Loop:
    """Closed loop over the workload's operations for a time window."""

    def __init__(self, ops):
        self.ops = ops
        self.tracer = None          # when set, records spans of op.run only
        self.next = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def one(self, after=None):
        op = self.ops[self.next % len(self.ops)]
        self.next += 1
        op.prepare()
        if self.tracer is not None:
            self.tracer.enabled = True
        t0 = time.perf_counter()
        try:
            try:
                result = op.run()
            finally:
                wall = time.perf_counter() - t0
                if self.tracer is not None:
                    self.tracer.enabled = False
            errs = op.check(result)
        except Exception as exc:   # a crash is a failed operation
            errs = [f"{type(exc).__name__}: {exc}"]
        self.attempted += 1
        if errs:
            self.failed += 1
            self.errors.extend(errs)
        written = workloads.dir_bytes(op.out_dir)
        if after is not None:
            after(op)
        return wall, written

    def window(self, seconds, after=None):
        """One untimed warm-up operation, then timed operations until the
        window has passed, at least MIN_TIMED_OPS ran and every input ran
        equally often.  Every window starts from the first operation, so
        two windows see the same inputs in the same order."""
        end = time.perf_counter() + seconds
        self.next = 0
        self.one(after)
        walls, written = [], []
        while (len(walls) < MIN_TIMED_OPS or time.perf_counter() < end
               or len(walls) % len(self.ops)):
            w, b = self.one(after)
            walls.append(w)
            written.append(b)
        return walls, written


def computed_evolve_counts(lo):
    """Hook for traced ``evolve`` calls: RK4 steps from the public
    default_dt and the documented substep rule, and records = grid size.
    Both are computed from the arguments, not counted inside evolve."""
    evolve = lo.lindblad_engine.evolve
    default_dt = lo.lindblad_engine.default_dt
    sig = inspect.signature(evolve)
    totals = {"steps": 0, "records": 0}

    def hook(args, kwargs):
        b = sig.bind(*args, **kwargs)
        grid = [float(v) for v in b.arguments["t_grid"]]
        opts = b.arguments.get("opts")
        drive = b.arguments.get("drive")
        dt = opts.dt if opts is not None and opts.dt is not None \
            else default_dt(b.arguments["params"], drive)
        totals["steps"] += sum(max(1, math.ceil((t1 - t0) / dt - 1e-9))
                               for t0, t1 in zip(grid, grid[1:]))
        totals["records"] += len(grid)

    return hook, totals


class Probes:
    """Kernel probes timed between traced operations, so they see the
    workload's cache and BLAS-thread state rather than an idle process."""

    def __init__(self, lo, seed):
        self.rhs = lo.lindblad_engine.lindblad_rhs
        self.diag = lo.fock_core.density_diagnostics
        rng = np.random.default_rng([seed, 9])
        self.params = lo.LindbladParams(
            omega=workloads.OMEGA, mu=0.6, nu=0.2, f0=0.4,
            Omega=workloads.OMEGA_DRIVE)
        self.drive = lo.DriveFn.cosine()
        self.states = {}
        for d in PROBE_DIMS:
            g = lo.GaussianState.from_alpha(
                rng.uniform(0.05, 0.3),
                complex(rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())))
            self.states[d] = lo.materialize(g, d).matrix
        self.samples = {(k, d): [] for k in ("rhs", "diag") for d in PROBE_DIMS}

    def __call__(self, _op=None):
        clock = time.perf_counter
        for d, rho in self.states.items():
            for _ in range(PROBE_REPEATS):
                t0 = clock()
                self.rhs(rho, 0.25, self.params, self.drive)
                t1 = clock()
                self.diag(rho)
                t2 = clock()
                self.samples[("rhs", d)].append((t1 - t0) * 1e6)
                self.samples[("diag", d)].append((t2 - t1) * 1e6)


def rhs_bytes(lo, dim, params):
    """Computed, not measured: the input and output matrices plus every
    array of the banded workspace one lindblad_rhs call builds and reads."""
    ws_cls = getattr(lo.lindblad_engine, "_Workspace", None)
    ws = 0
    if ws_cls is not None:
        ws = sum(v.nbytes for v in vars(ws_cls(dim, params)).values()
                 if isinstance(v, np.ndarray))
    return 2 * 16 * dim * dim + ws


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(walls, setup_times):
    return {
        "wall_s": metric(statistics.fmean(walls), "s"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(lo, seed, loop, seconds, work, name):
    """Untraced half window, then traced half window with probes."""
    plain, _ = loop.window(seconds / 2.0)
    hook, counts = computed_evolve_counts(lo)
    tracer = tracing.Tracer()
    tracer.hooks["lindblad_engine.evolve"] = hook
    probes = Probes(lo, seed)
    tracer.install(modules_of(lo))
    loop.tracer = tracer
    try:
        traced, written = loop.window(seconds / 2.0, after=probes)
    finally:
        loop.tracer = None
        tracer.uninstall()
    n_ops = len(traced) + 1             # the warm-up was traced too
    tracer.write(os.path.join(work, f"spans-{name}.tsv"))
    calls, self_s = tracer.totals()

    out = {}
    for mod in tracing.MODULES:
        keys = [k for k in calls if k.startswith(mod + ".")]
        out[f"{mod}.calls"] = metric(sum(calls[k] for k in keys) / n_ops,
                                     "count")
        out[f"{mod}.self_s"] = metric(sum(self_s[k] for k in keys) / n_ops,
                                      "s")
    out["lindblad_engine.evolve.calls"] = metric(
        calls.get("lindblad_engine.evolve", 0) / n_ops, "count")
    for span in ("lindblad_engine.evolve", "fock_core.from_matrix",
                 "fock_core.trace_distance",
                 "freeform_solutions.fujii_density",
                 "gaussian_class.materialize", "gaussian_class.husimi_grid",
                 "observables.mean_n", "observables.resonance_scan"):
        out[f"{span}.self_s"] = metric(self_s.get(span, 0.0) / n_ops, "s")
    out["cli.bytes_written"] = metric(statistics.mean(written), "B")
    steps = counts["steps"] / n_ops
    out["lindblad_engine.rk4_steps"] = metric(steps, "count")
    out["lindblad_engine.records"] = metric(counts["records"] / n_ops, "count")
    out["lindblad_engine.rk4_steps_per_s"] = metric(
        steps / statistics.fmean(plain), "1/s")
    for d in PROBE_DIMS:
        out[f"lindblad_engine.lindblad_rhs.us.d{d}"] = metric(
            statistics.median(probes.samples[("rhs", d)]), "us")
        out[f"fock_core.density_diagnostics.us.d{d}"] = metric(
            statistics.median(probes.samples[("diag", d)]), "us")
    out["lindblad_engine.lindblad_rhs.bytes.d256"] = metric(
        float(rhs_bytes(lo, 256, probes.params)), "B")
    n = min(len(plain), len(traced))   # the same operations on both sides
    out["trace.overhead_frac"] = metric(
        statistics.fmean(traced[:n]) / statistics.fmean(plain[:n]) - 1.0,
        "frac")
    return out


def run(name, seed, seconds, trace, sizes, work_root):
    work = os.path.join(work_root, f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        lo, ops, setup_times = setup(name, seed, work, sizes)
        env = envinfo.collect(ROOT, SRC, seed)
        loop = Loop(ops)
        if trace:
            metrics = per_layer(lo, seed, loop, seconds, work_root, name)
        else:
            walls, _ = loop.window(seconds)
            metrics = end_to_end(walls, setup_times)
            env["wall_s_samples"] = walls
        env["setup_s_samples"] = setup_times
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for e in loop.errors[:20]:
        print(f"gate failure: {e}", file=sys.stderr)
    env["workload"] = name
    env["fail_frac"] = loop.failed / loop.attempted
    return env, {"correct": loop.failed == 0, "attempted": loop.attempted,
                 "failed": loop.failed, "metrics": metrics}


def smoke(work_root):
    """Every workload once at reduced size, both modes; checks the metric
    names and units against BENCHMARK.json and that every gate passed."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            _, res = run(w["name"], 1, 0.0, trace, workloads.SMOKE, work_root)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{w['name']} trace={trace}: metrics "
                                f"{sorted(set(got.items()) ^ set(want[trace].items()))}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{w['name']} trace={trace}: gates failed")
            bad = [k for k, v in res["metrics"].items()
                   if not isinstance(v["value"], (int, float))
                   or not math.isfinite(v["value"])]
            if bad:
                problems.append(f"{w['name']} trace={trace}: non-finite {bad}")
            print(f"smoke {w['name']} trace={trace}: "
                  f"{res['attempted']} ops, {res['failed']} failed")
    for p in problems:
        print(f"smoke problem: {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    work_root = os.path.join(ROOT, ".bench_work")
    try:
        if args.smoke:
            return smoke(work_root)
        if args.workload is None:
            ap.error("--workload is required")
        env, result = run(args.workload, args.seed, args.seconds, args.trace,
                          workloads.FULL, work_root)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
