"""The environment a result was measured in.

Recorded with every result: CPU model, CPU count, Python and numpy
versions, the BLAS vendor and its thread count, the commit (when the
checkout is a git repository) plus a digest of the package sources, and
the seed.  BLAS threading is read, never set.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas():
    import numpy as np
    deps = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
    info = deps.get("blas", {})
    vendor = f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS",
                                      "OMP_NUM_THREADS", "MKL_NUM_THREADS")
           if k in os.environ}
    return vendor, threads, env


def _git_sha(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(root, ".git", name)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"),
                  encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest(src: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, files in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def collect(root: str, src: str, seed: int) -> dict:
    import numpy as np
    vendor, threads, thread_env = _blas()
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": threads,
        "blas_thread_env": thread_env,
        "git_sha": _git_sha(root),
        "src_sha256": _src_digest(src),
        "seed": seed,
    }
