"""Brute-force master-equation evolution on the truncated Fock basis.

The generator

    d rho/dt = -i[H, rho] + (mu/2)(2 a rho a+ - a+a rho - rho a+a)
                          + (nu/2)(2 a+ rho a - a a+ rho - rho a a+)

with H = omega*(a+a + 1/2) - conj(f(t))*a+ - f(t)*a is applied through its
band structure (every operator is a shifted diagonal), so one evaluation
costs O(dim^2). Time stepping is classic fixed-step 4th-order Runge-Kutta:
the generator is linear and non-stiff at desk scale, and a fixed step keeps
convergence-order measurements clean.

One generator, ``_Generator``, evaluates L for ``lindblad_rhs``; the RK4
stepper ``_Workspace`` extends it with the stage buffers that ``evolve``
steps through. The generator allocates its bands, input and output
buffers of dim*dim entries, a scratch and (driven) a drive buffer of one
row block, and every view it takes once; the stepper adds three more
buffers. The bands are complex, so a step allocates no array. Every stage
is a ufunc with ``out=`` whose operands and order are those of the plain
RK4 expressions, so its states are bitwise the ones those expressions
give (the tests keep the allocating form as reference). On the flat
layout every band product is one contiguous run at offset dim+1, dim or
1; the row ends that a run at offset dim+1 or 1 crosses are set to the
exact identity of the add or subtract that follows (-0-0j or +0+0j), so
they leave every entry, signed zeros included, as the 2-d slices of the
plain expression would.

L is evaluated in row blocks of max(1, _BLOCK_ENTRIES // dim) rows, about
256 KiB of each operand, and every ufunc pass over one block runs before
the next block starts. At dim 256 an operand is 1 MiB, and one evaluation
makes 7 passes (21 driven) over six operands (nine driven): more than a
core's 2 MiB L2 holds, so whole-array passes go out to L3 and back, while
a block's slices stay in L2. Blocks are independent (the input is only
read, each block writes its own rows of the output, and the scratch and
the drive buffer are used up within the block), so every entry sees the
same operations in the same order and the result is bitwise that of
whole-array passes. At dim <= 128 there is one block. The RK4 combination
of the stages stays whole-array.

Without a drive, a state whose off-diagonal entries are all +0.0+0.0j
stays so, and its populations follow a closed rate equation: every
undriven term (omega a+a, a rho a+, a+ rho a and the anticommutators)
keeps m - n, so a diagonal entry of L reads diagonal entries only. From
such a start ``evolve`` binds the stepper to the diagonals of its
buffers and bands (``_Workspace.load``) and steps dim entries instead of
dim*dim, with the same operations in the same order; the off-diagonal
entries stay +0.0, which is what the full step leaves there, so the
states are bitwise those of the full step.

The records of ``evolve`` use the stepper's buffers that are free between
steps. Their entropy and minimum eigenvalue come from the spectrum of
(rho + rho^+)/2, taken by ``fock_core._eigvalsh``, which first zeroes the
parts below ``_SPECTRUM_FLOOR`` (about 2.8e-103) of that copy; the state
itself is never floored, so the stepper's states keep every bit. LAPACK
then sees only the live levels, those whose row of the copy keeps a
part, and each dead level adds the exact eigenvalue 0: the copy is
exactly Hermitian (rho[i, j] + conj(rho[j, i]) is the conjugate of
rho[j, i] + conj(rho[i, j]) bit for bit), so a zero row is a zero
column and the spectrum is that of the live block plus the zeros.

This module is the numerical oracle for every closed-form solver in the
package; conversely those solvers pin down this integrator in the tests.

The real-force convention ftilde(t) = sqrt(2*omega)*f(t) is supported as a
documented conversion only (``LindbladParams.ftilde0``), never as a second
code path.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fock_core import (
    HERM_TOL_EVOLVED,
    DensityMatrix,
    TruncationWarning,
    _as_matrix,
    _eigvalsh,
    _geometric_state,
    _phase_point,
)

__all__ = [
    "LindbladParams",
    "DriveFn",
    "IntegratorOptions",
    "Trajectory",
    "IntegrationDivergedError",
    "default_dt",
    "lindblad_rhs",
    "evolve",
    "steady_state",
]

DIVERGENCE_EIG = -1e-6  # min eigenvalue below this aborts the run
TOP_POP_WARN = 1e-6     # population in the top two levels worth a warning
_MAX_STEPS = 2.0 ** 53  # above this a float no longer counts steps exactly


class IntegrationDivergedError(RuntimeError):
    pass


def _store_real(obj, names) -> None:
    """Store each named field of the frozen dataclass obj as a float,
    or raise ValueError unless it is real and finite."""
    for name in names:
        v = getattr(obj, name)
        if isinstance(v, complex):
            raise ValueError(f"{name} must be real, got {v!r}")
        if not math.isfinite(float(v)):
            raise ValueError(f"{name} must be finite, got {v!r}")
        object.__setattr__(obj, name, float(v))


@dataclass(frozen=True)
class LindbladParams:
    """Physical parameters: frequency omega, loss mu, gain nu, drive (f0, Omega).

    mu > nu >= 0 is required throughout (net damping). Derived quantities:
    gamma = (mu-nu)/2, gamma_prime = (mu+nu)/2, nbar = nu/(mu-nu), and
    ftilde0 = sqrt(2*omega)*f0 for the real-force convention.
    """

    omega: float
    mu: float
    nu: float
    f0: float = 0.0
    Omega: float = 0.0

    def __post_init__(self):
        _store_real(self, ("omega", "mu", "nu", "f0", "Omega"))
        if not self.omega > 0:
            raise ValueError(f"omega must be > 0, got {self.omega}")
        if not (self.mu > self.nu >= 0):
            raise ValueError(
                f"need mu > nu >= 0, got mu={self.mu}, nu={self.nu}"
            )
        if not self.Omega >= 0:
            raise ValueError(f"Omega must be >= 0, got {self.Omega}")

    @property
    def gamma(self) -> float:
        return (self.mu - self.nu) / 2.0

    @property
    def gamma_prime(self) -> float:
        return (self.mu + self.nu) / 2.0

    @property
    def nbar(self) -> float:
        return self.nu / (self.mu - self.nu)

    @property
    def ftilde0(self) -> float:
        return math.sqrt(2.0 * self.omega) * self.f0


@dataclass(frozen=True)
class DriveFn:
    """Time dependence of the drive f(t).

    kind "none":    f(t) = 0
    kind "cosine":  f(t) = f0 * cos(Omega*t)        (f0, Omega from params)
    kind "fourier": f(t) = sum_k c_k e^{i k Omega t} with integer harmonics k
                    (requires Omega > 0)
    """

    kind: str
    harmonics: tuple = ()
    coefficients: tuple = ()

    def __post_init__(self):
        if self.kind not in ("none", "cosine", "fourier"):
            raise ValueError(f"unknown drive kind {self.kind!r}")
        if self.kind == "fourier":
            hs = tuple(self.harmonics)
            if not all(float(k).is_integer() for k in hs):
                raise ValueError(f"fourier harmonics must be integers, "
                                 f"got {hs!r}")
            ks = tuple(int(k) for k in hs)
            cs = tuple(complex(c) for c in self.coefficients)
            if len(ks) == 0 or len(ks) != len(cs):
                raise ValueError("fourier drive needs matching, nonempty "
                                 "harmonics and coefficients")
            if len(set(ks)) != len(ks):
                raise ValueError("fourier harmonics must be distinct")
            object.__setattr__(self, "harmonics", ks)
            object.__setattr__(self, "coefficients", cs)
        else:
            object.__setattr__(self, "harmonics", ())
            object.__setattr__(self, "coefficients", ())

    @classmethod
    def none(cls) -> "DriveFn":
        return cls(kind="none")

    @classmethod
    def cosine(cls) -> "DriveFn":
        return cls(kind="cosine")

    @classmethod
    def fourier(cls, harmonics, coefficients) -> "DriveFn":
        return cls(kind="fourier", harmonics=tuple(harmonics),
                   coefficients=tuple(coefficients))

    def terms(self, params: LindbladParams) -> tuple:
        """(k, c_k) pairs with f(t) = sum_k c_k e^{i k Omega t}."""
        if self.kind == "cosine":
            return ((1, 0.5 * params.f0), (-1, 0.5 * params.f0))
        return tuple(zip(self.harmonics, self.coefficients))

    def require_Omega(self, params: LindbladParams) -> None:
        """Raise ValueError for a fourier drive without a base frequency."""
        if self.kind == "fourier" and not params.Omega > 0:
            raise ValueError("fourier drive requires Omega > 0")

    def value(self, t: float, params: LindbladParams) -> complex:
        """f(t) at one time t (a float) from one cmath sum over the terms,
        the sum evolve integrates per RK4 stage."""
        self.require_Omega(params)
        W = params.Omega
        return sum([c * cmath.exp(1j * k * W * t)
                    for k, c in self.terms(params)], 0j)

    def max_frequency(self, params: LindbladParams) -> float:
        """Highest angular frequency present in f(t); sets the default step."""
        return max((abs(k) for k, _ in self.terms(params)),
                   default=0) * params.Omega

    def is_active(self, params: LindbladParams) -> bool:
        return any(c != 0 for _, c in self.terms(params))


@dataclass(frozen=True)
class IntegratorOptions:
    """dt=None picks the default step; renorm_every=0 disables the periodic
    re-Hermitization + trace renormalization (useful for convergence tests);
    snapshot_times must be a subset of the evolve time grid."""

    dt: float | None = None
    renorm_every: int = 100
    snapshot_times: tuple = ()


@dataclass
class Trajectory:
    """Observables recorded along an evolve run (one entry per grid time)."""

    mean_a: np.ndarray
    mean_n: np.ndarray
    mean_x: np.ndarray
    mean_p: np.ndarray
    purity: np.ndarray
    entropy: np.ndarray
    trace_err: np.ndarray
    min_eig: np.ndarray
    top_pop: np.ndarray
    snapshots: dict


def default_dt(params: LindbladParams, drive: DriveFn | None = None) -> float:
    drive = drive if drive is not None else DriveFn.none()
    f_max = max(params.omega, drive.max_frequency(params))
    return min(1e-3 * 2.0 * math.pi / params.omega,
               2.0 * math.pi / (200.0 * f_max))


_NEG_ZERO = complex(-0.0, -0.0)  # x + (-0-0j) is x bitwise, signed zeros too
_BLOCK_ENTRIES = 1 << 14  # about this many entries per row block (256 KiB)


def _cut(start: int, stop: int, lo: int, hi: int) -> slice:
    """[start, stop) meet [lo, hi), as a slice that may be empty."""
    start, stop = max(start, lo), min(stop, hi)
    return slice(start, max(start, stop))


def _shift(s: slice, k: int) -> slice:
    return slice(s.start + k, s.stop + k)


class _Generator:
    """The generator L for one (dim, params) pair: its bands, an input
    buffer ``rho``, an output buffer ``_k1``, a scratch buffer ``_s`` and,
    when built ``driven``, the drive's bands and buffer ``_g``; every view
    that ``_apply`` takes is bound here, once. Only a generator built
    ``driven`` can apply a drive value.

    Every buffer is flat: entry (i, j) sits at i*dim + j, and ``rho`` is
    the (dim, dim) view of the input buffer; ``_s`` and ``_g`` hold one
    row block, and a block's views of them start at their first entry.

    Every band product is one contiguous run at a fixed flat offset:
    mu a rho a+ reads rho at offset dim+1, nu a+ rho a writes at offset
    dim+1, a rho reads and a+ rho writes at offset dim, and rho a+ and
    rho a use offset 1. ``muW2``, ``nuW2`` and the tiled ``wt`` sit on
    the same grid with a pad column j = dim-1; the row band ``wr`` (w_i
    at i*dim + j) needs none, as a shift by dim crosses no row end. A run
    at offset dim+1 or 1 crosses the row ends that the 2-d slice skipped;
    after each product those wrap slots (the scratch entries whose band
    index is in the pad column) are set to the exact identity of the
    ufunc that follows, -0-0j before an add and +0+0j before a subtract,
    so that the entry they meet keeps its bits. Every operation is a
    ufunc with ``out`` whose operands come in the order of the plain
    expression quoted beside it, so the results are bitwise those of
    that expression, signed zeros included. The bands hold real values
    stored complex, so that no product casts.

    ``_apply`` runs in row blocks (see the module docstring). Per block,
    ``__init__`` binds the views of the bands, scratch and drive buffer
    once, and ``_bind`` those of an input and an output buffer: the
    block's whole rows for K, and each run cut to the band entries whose
    output falls in the block, which read up to one row beyond it on
    either side. A run's scratch starts at the scratch buffer's start, so
    its wrap slots start where the run's band index first meets the pad
    column.
    """

    # The flat buffers, allocated in this order: at small dims they share
    # the heap, and the order sets how their holes are reused.
    _BUFFERS = ("_rho", "_k1")

    def __init__(self, dim: int, params: LindbladParams,
                 driven: bool = True):
        m = np.arange(dim, dtype=np.float64)
        # a a+ truncated is diagonal (1, 2, ..., dim-1, 0)
        aad = np.concatenate((np.arange(1.0, dim), [0.0]))
        self.K = (
            -1j * params.omega * (m[:, None] - m[None, :])
            - 0.5 * params.mu * (m[:, None] + m[None, :])
            - 0.5 * params.nu * (aad[:, None] + aad[None, :])
        ).astype(np.complex128).ravel()
        w = np.sqrt(np.arange(1.0, dim))
        self.w = w
        n = dim * dim
        band = n - dim - 1                   # length of an offset dim+1 run
        nb = min(max(1, _BLOCK_ENTRIES // dim) * dim, n)  # one row block
        wpad = np.append(w, 0.0)             # w_j with the pad column
        W2 = np.outer(w, wpad).ravel()[:band]
        c = np.complex128
        self.muW2 = (params.mu * W2).astype(c)
        self.nuW2 = (params.nu * W2).astype(c)
        del W2            # a float temporary: not live beside the buffers
        for name in self._BUFFERS:
            setattr(self, name, np.empty(n, dtype=c))
        self._s = s = np.empty(nb, dtype=c)
        self.rho = self._rho.reshape(dim, dim)
        if driven:
            self.wt = np.tile(wpad, dim)[:n - 1].astype(c)  # w_j at i*dim+j
            self.wr = np.repeat(w.astype(c), dim)           # w_i at i*dim+j
            self._g = np.empty(nb, dtype=c)
        d = dim + 1

        def run(b):   # the scratch of a run over band entries b, wrap slots
            k = b.stop - b.start
            return s[:k], s[(dim - 1 - b.start) % dim:k:dim]

        # Per block: the slices of the input its terms read and of the
        # output they write, and its views of the bands, scratch and drive
        # buffer. Runs are cut by output index (mu, rho a+, a rho) or by
        # input index (nu, a+ rho, rho a).
        self._blocks = []
        for lo in range(0, n, nb):
            hi = min(lo + nb, n)
            e = slice(lo, hi)
            mu = _cut(lo, hi, 0, band)
            nu = _shift(_cut(lo, hi, d, n), -d)
            reads, writes = (e, _shift(mu, d), nu), (e, mu, _shift(nu, d))
            bands = (self.K[e], self.muW2[mu], *run(mu),
                     self.nuW2[nu], *run(nu))
            drive = None
            if driven:
                def g(b):   # the drive buffer at output entries b
                    return self._g[_shift(b, -lo)]
                up = _shift(_cut(lo, hi, dim, n), -dim)
                dn = _cut(lo, hi, 0, n - dim)
                tp, tm = _cut(lo, hi, 0, n - 1), _shift(_cut(lo, hi, 1, n), -1)
                reads += (up, _shift(tp, 1), _shift(dn, dim), tm)
                drive = (self._g[:hi - lo], g(_cut(lo, hi, 0, dim)),
                         self.wr[up], g(_shift(up, dim)),
                         self.wt[tp], *run(tp), g(tp),
                         g(_cut(lo, hi, n - dim, n)),
                         self.wr[dn], g(dn),
                         self.wt[tm], *run(tm), g(_shift(tm, 1)))
            self._blocks.append((reads, writes, bands, drive))
        self._rho_k1 = self._bind(self._rho, self._k1)

    def _bind(self, x: np.ndarray, o: np.ndarray) -> list:
        """Per block, every view that ``_apply`` takes to write L[x] to o:
        a tuple for the undriven terms and one for the drive term (None
        unless driven)."""
        bound = []
        for reads, writes, bands, drive in self._blocks:
            xs = [x[r] for r in reads]
            terms = (*xs[:3], *(o[w] for w in writes), *bands)
            if drive is not None:
                drive = (*xs[3:], *drive)
            bound.append((terms, drive))
        return bound

    def _apply(self, blocks: list, f) -> None:
        """Write L[x] at drive value f (None: no drive term) to o, block by
        block, on the views of (x, o) that ``_bind`` returned."""
        if f is not None:
            # Complex scalars go first, as in c * g: the in-place g *= c
            # runs the operands the other way round and differs in the
            # last bit.
            cfc, cf = 1j * np.conj(f), 1j * f
        for ((x, x_shift, x_band, out, out_band, out_shift,
              K, muW2, sm, wm, nuW2, sn, wn), drive) in blocks:
            np.multiply(K, x, out)               # out = K * rho
            np.multiply(muW2, x_shift, sm)       # mu * a rho a+
            wm.fill(_NEG_ZERO)
            np.add(out_band, sm, out_band)
            np.multiply(nuW2, x_band, sn)        # nu * a+ rho a
            wn.fill(_NEG_ZERO)
            np.add(out_shift, sn, out_shift)
            if f is None:
                continue
            (x_up, x_tail, x_down, x_head, g, g_first, wr_up, g_down,
             wt_tail, st, wrap_t, g_head, g_last, wr_dn, g_up, wt_head,
             sh, wrap_h, g_tail) = drive
            g_first.fill(0)
            np.multiply(wr_up, x_up, g_down)     # a+ rho
            np.multiply(x_tail, wt_tail, st)     # - rho a+
            wrap_t.fill(0)
            np.subtract(g_head, st, g_head)
            np.multiply(cfc, g, g)
            np.add(out, g, out)
            g_last.fill(0)
            np.multiply(wr_dn, x_down, g_up)     # a rho
            np.multiply(x_head, wt_head, sh)     # - rho a
            wrap_h.fill(0)
            np.subtract(g_tail, sh, g_tail)
            np.multiply(cf, g, g)
            np.add(out, g, out)


class _Workspace(_Generator):
    """The RK4 stepper for one (dim, params) pair: a ``_Generator`` whose
    input buffer ``rho`` is the state that ``step`` advances in place,
    plus the stage input ``_y`` and the stage slopes ``_k2`` and ``_k3``
    (k4 reuses k3's buffer), with the views of each stage bound once.
    Each stage's evaluation of L runs in row blocks, so at dim 256 its
    working set stays in L2 and the one-block scratch and drive buffers
    serve every stage; the RK4 combination stays whole-array.

    ``load`` copies a start into ``rho``. Undriven, from a start whose
    every off-diagonal entry is +0.0+0.0j bit for bit, it binds ``step``
    to the diagonals (flat stride dim+1) of the state, the stage buffers
    and the bands: one block of dim entries. This is exact: every
    undriven term keeps m - n, so a diagonal entry of L reads only
    diagonal entries, through the same operations in the same order, and
    its band products stop at level dim-2, short of the pad column, so
    the diagonal holds no wrap slot. Off the diagonal the full step reads
    zeros only, so it adds a signed zero to each +0.0 part, which leaves
    +0.0: the restricted step leaves there what the full step does."""

    _BUFFERS = ("_rho", "_y", "_k1", "_k2", "_k3")

    def __init__(self, dim: int, params: LindbladParams,
                 driven: bool = True):
        super().__init__(dim, params, driven)
        self._driven = driven
        self._y_k2 = self._bind(self._y, self._k2)
        self._y_k3 = self._bind(self._y, self._k3)

    def load(self, m) -> None:
        """Copy the start m into rho and, undriven from a start with
        every off-diagonal word zero, bind ``step`` to the diagonals.
        Called once, on a fresh stepper."""
        self.rho[...] = m
        dim = self.rho.shape[0]
        d = dim + 1
        off = self._rho[1:].reshape(dim - 1, d)[:, :dim]  # off the diagonal
        if self._driven or np.count_nonzero(off.view(np.uint64)):
            return
        for name in self._BUFFERS:
            setattr(self, name, getattr(self, name)[::d])
        x, lo, hi = slice(0, dim), slice(0, dim - 1), slice(1, dim)
        s, no_wrap = self._s[:dim - 1], self._s[:0]
        bands = (self.K[::d], self.muW2[::d], s, no_wrap,
                 self.nuW2[::d], s, no_wrap)
        self._blocks = [((x, hi, lo), (x, lo, hi), bands, None)]
        self._rho_k1 = self._bind(self._rho, self._k1)
        self._y_k2 = self._bind(self._y, self._k2)
        self._y_k3 = self._bind(self._y, self._k3)

    def step(self, h: float, f0, f_mid, f1) -> None:
        """One RK4 step of length h on rho, drive values at its start,
        midpoint and end; bitwise
        rho += (h/6) * (k1 + 2*(k2 + k3) + k4) with k2 = L[rho + (h/2) k1]
        and so on."""
        rho, y, k1, k2, k3 = self._rho, self._y, self._k1, self._k2, self._k3
        self._apply(self._rho_k1, f0)
        np.multiply(0.5 * h, k1, y)            # y = rho + (0.5*h) * k1
        np.add(rho, y, y)
        self._apply(self._y_k2, f_mid)
        np.multiply(0.5 * h, k2, y)            # y = rho + (0.5*h) * k2
        np.add(rho, y, y)
        self._apply(self._y_k3, f_mid)
        np.multiply(h, k3, y)                  # y = rho + h * k3
        np.add(rho, y, y)
        np.add(k2, k3, k2)                     # k1 = k1 + 2.0 * (k2 + k3)
        np.multiply(2.0, k2, k2)
        np.add(k1, k2, k1)
        self._apply(self._y_k3, f1)            # k4, into k3's buffer
        np.add(k1, k3, k1)                     # rho += (h/6.0) * (k1 + k4)
        np.multiply(h / 6.0, k1, k1)
        np.add(rho, k1, rho)


def lindblad_rhs(rho, t: float, params: LindbladParams,
                 drive: DriveFn | None = None) -> np.ndarray:
    """Right-hand side of the master equation at time t (dense matrix)."""
    m = _as_matrix(rho)
    if m.shape[0] < 2:
        raise ValueError("need dim >= 2")
    drive = drive if drive is not None else DriveFn.none()
    f = drive.value(t, params) if drive.is_active(params) else None
    gen = _Generator(m.shape[0], params, driven=f is not None)
    gen.rho[...] = m
    gen._apply(gen._rho_k1, f)
    return gen._k1.reshape(m.shape)


def evolve(rho0, t_grid, params: LindbladParams,
           drive: DriveFn | None = None,
           opts: IntegratorOptions | None = None) -> Trajectory:
    """Integrate the master equation, recording observables on t_grid.

    t_grid must be finite, start at 0 and increase strictly, and
    t_grid[-1] / dt must be at most _MAX_STEPS (2**53). Every
    opts.renorm_every steps the state is re-Hermitized and
    trace-renormalized. A minimum eigenvalue below -1e-6 at any recorded
    time aborts with IntegrationDivergedError.
    Without an active drive, from a start whose every off-diagonal entry
    is +0.0+0.0j bit for bit, each step advances the diagonal only (see
    ``_Workspace``); the records, renormalization and snapshots read the
    whole state, and every output is bitwise that of the full step.
    Each opts.snapshot_times entry must lie within 1e-12 of a grid time;
    its snapshot is keyed by the time asked for, not by the grid time it
    matched.
    """
    drive = drive if drive is not None else DriveFn.none()
    opts = opts if opts is not None else IntegratorOptions()

    if not isinstance(rho0, DensityMatrix):
        rho0 = DensityMatrix.from_matrix(rho0)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a nonempty 1-d sequence")
    if t_grid[0] != 0.0:
        raise ValueError(f"t_grid must start at 0, got {t_grid[0]}")
    if not np.all(np.isfinite(t_grid)):
        raise ValueError("t_grid must be finite")
    if not np.all(np.diff(t_grid) > 0):
        raise ValueError("t_grid must be strictly increasing")
    snap_index: dict = {}  # grid index -> the snapshot times asked for there
    for ts in opts.snapshot_times:
        hits = np.flatnonzero(np.isclose(t_grid, ts, rtol=0.0, atol=1e-12))
        if hits.size == 0:
            raise ValueError(f"snapshot time {float(ts)} is not on t_grid")
        snap_index.setdefault(int(hits[0]), []).append(float(ts))
    if opts.dt is not None and not 0 < opts.dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {opts.dt!r}")
    if not (float(opts.renorm_every).is_integer() and opts.renorm_every >= 0):
        raise ValueError(f"renorm_every must be an integer >= 0, "
                         f"got {opts.renorm_every!r}")

    dt = opts.dt if opts.dt is not None else default_dt(params, drive)
    t_end = t_grid[-1].item()
    if not t_end / dt <= _MAX_STEPS:
        raise ValueError(f"dt = {dt!r} is too small: t_grid up to {t_end!r} "
                         "takes more steps than a float can count")

    dim = rho0.dim
    active = drive.is_active(params)
    st = _Workspace(dim, params, driven=active)

    def fval(t):
        return drive.value(t, params) if active else None

    # k1 and y are free between steps: the records build |rho|^2 and herm
    # in k1, and the spectrum floor takes |herm|'s parts in y
    absq = st._k1.view(np.float64)[:dim * dim].reshape(dim, dim)
    herm = st._k1.reshape(dim, dim)
    herm_abs = st._y.view(np.float64).reshape(dim, 2 * dim)
    rho = st.rho
    st.load(rho0.matrix)
    del rho0          # the stepper holds the state now; free the start
    n_diag = np.arange(dim, dtype=float)
    mean_a = np.empty(t_grid.size, dtype=np.complex128)
    mean_n, purity, entropy, trace_err, min_eig, top_pop = np.empty(
        (6, t_grid.size))
    snapshots: dict = {}
    warned = False
    steps = 0
    for i, t1 in enumerate(t_grid.tolist()):
        if i > 0:
            t0 = t_grid[i - 1].item()
            span = t1 - t0
            n_sub = max(1, math.ceil(span / dt - 1e-9))
            h = span / n_sub
            for j in range(n_sub):
                t = t0 + j * h
                st.step(h, fval(t), fval(t + 0.5 * h), fval(t + h))
                steps += 1
                if opts.renorm_every and steps % opts.renorm_every == 0:
                    # rho = 0.5 * (rho + rho^+), then rho /= tr rho
                    np.conjugate(rho.T, herm)
                    np.add(rho, herm, rho)
                    np.multiply(0.5, rho, rho)
                    rho /= rho.trace().real

        if not np.all(np.isfinite(rho)):
            raise IntegrationDivergedError(
                f"state became non-finite by t={t1:g}; "
                "reduce dt or increase dim")
        diag = np.diagonal(rho).real
        mean_a[i] = np.sum(st.w * np.diagonal(rho, -1))
        mean_n[i] = np.dot(n_diag, diag)
        np.abs(rho, absq)                      # sum(np.abs(rho) ** 2)
        np.square(absq, absq)
        purity[i] = np.sum(absq)
        trace_err[i] = abs(complex(rho.trace()) - 1.0)
        np.conjugate(rho.T, herm)              # (rho + rho^+) / 2.0
        np.add(rho, herm, herm)
        np.divide(herm, 2.0, herm)
        eigs = _eigvalsh(herm, herm_abs)
        min_eig[i] = eigs[0]
        pos = eigs[eigs > 1e-300]
        entropy[i] = -np.dot(pos, np.log(pos)) + 0.0
        top_pop[i] = diag[-1] + diag[-2]
        if min_eig[i] < DIVERGENCE_EIG:
            raise IntegrationDivergedError(
                f"positivity lost at t={t1:g} (min eigenvalue "
                f"{min_eig[i]:.3e}); reduce dt or increase dim")
        if top_pop[i] > TOP_POP_WARN and not warned:
            warnings.warn(
                f"population {top_pop[i]:.3e} in the top two Fock levels "
                f"at t={t1:g}; results may be corrupted by truncation",
                TruncationWarning, stacklevel=2)
            warned = True
        for ts in snap_index.get(i, ()):
            snapshots[ts] = DensityMatrix.from_matrix(
                rho, herm_tol=HERM_TOL_EVOLVED, positivity_tol=1e-6)

    mean_x, mean_p = _phase_point(mean_a, params.omega)
    return Trajectory(mean_a=mean_a, mean_n=mean_n,
                      mean_x=mean_x, mean_p=mean_p, purity=purity,
                      entropy=entropy, trace_err=trace_err, min_eig=min_eig,
                      top_pop=top_pop, snapshots=snapshots)


def steady_state(params: LindbladParams, dim: int) -> DensityMatrix:
    """Drive-free stationary state: geometric diagonal with ratio nu/mu,
    renormalized over the truncated basis (|0><0| for nu=0).

    The truncated generator annihilates this state exactly: detailed balance
    mu*p_{n+1} = nu*p_n holds level by level, including the top level.
    """
    return _geometric_state(params.nu / params.mu, dim)
