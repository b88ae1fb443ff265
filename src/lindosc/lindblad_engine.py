"""Brute-force master-equation evolution on the truncated Fock basis.

The generator

    d rho/dt = -i[H, rho] + (mu/2)(2 a rho a+ - a+a rho - rho a+a)
                          + (nu/2)(2 a+ rho a - a a+ rho - rho a a+)

with H = omega*(a+a + 1/2) - conj(f(t))*a+ - f(t)*a is applied through its
band structure (every operator is a shifted diagonal), so one evaluation
costs O(dim^2). Time stepping is classic fixed-step 4th-order Runge-Kutta:
the generator is linear and non-stiff at desk scale, and a fixed step keeps
convergence-order measurements clean.

``lindblad_rhs`` evaluates L on any square matrix as the plain
allocating expression, term by term. The RK4 stepper ``_Workspace``
evaluates it on a layout that holds half of a Hermitian state, with the
buffers ``evolve`` steps through; the two share only K
(``_diagonal_band``). Each of the stepper's operations is a ufunc with
``out=`` whose operands and order are those of the plain expression
(the tests keep it as reference), so it matches it bitwise and a step
allocates no array. The whole step is one list of these calls, bound
once by ``_Workspace.load``.

Half storage is exact. L maps a Hermitian rho to an exactly Hermitian
L[rho] in value: the undriven terms do so entry by entry, and the two
drive terms are summed before they meet the rest, the second being the
conjugate transpose of the first. So RK4 keeps rho exactly Hermitian,
and its other half is the conjugate of the stored one.

The stepper evaluates L in row blocks of max(1, _BLOCK_ENTRIES // dim)
rows (about 256 KiB of each operand), every pass over one block before
the next block starts, so that at dim 256 the operands stay in L2.
Blocks are independent (each writes its own rows of the output and uses
its scratch up), so the result is bitwise that of whole-array passes.
The RK4 combination stays whole-array.

The records of ``evolve`` read a fresh row-major copy of the state that
``_Workspace.rho`` rebuilds. Their entropy and minimum eigenvalue come
from its spectrum, taken by ``fock_core._eigvalsh`` on the live levels
after zeroing the parts below eps^2 times its largest part; the state
itself is never floored.

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
    """dt=None picks the default step; snapshot_times must be a subset of
    the evolve time grid."""

    dt: float | None = None
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


def _checked_dt(params, drive, dt, t_end: float) -> float:
    """The step evolve takes up to t_end: dt, or default_dt when None.
    Raises ValueError unless it is positive, finite and countable."""
    if dt is None:
        dt = default_dt(params, drive)
    elif not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not t_end / dt <= _MAX_STEPS:
        raise ValueError(f"dt = {dt:.17g}: t_max = {t_end:.17g} takes more "
                         "steps than a float can count; increase dt")
    return dt


_NEG_ZERO = np.complex128(complex(-0.0, -0.0))  # x + (-0-0j) is x bitwise
_ZERO = np.complex128(0)  # x - (+0+0j) is x, and the drive's zero fill
_BLOCK_ENTRIES = 1 << 14  # about this many entries per row block (256 KiB)


def _every(first: int, stride: int, last: int, lo: int, hi: int) -> slice:
    """The entries first, first+stride, ... up to last that lie in
    [lo, hi), as a slice counted from lo."""
    start = first + max(0, -((first - lo) // stride)) * stride
    return slice(start - lo, max(start, min(hi, last + 1)) - lo, stride)


def _at(r: range, k: int) -> slice:
    return slice(r.start + k, r.stop + k)


def _diagonal_band(dim: int, params: LindbladParams) -> np.ndarray:
    """K, the part of L that scales each entry: L[rho] = K * rho plus the
    band products of mu, nu and the drive."""
    m = np.arange(dim, dtype=np.float64)
    # a a+ truncated is diagonal (1, 2, ..., dim-1, 0)
    aad = np.concatenate((np.arange(1.0, dim), [0.0]))
    return (-1j * params.omega * (m[:, None] - m[None, :])
            - 0.5 * params.mu * (m[:, None] + m[None, :])
            - 0.5 * params.nu * (aad[:, None] + aad[None, :]))


class _Workspace:
    """The RK4 stepper for one (dim, params) pair. It holds the bands of
    L, a scratch ``_s`` and (``driven``) the drive buffers ``_g`` and
    ``_g2`` of one row block each, and the buffers it steps: the stored
    half ``_rho`` of the state, the stage input ``_y`` (both with halo
    rows, in ``_xy``) and the slopes ``_k1``, ``_k2`` and ``_k3`` (k4
    reruns k3's calls). ``load`` copies the stored half of a start and
    binds the whole step once, as one list of ufunc calls on views of
    these buffers and of the scalars ``_h``, which ``step`` writes before
    it runs the list; ``rho`` rebuilds the matrix as a fresh copy.

    One layout holds every band and buffer: rho[i, (i+k) % dim] at
    k*dim + i for rows k = 0..dim//2, diagonal k joined at i = dim-k to
    diagonal k-dim; the stage inputs carry a halo row before row 0 and
    one after the last.

    Every band product is one flat run at a fixed offset (``_runs``). A
    run also meets the wrap slots that the 2-d slices of the plain
    expression skip (row ends, junctions, a first or last row); after
    each product they are set to the exact identity of the ufunc that
    follows (-0-0j before an add, +0+0j before a subtract) or to the
    reference's zero fill, so every entry keeps the bits of the plain
    expression quoted beside its ufunc, signed zeros included. The bands,
    scalars and fill values are complex, so that no call casts.

    Undriven, the rows are independent (every undriven term keeps i - j),
    and a row of +0.0 words stays so (the step adds signed zeros to
    +0.0). So ``load`` binds an undriven ``step`` to rows 0..kmax, the
    last row with a nonzero word: the populations alone from a
    Fock-diagonal start, bitwise as in the full step."""

    def __init__(self, dim: int, params: LindbladParams,
                 driven: bool = True):
        # rho[i, j] is stored in row (j-i) % dim up to dim//2, else
        # ``rho`` conjugates it into y: row dim-1-(j-i) % dim, column j
        n = (dim // 2 + 1) * dim
        ext = n + 2 * dim
        i, j = np.ogrid[:dim, :dim]
        d = (j - i) % dim
        self._src = np.where(d <= dim // 2, dim + d * dim + i,
                             ext + dim + (dim - 1 - d) * dim + j)
        del i, j, d
        wpad = np.append(np.sqrt(np.arange(1.0, dim)), 0.0)  # w_j, pad 0
        c = np.complex128
        self.dim, self._driven = dim, driven
        k, i = np.divmod(np.arange(n), dim)
        j = (i + k) % dim
        self._at = i * dim + j               # row-major index of each entry
        self.K = _diagonal_band(dim, params).ravel()[self._at]
        W2 = wpad[i] * wpad[j]
        if driven:                           # sqrt(i+1), sqrt(j+1) at (i, j)
            self.wr = wpad[i].astype(c)      # the second from row -1 on
            self.wt = np.append(np.roll(wpad, 1), wpad[j]).astype(c)
        self.muW2 = (params.mu * W2).astype(c)
        self.nuW2 = (params.nu * W2).astype(c)
        del k, i, j, W2   # temporaries: not live beside the buffers
        nb = min(max(1, _BLOCK_ENTRIES // dim) * dim, n)
        self._s = np.empty(nb, dtype=c)
        # h/2, h, h/6, 2, then 1j*conj(f), 1j*f per drive value of a step
        self._h = np.full(4 + 6 * driven, 2, dtype=c)
        if driven:
            self._g = np.empty(nb, dtype=c)
            self._g2 = np.empty(nb, dtype=c)
        self._xy = np.zeros(2 * ext, dtype=c)
        self._rho = self._xy[dim:dim + n]
        self._y = self._xy[ext + dim:ext + dim + n]
        self._k1, self._k2, self._k3 = np.empty((3, n), dtype=c)

    def _runs(self, rows: int) -> tuple:
        """Per term over the first ``rows`` rows (K rho, mu, nu, a+ rho,
        rho a+, a rho, rho a): its output entries [a, b), the offsets of
        its band and its input, and its wrap slots (first, stride, last)."""
        # Input offsets +1, -1, dim-1, dim, 1-dim and -dim, plus dim for
        # the halo row; junction k sits at (k+1)*(dim-1). Row 0's rho a
        # slot reads the halo's first word, which stays +0 (no halo copy
        # writes it), times a zero band entry: +0+0j, the identity.
        dim = self.dim
        n, e = rows * dim, rows * (dim - 1)
        ends = (dim - 1, dim, n)
        joins = (dim - 1, dim - 1, e)
        return ((0, n, 0, dim), (0, n - 1, 0, dim + 1, ends, joins),
                (1, n, -1, dim - 1, (dim, dim, n), (dim, dim - 1, e + 1)),
                (1, n, -1, 2 * dim - 1, (0, dim, n)),
                (0, n, dim, 2 * dim, joins), (0, n, 0, 1, ends),
                (0, n, 0, 0, (2 * dim - 1, dim - 1, e + 1)))

    def _bind(self, x: np.ndarray, o: np.ndarray, j: int) -> list:
        """The calls, as (function, arguments) pairs on views of the
        stepper's buffers, that write L[x] to o on the bound rows block by
        block, at the drive value whose coefficients are entries 2j+4 and
        2j+5 of ``_h``. The two drive terms are summed before they meet
        o, which keeps L[rho] exactly Hermitian (see the module
        docstring)."""
        dim, s, n = self.dim, self._s, self._stage[0].size
        calls = []
        if self._driven:                 # row k of the input is X[k+1]
            X, t = x.reshape(-1, dim), self.K.size // dim
            # rho[i, i-1] = conj(rho[i-1, i]); row t conjugates row dim-t
            # rotated by t
            r, d = X[dim - t + 1], dim - t
            calls += [(np.conjugate, (X[2, :-1], X[0, 1:])),
                      (np.conjugate, (r[t:], X[t + 1, :d])),
                      (np.conjugate, (r[:t], X[t + 1, d:]))]
            cfc, cf = self._h[2 * j + 4, ...], self._h[2 * j + 5, ...]
        for lo in self._blocks:
            hi = min(lo + s.size, n)
            cut = []
            for a, b, bs, xs, *slots in self._runs(n // dim):
                a = max(a, lo)
                r = range(a, max(a, min(b, hi)))
                cut.append((_at(r, 0), _at(r, -lo), _at(r, bs), x[_at(r, xs)],
                            [_every(*w, lo, hi) for w in slots]))
            (e, _, _, xe, _), (mu, smu, bmu, xm, (wm, wm2)), \
                (nu, snu, bnu, xn, (wn, wn2)) = cut[:3]
            out = o[e]
            calls += [
                (np.multiply, (self.K[e], xe, out)),          # out = K * rho
                (np.multiply, (self.muW2[bmu], xm, s[smu])),  # mu * a rho a+
                (s[wm].fill, (_NEG_ZERO,)),
                (s[wm2].fill, (_NEG_ZERO,)),
                (np.add, (o[mu], s[smu], o[mu])),
                (np.multiply, (self.nuW2[bnu], xn, s[snu])),  # nu * a+ rho a
                (s[wn].fill, (_NEG_ZERO,)),
                (s[wn2].fill, (_NEG_ZERO,)),
                (np.add, (o[nu], s[snu], o[nu]))]
            if not self._driven:
                continue
            # a+ rho and a rho go straight into g and g2; rho a+ and rho a
            # into the scratch, then are subtracted from them. Complex
            # scalars go first, as in c * g: the in-place g *= c runs the
            # operands the other way round and differs in the last bit.
            g, g2 = self._g[:hi - lo], self._g2[:hi - lo]
            (_, up, bup, xup, (wup,)), (_, nx, bnx, xnx, (wnx,)), \
                (_, dn, bdn, xdn, (wdn,)), (_, pv, bpv, xpv, (wpv,)) = cut[3:]
            calls += [
                (np.multiply, (self.wr[bup], xup, g[up])),    # g = a+ rho
                (g[wup].fill, (_ZERO,)),
                (np.multiply, (xnx, self.wt[bnx], s[nx])),    # - rho a+
                (s[wnx].fill, (_ZERO,)),
                (np.subtract, (g[nx], s[nx], g[nx])),
                (np.multiply, (self.wr[bdn], xdn, g2[dn])),   # g2 = a rho
                (g2[wdn].fill, (_ZERO,)),
                (np.multiply, (xpv, self.wt[bpv], s[pv])),    # - rho a
                (s[wpv].fill, (_ZERO,)),
                (np.subtract, (g2[pv], s[pv], g2[pv])),
                (np.multiply, (cfc, g, g)),   # out += cfc*g + cf*g2
                (np.multiply, (cf, g2, g2)),
                (np.add, (g, g2, g)),
                (np.add, (out, g, out))]
        return calls

    def load(self, m) -> None:
        """Copy the stored half of the start m, which must be exactly
        Hermitian in value, and bind ``step`` to its rows: all of them
        when driven, else rows 0..kmax, kmax the last row that holds a
        nonzero word (read as bits, so -0.0 counts). Called once, on a
        fresh stepper."""
        m = np.asarray(m, dtype=np.complex128)
        if not np.array_equal(m, m.conj().T):
            raise ValueError("the start must be exactly Hermitian")
        np.take(m, self._at, out=self._rho)
        rows = self.K.size // self.dim
        if not self._driven:
            live = self._rho.view(np.uint64).reshape(rows, -1).any(axis=1)
            rows = 1 + int(np.flatnonzero(live)[-1]) if live.any() else 1
        n = rows * self.dim
        self._stage = rho, y, k1, k2, k3 = [
            b[:n] for b in (self._rho, self._y, self._k1, self._k2, self._k3)]
        self._blocks = range(0, n, self._s.size)
        ext = self._xy.size // 2
        rho_in, y_in = self._xy[:ext], self._xy[ext:]   # with halo rows
        h2, h, h6, two = (self._h[i, ...] for i in range(4))
        k3_calls = self._bind(y_in, self._k3, 1)
        end = [(np.positive, (self._h[8:10], self._h[6:8]))] * self._driven
        self._calls = [
            *self._bind(rho_in, self._k1, 0),
            (np.multiply, (h2, k1, y)),     # y = rho + (0.5*h) * k1
            (np.add, (rho, y, y)),
            *self._bind(y_in, self._k2, 1),
            (np.multiply, (h2, k2, y)),     # y = rho + (0.5*h) * k2
            (np.add, (rho, y, y)),
            *k3_calls,
            (np.multiply, (h, k3, y)),      # y = rho + h * k3
            (np.add, (rho, y, y)),
            (np.add, (k2, k3, k2)),         # k1 = k1 + 2.0 * (k2 + k3)
            (np.multiply, (two, k2, k2)),
            (np.add, (k1, k2, k1)),
            *end,                           # k4 = L[y] into k3's buffer:
            *k3_calls,                      # k3's calls at the end value
            (np.add, (k1, k3, k1)),         # rho += (h/6.0) * (k1 + k4)
            (np.multiply, (h6, k1, k1)),
            (np.add, (rho, k1, rho))]

    @property
    def rho(self) -> np.ndarray:
        """The state as a fresh, writable (dim, dim) matrix on each read,
        from one gather: stored words, and the conjugates of stored words
        elsewhere, their zero parts +0.0."""
        dim = self.dim
        c = self._y[:dim * dim - self.K.size]
        np.conjugate(self._rho[dim:dim + c.size], c)
        np.add(c, 0.0, c)
        return np.take(self._xy, self._src, mode="clip")

    def step(self, h: float, f0, f_mid, f1) -> None:
        """One RK4 step of length h on rho, drive values at its start,
        midpoint and end, given exactly when the stepper was built driven
        (else None); bitwise
        rho += (h/6) * (k1 + 2*(k2 + k3) + k4) with k2 = L[rho + (h/2) k1]
        and so on. Writes the step's scalars, then runs the calls that
        ``load`` bound."""
        c = self._h
        c[0], c[1], c[2] = 0.5 * h, h, h / 6.0
        if self._driven:
            c[4], c[5] = 1j * f0.conjugate(), 1j * f0
            c[6], c[7] = 1j * f_mid.conjugate(), 1j * f_mid
            c[8], c[9] = 1j * f1.conjugate(), 1j * f1
        for fn, args in self._calls:
            fn(*args)


def lindblad_rhs(rho, t: float, params: LindbladParams,
                 drive: DriveFn | None = None) -> np.ndarray:
    """Right-hand side of the master equation at time t (dense matrix)."""
    m = _as_matrix(rho)
    dim = m.shape[0]
    if dim < 2:
        raise ValueError("need dim >= 2")
    drive = drive if drive is not None else DriveFn.none()
    w = np.sqrt(np.arange(1.0, dim))
    W2 = np.outer(w, w)
    out = _diagonal_band(dim, params) * m          # K rho
    out[:-1, :-1] += (params.mu * W2) * m[1:, 1:]  # mu a rho a+
    out[1:, 1:] += (params.nu * W2) * m[:-1, :-1]  # nu a+ rho a
    if not drive.is_active(params):
        return out
    f = drive.value(t, params)
    g, g2 = np.zeros((2, dim, dim), dtype=np.complex128)
    g[1:, :] = w[:, None] * m[:-1, :]              # g = a+ rho - rho a+
    g[:, :-1] -= m[:, 1:] * w
    g2[:-1, :] = w[:, None] * m[1:, :]             # g2 = a rho - rho a
    g2[:, 1:] -= m[:, :-1] * w
    out += (1j * np.conj(f)) * g + (1j * f) * g2
    return out


def evolve(rho0, t_grid, params: LindbladParams,
           drive: DriveFn | None = None,
           opts: IntegratorOptions | None = None) -> Trajectory:
    """Integrate the master equation, recording observables on t_grid.

    t_grid must be finite, start at 0 and increase strictly, and
    t_grid[-1] / dt must be at most _MAX_STEPS (2**53). A DensityMatrix
    start must be exactly Hermitian, as ``from_matrix`` and ``pure`` make
    it. The state is never re-Hermitized or renormalized: L keeps the
    trace and exact Hermiticity, so the stepper stores half of the state
    (see ``_Workspace``) and trace_err is the rounding of the whole run.
    A minimum eigenvalue below -1e-6 at any recorded time aborts with
    IntegrationDivergedError. Undriven, a step advances only the stored
    rows up to the last nonzero one: from a Fock-diagonal start, the
    populations.
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
    dt = _checked_dt(params, drive, opts.dt, t_grid[-1].item())

    dim = rho0.dim
    active = drive.is_active(params)
    st = _Workspace(dim, params, driven=active)

    def fval(t):
        return drive.value(t, params) if active else None

    st.load(rho0.matrix)
    del rho0          # the stepper holds the state now; free the start
    w = np.sqrt(np.arange(1.0, dim))
    n_diag = np.arange(dim, dtype=float)
    mean_a = np.empty(t_grid.size, dtype=np.complex128)
    mean_n, purity, entropy, trace_err, min_eig, top_pop = np.empty(
        (6, t_grid.size))
    snapshots: dict = {}
    warned = False
    for i, t1 in enumerate(t_grid.tolist()):
        if i > 0:
            t0 = t_grid[i - 1].item()
            span = t1 - t0
            n_sub = max(1, math.ceil(span / dt - 1e-9))
            h = span / n_sub
            for j in range(n_sub):
                t = t0 + j * h
                st.step(h, fval(t), fval(t + 0.5 * h), fval(t + h))

        rho = st.rho          # exactly Hermitian
        if not np.all(np.isfinite(rho)):
            raise IntegrationDivergedError(
                f"state became non-finite by t={t1:g}; "
                "reduce dt or increase dim")
        diag = np.diagonal(rho).real
        mean_a[i] = np.sum(w * np.diagonal(rho, -1))
        mean_n[i] = np.dot(n_diag, diag)
        top_pop[i] = diag[-1] + diag[-2]
        purity[i] = np.sum(np.square(np.abs(rho)))
        trace_err[i] = abs(complex(rho.trace()) - 1.0)
        eigs = _eigvalsh(rho)
        min_eig[i] = eigs[0]
        pos = eigs[eigs > 1e-300]
        entropy[i] = -np.dot(pos, np.log(pos)) + 0.0
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
        if i in snap_index:
            snap = DensityMatrix.from_matrix(
                rho, positivity_tol=-DIVERGENCE_EIG)
            snapshots.update(dict.fromkeys(snap_index[i], snap))

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
