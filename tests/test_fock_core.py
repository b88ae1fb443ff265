import math

import numpy as np
import pytest

from lindosc.fock_core import (
    DensityMatrix,
    TruncationError,
    _eigvalsh,
    coherent_state,
    density_diagnostics,
    log_factorial,
    required_dim,
    trace_distance,
)
from lindosc.gaussian_class import GaussianState, materialize
from lindosc.lindblad_engine import IntegratorOptions, LindbladParams, evolve

from conftest import (
    SPECTRUM_TOL,
    enveloped_density,
    floored,
    ladder_ops,
)


@pytest.mark.parametrize("dim", [math.inf, -math.inf, math.nan, 1, 2.5])
def test_dim_rejects_non_finite(dim):
    # a ValueError naming dim, not the OverflowError of int(inf), for a
    # dim that is not finite, not an integer or below 2
    with pytest.raises(ValueError, match="dim must be an integer"):
        coherent_state(0.5, dim)


def test_coherent_state_amplitudes():
    al = 0.7 - 0.3j
    psi = coherent_state(al, 40)
    # c_n proportional to alpha^n / sqrt(n!)
    ref = np.array([al ** k / math.sqrt(math.factorial(k)) for k in range(40)])
    ref = ref / np.linalg.norm(ref)
    assert np.max(np.abs(psi - ref)) < 1e-14
    assert abs(np.vdot(psi, psi) - 1.0) < 1e-14


def test_coherent_state_is_lowering_eigenvector():
    al = 1.2 + 0.8j
    dim = 64
    psi = coherent_state(al, dim)
    a, _, _ = ladder_ops(dim)
    resid = a @ psi - al * psi
    # the defect lives in the truncated tail only
    assert np.max(np.abs(resid)) < 1e-8


def test_coherent_vacuum():
    psi = coherent_state(0.0, 8)
    assert psi[0] == 1.0
    assert np.count_nonzero(psi) == 1


def test_coherent_adequacy_guard():
    assert required_dim(0.0) == 10
    assert required_dim(2.0) == 26
    with pytest.raises(TruncationError):
        coherent_state(3.0, 8)


def test_adequacy_message_names_the_enforced_dim():
    # the guard accepts |alpha|^2 <= dim/4, so alpha = 3 needs dim 36
    assert len(coherent_state(3.0, 36)) == 36
    with pytest.raises(TruncationError, match=r"needs dim >= 36, got 35"):
        coherent_state(3.0, 35)


def test_log_factorial_against_lgamma():
    lf = log_factorial(50)
    ref = np.array([math.lgamma(k + 1) for k in range(50)])
    assert np.max(np.abs(lf - ref)) < 1e-10


def test_from_matrix_normalizes_and_validates():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    m = a @ a.conj().T  # positive, trace != 1
    rho = DensityMatrix.from_matrix(m)
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-14
    assert rho.dim == 5
    with pytest.raises(ValueError):
        DensityMatrix.from_matrix(m + 1j * np.eye(5))  # not Hermitian
    neg = np.diag([1.5, -0.5, 0.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        DensityMatrix.from_matrix(neg)
    with pytest.raises(ValueError):
        DensityMatrix.from_matrix(np.ones((1, 1), dtype=complex))


@pytest.mark.parametrize("call,needle", [
    (lambda: coherent_state(complex("nan"), 8), "alpha must be finite"),
    (lambda: coherent_state(float("inf"), 8), "alpha must be finite"),
    (lambda: DensityMatrix.from_matrix(np.ones((2, 3))), "square matrix"),
    (lambda: DensityMatrix.from_matrix(np.ones(4)), "square matrix"),
    (lambda: DensityMatrix.from_matrix(np.zeros((3, 3))),
     "trace must be positive"),
    (lambda: DensityMatrix.from_matrix(-np.eye(3)), "trace must be positive"),
], ids=["nan-alpha", "inf-alpha", "non-square", "vector", "zero-trace",
        "negative-trace"])
def test_invalid_inputs_raise(call, needle):
    with pytest.raises(ValueError, match=needle):
        call()


def test_density_matrix_is_read_only():
    rho = DensityMatrix.pure(coherent_state(0.5, 16))
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 2.0


def test_pure_state_unit_trace_without_normalized_input():
    psi = np.array([3.0, 4.0], dtype=complex)  # norm 5
    rho = DensityMatrix.pure(psi)
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-15
    assert abs(rho.matrix[0, 0] - 9.0 / 25.0) < 1e-15


def test_pure_state_is_exactly_hermitian():
    # numpy's complex multiply may fuse, which rounds psi_i psi_j* and
    # psi_j psi_i* apart; the stepper stores half of its start
    psi = coherent_state(1.1 - 0.4j, 24)
    m = DensityMatrix.pure(psi).matrix
    assert np.array_equal(m, m.conj().T)
    assert np.max(np.abs(m - np.outer(psi, psi.conj()))) < 1e-15


def test_density_diagnostics_fields():
    rho = DensityMatrix.pure(coherent_state(0.3, 12))
    d = density_diagnostics(rho)
    assert d.trace_err < 1e-14
    assert d.herm_err < 1e-14
    assert d.min_eig > -1e-14
    bad = density_diagnostics(np.full((3, 3), np.nan + 0j))
    assert math.isnan(bad.trace_err)


def test_trace_distance_extremes():
    e0 = DensityMatrix.pure(coherent_state(0.0, 6))
    one = np.zeros(6, dtype=complex)
    one[1] = 1.0
    e1 = DensityMatrix.pure(one)
    assert abs(trace_distance(e0, e1) - 1.0) < 1e-14
    assert trace_distance(e0, e0) == 0.0


def test_trace_distance_dimension_mismatch():
    a = DensityMatrix.pure(coherent_state(0.3, 6))
    b = DensityMatrix.pure(coherent_state(0.3, 8))
    with pytest.raises(ValueError, match=r"dimension mismatch: "
                       r"rho1 \(6, 6\) vs rho2 \(8, 8\)"):
        trace_distance(a, b)


def _entropy(eigs):
    pos = eigs[eigs > 1e-300]
    return -np.dot(pos, np.log(pos)) + 0.0


# the small-dim Gaussians spill past their basis, which two spectra of the
# same matrix do not mind
@pytest.mark.filterwarnings("ignore::lindosc.fock_core.TruncationWarning")
def test_floored_spectrum_matches_raw_eigvalsh():
    rng = np.random.default_rng(20261019)
    zeroed = 0
    for dim in (8, 32, 64, 128, 256):
        reach = min(2.0, 0.9 * math.sqrt(dim / 4.0))
        for _ in range(2):
            alpha = rng.uniform(0.3, reach) * np.exp(2j * np.pi * rng.uniform())
            u = rng.uniform(0.05, 0.4)
            states = (
                DensityMatrix.pure(coherent_state(alpha, dim)),
                materialize(GaussianState(u=u, beta=alpha * (1 - u)), dim),
                enveloped_density(dim, rng, ratio=rng.uniform(0.02, 0.4)),
            )
            for rho in states:
                h = rho.matrix
                zeroed += np.count_nonzero(
                    floored(h).view(np.float64) != h.view(np.float64))
                raw = np.linalg.eigvalsh(h)
                eigs = _eigvalsh(h)
                assert np.max(np.abs(eigs - raw)) < SPECTRUM_TOL
                assert abs(_entropy(eigs) - _entropy(raw)) < SPECTRUM_TOL
    assert zeroed > 0   # the sweep reaches states the floor changes


def test_floor_never_reaches_caller_data():
    # unit trace, empty top levels and off-diagonal parts of about 1e-150,
    # which the spectrum floor zeroes in its own copies
    m = np.diag([0.5, 0.25, 0.125, 0.125, 0.0, 0.0]).astype(np.complex128)
    m[0, 3] = 1e-150 - 3e-151j
    m[1, 2] = -2e-150 + 1e-150j
    m += np.triu(m, 1).conj().T
    before = m.tobytes()
    assert DensityMatrix.from_matrix(m).matrix.tobytes() == before
    trace_distance(m, np.diag(np.diagonal(m)))
    density_diagnostics(m)
    assert m.tobytes() == before
    p = LindbladParams(omega=1.0, mu=0.5, nu=0.1)
    traj = evolve(m, [0.0], p, opts=IntegratorOptions(snapshot_times=(0.0,)))
    assert traj.snapshots[0.0].matrix.tobytes() == before


def _dead_levels(h):
    """Levels whose row of h is all zeros once the floor has run."""
    return ~np.any(floored(h) != 0, axis=1)


def _support_density(dim, support, rng):
    """Random mixed state on the Fock levels of the boolean mask
    ``support``, with parts of about 1e-150 (below the floor) on the rest."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a[~support] = 1e-150 * a[~support]
    m = a @ a.conj().T
    return (m + m.conj().T) / (2.0 * m.trace().real)


def _indefinite(dim, support, rng):
    """Hermitian matrix of unit Frobenius norm with both signs in its
    spectrum, zero outside ``support``."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a[~support] = 0.0
    a[:, ~support] = 0.0
    m = (a + a.conj().T) / 2.0
    return m / np.linalg.norm(m)


def test_live_level_spectrum_matches_raw_eigvalsh():
    rng = np.random.default_rng(20261020)
    seen = set()
    for dim in (2, 3, 5, 17, 64, 128, 256):
        n = np.arange(dim)
        supports = {
            "none dead": np.ones(dim, dtype=bool),
            "tail": n < max(1, dim // 2),
            "interior": n % 2 == 0,
            "one live": n == dim // 3,
        }
        for kind, support in supports.items():
            for make in (_support_density, _indefinite):
                m = make(dim, support, rng)
                h = m.copy()
                dead = _dead_levels(h)
                assert np.array_equal(dead, ~support), (dim, kind)
                seen.add(kind)
                raw = np.linalg.eigvalsh(m)
                eigs = _eigvalsh(h)
                assert eigs.shape == (dim,)
                assert np.all(np.diff(eigs) >= 0)
                assert np.count_nonzero(eigs == 0.0) >= dead.sum()
                assert np.max(np.abs(eigs - raw)) < SPECTRUM_TOL
                assert abs(_entropy(eigs) - _entropy(raw)) < SPECTRUM_TOL
    assert seen == {"none dead", "tail", "interior", "one live"}


@pytest.mark.parametrize("dim", [2, 3, 256])
def test_all_dead_levels_skip_lapack(dim, monkeypatch):
    def no_lapack(h):
        raise AssertionError("LAPACK called on a matrix with no live level")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_lapack)
    tiny = np.full((dim, dim), 1e-150 - 1e-160j)
    tiny = (tiny + tiny.conj().T) / 2.0
    for h in (np.zeros((dim, dim), dtype=np.complex128), tiny):
        eigs = _eigvalsh(h)
        assert eigs.dtype == np.float64
        assert eigs.tobytes() == np.zeros(dim).tobytes()


def test_lapack_sees_only_the_live_levels(monkeypatch):
    rho = DensityMatrix.pure(coherent_state(1.25, 256))
    dead = _dead_levels(rho.matrix)
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(h):
        shapes.append(h.shape)
        return eigvalsh(h)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    eigs = _eigvalsh(rho.matrix)      # read-only: the floor writes a copy
    live = 256 - int(dead.sum())
    # every row of the pure state holds a nonzero part, so a level is
    # dead only because the floor emptied it
    assert np.all(np.any(rho.matrix != 0, axis=1))
    assert shapes == [(live, live)] and live == 55
    assert eigs.shape == (256,)
    assert np.max(np.abs(eigs - eigvalsh(rho.matrix))) < SPECTRUM_TOL


def _lapack_inputs(monkeypatch):
    """The list that every later np.linalg.eigvalsh call appends its input
    to."""
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a):
        seen.append(a.copy())
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return seen


@pytest.mark.parametrize("c", [1e-30, 1.0, 1e30])
@pytest.mark.parametrize("kind", ["coherent", "gaussian"])
def test_floor_follows_the_matrix_scale(kind, c, monkeypatch):
    # the floor is eps**2 times the largest part, so c * h keeps the parts
    # of h that h keeps: LAPACK gets c times the same live submatrix, and
    # the spectrum scales with c up to LAPACK's rounding
    alpha = 1.25 * np.exp(0.7j)
    h = (DensityMatrix.pure(coherent_state(alpha, 256)) if kind == "coherent"
         else materialize(GaussianState.from_alpha(0.2, alpha), 256)).matrix
    seen = _lapack_inputs(monkeypatch)
    eigs = _eigvalsh(h)
    scaled = _eigvalsh(c * h)
    a, a_scaled = seen
    assert a.shape[0] < 100
    assert a_scaled.tobytes() == (c * a).tobytes()
    assert np.max(np.abs(scaled - c * eigs)) < c * SPECTRUM_TOL


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_part_keeps_its_row_and_the_scale(bad, monkeypatch):
    # a bare max over the parts would make the floor NaN or inf, and an
    # inf floor zeroes every finite part; the floor comes from the finite
    # parts, and the row of the non-finite part stays live
    m = np.diag([0.5, 0.25, 0.125, 0.125, 0.0, 0.0]).astype(np.complex128)
    m[0, 3] = 1e-20 - 3e-21j     # above eps**2 * 0.5, about 2.5e-32
    m[1, 2] = 1e-40              # below it
    m[4, 5] = bad
    m += np.triu(m, 1).conj().T
    seen = []          # LAPACK is not called: it may reject a NaN or inf
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: seen.append(a.copy()) or np.zeros(len(a)))
    _eigvalsh(m)
    a, = seen
    assert a.shape == (6, 6)
    assert a[0, 3] == m[0, 3] and a[1, 2] == 0.0
    assert np.array_equal(a, floored(m), equal_nan=True)


@pytest.mark.parametrize("dim", [2, 33, 256])
def test_no_dead_level_spectrum_is_bitwise_the_floored_eigvalsh(dim, rng):
    # parts below the floor, but no row made of them only: LAPACK gets the
    # whole floored matrix, as before live levels were split off. At dim
    # 256 the rows fall to about 0.6**128 ~ 1e-28 of the top, above the
    # floor of eps**2 ~ 5e-32 times it, and their far parts below it
    m = enveloped_density(dim, rng, ratio=0.6).matrix
    assert not _dead_levels(m).any()
    ref = floored(m)
    if dim == 256:
        assert not np.array_equal(ref, m)   # the floor does zero parts
    assert _eigvalsh(m).tobytes() == np.linalg.eigvalsh(ref).tobytes()
