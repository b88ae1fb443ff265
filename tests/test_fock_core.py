import math

import numpy as np
import pytest

from lindosc.fock_core import (
    _SPECTRUM_FLOOR,
    DensityMatrix,
    TruncationError,
    _eigvalsh,
    coherent_state,
    density_diagnostics,
    expectation,
    ladder_ops,
    log_factorial,
    required_dim,
    trace_distance,
)
from lindosc.gaussian_class import GaussianState, materialize
from lindosc.lindblad_engine import IntegratorOptions, LindbladParams, evolve

from conftest import enveloped_density


def test_ladder_action():
    a, ad, n = ladder_ops(6)
    for j in range(1, 6):
        e = np.zeros(6)
        e[j] = 1.0
        lowered = a @ e
        assert abs(lowered[j - 1] - math.sqrt(j)) < 1e-15
        assert np.count_nonzero(lowered) == 1
    assert np.allclose(ad, a.conj().T)
    assert np.allclose(n, ad @ a)


def test_ladder_commutator_truncation():
    # [a, a+] = 1 except the corner entry, which absorbs the cutoff
    a, ad, _ = ladder_ops(9)
    c = a @ ad - ad @ a
    assert np.allclose(np.diagonal(c)[:-1], 1.0)
    assert abs(c[-1, -1] - (-(9 - 1))) < 1e-12
    assert np.max(np.abs(c - np.diag(np.diagonal(c)))) == 0.0


def test_ladder_ops_validation():
    with pytest.raises(ValueError):
        ladder_ops(1)
    with pytest.raises(ValueError):
        ladder_ops(2.5)


@pytest.mark.parametrize("dim", [math.inf, -math.inf, math.nan])
def test_dim_rejects_non_finite(dim):
    # a ValueError naming dim, not the OverflowError of int(inf)
    with pytest.raises(ValueError, match="dim must be an integer"):
        ladder_ops(dim)
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


def test_expectation_photon_number_of_coherent_state():
    al = 1.1 - 0.4j
    dim = 48
    rho = DensityMatrix.pure(coherent_state(al, dim))
    _, _, n = ladder_ops(dim)
    val = expectation(n, rho)
    assert abs(val - abs(al) ** 2) < 1e-10
    assert abs(val.imag) < 1e-12


def test_expectation_shape_mismatch():
    _, _, n = ladder_ops(4)
    rho = DensityMatrix.pure(coherent_state(0.0, 8))
    with pytest.raises(ValueError):
        expectation(n, rho)


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


# Each of the two LAPACK runs errs by O(dim * eps * ||rho||), about 5.7e-14
# at dim 256 for a density matrix, and the floor moves each exact
# eigenvalue by at most sqrt(2) * dim * _SPECTRUM_FLOOR, about 1e-100
# (Weyl); the entropy sum is held to the same tolerance.
SPECTRUM_TOL = 1e-13


# the small-dim Gaussians spill past their basis, which two spectra of the
# same matrix do not mind
@pytest.mark.filterwarnings("ignore::lindosc.fock_core.TruncationWarning")
def test_floored_spectrum_matches_raw_eigvalsh():
    rng = np.random.default_rng(20261019)
    floored = 0
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
                h = rho.matrix.copy()
                parts = h.view(np.float64)
                floored += np.count_nonzero(
                    (parts != 0) & (np.abs(parts) < _SPECTRUM_FLOOR))
                raw = np.linalg.eigvalsh(rho.matrix)
                eigs = _eigvalsh(h)
                assert np.max(np.abs(eigs - raw)) < SPECTRUM_TOL
                assert abs(_entropy(eigs) - _entropy(raw)) < SPECTRUM_TOL
    assert floored > 0   # the sweep reaches states the floor changes


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
