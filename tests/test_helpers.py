"""The reference helpers of ``conftest.py`` that other tests build on:
the truncated ladder operators and the expectation value."""

import math

import numpy as np
import pytest

from lindosc.fock_core import DensityMatrix, coherent_state

from conftest import expectation, ladder_ops


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
