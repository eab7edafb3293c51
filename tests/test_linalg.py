"""Checks for the qubit constants and the two-qubit operators built from them.

Expected matrices below are hand-expanded from the 2x2 definitions; none of
them are produced by the code under test.
"""

import numpy as np
import pytest

from qrevival import dynamics as dy
from qrevival import linalg as la


# hand expansion of kron(X,X) + kron(Y,Y) in the |00>,|01>,|10>,|11> ordering:
# X(x)X has antidiagonal ones; Y(x)Y has antidiagonal (-1, +1, +1, -1); the
# sum keeps only the middle entries.
XX_PLUS_YY = np.array(
    [
        [0, 0, 0, 0],
        [0, 0, 2, 0],
        [0, 2, 0, 0],
        [0, 0, 0, 0],
    ],
    dtype=complex,
)


def test_kron_xx_plus_yy_hand_expansion():
    assert np.array_equal(dy.build_xy_hamiltonian(1.0), XX_PLUS_YY)


def test_kron_identity_z_orderings():
    # system-first ordering: Z on the system is block-diagonal, Z on the
    # ancilla alternates.
    assert np.array_equal(dy.Z_S_OP, np.diag([1, 1, -1, -1]))
    assert np.array_equal(dy.Z_A_OP, np.diag([1, -1, 1, -1]))


def test_sigma_minus_lowers_excited_state():
    assert np.array_equal(la.SIGMA_MINUS, np.array([[0, 0], [1, 0]]))
    assert np.array_equal(la.SIGMA_MINUS @ la.KET0, la.KET1)
    assert np.array_equal(la.SIGMA_MINUS @ la.KET1, np.zeros(2))


def test_commutator_xy_is_2iz():
    assert np.allclose(la.X @ la.Y - la.Y @ la.X, 2j * la.Z, atol=1e-15)


def test_anticommutator_xx_is_2i():
    assert np.allclose(la.X @ la.X + la.X @ la.X, 2 * la.I2, atol=1e-15)


def test_dm_plus_state():
    assert np.allclose(la.dm(la.KET_PLUS), 0.5 * np.ones((2, 2)), atol=1e-15)


def test_expectation_z_on_basis_states():
    # basis convention: index 0 is the excited level, Z = +1
    def z_of(rho):
        return np.trace(la.Z @ rho).real

    assert z_of(la.dm(la.KET0)) == pytest.approx(1.0)
    assert z_of(la.dm(la.KET1)) == pytest.approx(-1.0)
    mixed = 0.25 * la.dm(la.KET0) + 0.75 * la.dm(la.KET1)
    assert z_of(mixed) == pytest.approx(-0.5)


def test_is_hermitian():
    assert np.array_equal(la.Y.conj().T, la.Y)
    assert not np.array_equal(la.SIGMA_MINUS.conj().T, la.SIGMA_MINUS)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        la.dm(la.I2)
