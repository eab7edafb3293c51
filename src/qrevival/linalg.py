"""Qubit operators, kets and density matrices for two-qubit work.

Everything is a plain complex ndarray; products, Kronecker products and
adjoints are numpy's own (`@`, `np.kron`, `.conj().T`).

Basis convention: index 0 is the excited level (Z eigenvalue +1), index 1
the ground level. Two-qubit kets are ordered system-first:
|00>, |01>, |10>, |11>.
"""

from __future__ import annotations

import numpy as np

# ---------- constants ----------

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

KET0 = np.array([1, 0], dtype=complex)          # excited
KET1 = np.array([0, 1], dtype=complex)          # ground
KET_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2.0)

SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)  # |1><0|, excited -> ground


# ---------- operations ----------

def dm(psi: np.ndarray) -> np.ndarray:
    """Density matrix |psi><psi| from a (normalized) ket."""
    if psi.ndim != 1:
        raise ValueError(f"expected a ket (1-d array), got shape {psi.shape}")
    return np.outer(psi, psi.conj())

