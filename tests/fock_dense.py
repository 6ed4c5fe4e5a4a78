"""Dense matrices for the tests: ladder matrices built from
``fockspace.ladder_ops``' raising tables, the reference the Fock-space and
kernel tests compare against, and an assembled model probed column by
column."""

import numpy as np

from nelsonlab.fockspace import ladder_ops


def dense_ladder(basis, j):
    """(a_j, adag_j) as dense matrices: column k of adag_j holds
    sqrt(n_j(k) + 1) at row src[j, k], and a_j is its transpose."""
    src, val = (table[j] for table in ladder_ops(basis))
    adag = np.zeros((basis.dim, basis.dim))
    adag[src, np.arange(src.size)] = val
    return adag.T.copy(), adag


def dense(model):
    """The assembled operator as a dense matrix, column i its matvec of the
    i-th unit vector (small models only)."""
    assert model.dim <= 4000, model.dim
    out = np.empty((model.dim, model.dim), dtype=complex)
    probe = np.zeros(model.dim, dtype=complex)
    for i in range(model.dim):
        probe[i] = 1.0
        out[:, i] = model.matvec(probe)
        probe[i] = 0.0
    return out
