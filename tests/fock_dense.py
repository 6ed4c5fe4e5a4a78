"""Dense ladder matrices built from ``fockspace.ladder_ops``' raising
tables, the reference the Fock-space and kernel tests compare against."""

import numpy as np

from nelsonlab.fockspace import ladder_ops


def dense_ladder(basis, j):
    """(a_j, adag_j) as dense matrices: column k of adag_j holds
    sqrt(n_j(k) + 1) at row src[k], and a_j is its transpose."""
    src, val = ladder_ops(basis, j)
    adag = np.zeros((basis.dim, basis.dim))
    adag[src, np.arange(src.size)] = val
    return adag.T.copy(), adag
