"""Dense matrices for the tests: ladder matrices built from
``fockspace.ladder_ops``' raising tables, the reference the Fock-space and
kernel tests compare against, an assembled model on the whole grid, and
one probed column by column; and the basis order in closed form, the tests'
oracle of the shell pass, with the occupation table the basis no longer
keeps."""

import math

import numpy as np

from nelsonlab.fockspace import ladder_ops


def dense_ladder(basis, j):
    """(a_j, adag_j) as dense matrices: column k of adag_j holds
    sqrt(n_j(k) + 1) at row src[j, k], and a_j is its transpose."""
    src, val = (table[j] for table in ladder_ops(basis))
    adag = np.zeros((basis.dim, basis.dim))
    adag[src, np.arange(src.size)] = val
    return adag.T.copy(), adag


def whole_grid(model):
    """``model`` itself, given the whole grid's particle tables (every axis
    keeps its n points and the FFT; on the fiber its one point per Fock
    state), built and sampled here: the tests' reference operator.  A
    command's model reaches particle tables only through its solved sector
    and its blocks."""
    return model._particle_tables((0, 1, 2))


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


def occupations(basis):
    """The (D, M) occupation table, row d the n_j of state d: the unit
    vectors' ``mode_sum``."""
    return basis.mode_sum(np.eye(basis.mode_count, dtype=int))


def fock_rank(basis, occ):
    """The basis index of each occupation row of ``occ``, in closed form:
    the states with fewer bosons, then mode by mode those with fewer bosons
    in that mode, where comb[p, r] = C(r + p, p) counts the occupations of
    p modes by at most r bosons."""
    occ = np.atleast_2d(occ)
    m = basis.mode_count
    comb = np.array([[math.comb(r + p, p) for r in range(basis.n_max + 1)] for p in range(m + 1)])
    left = occ.sum(axis=1)
    index = np.where(left > 0, comb[m, left - 1], 0)
    for i in range(m - 1):
        index += comb[m - 1 - i, left] - comb[m - 1 - i, left - occ[:, i]]
        left = left - occ[:, i]
    return index
