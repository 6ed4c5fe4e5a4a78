"""Tests for the discrete mode grid and truncated Fock-space operators."""

import itertools
import math
import subprocess
import sys

import numpy as np
import pytest

from fock_dense import dense_ladder
from nelsonlab import fockspace as fs
from nelsonlab.model import ParameterError

TWO_PI_CUBED = (2.0 * math.pi) ** 3


# ---------------------------------------------------------------------------
# mode grids
# ---------------------------------------------------------------------------


def test_one_point_grid_carries_exact_shell_volume():
    kappa, lam = 0.3, 2.0
    g = fs.build_modes(kappa, lam, n_radial=1, n_angular=1)
    assert g.count == 1
    # single node sits at the midpoint radius, along +z
    np.testing.assert_allclose(g.k[0], [0.0, 0.0, 0.5 * (kappa + lam)])
    shell_volume = 4.0 * math.pi * (lam**3 - kappa**3) / 3.0
    assert g.w[0] == pytest.approx(shell_volume / TWO_PI_CUBED, rel=1e-15)


def test_gauss_radial_weights_integrate_r2_exactly():
    kappa, lam = 0.1, 10.0
    for n_radial in (2, 5, 8):
        g = fs.build_modes(kappa, lam, n_radial=n_radial, n_angular=1)
        shell_volume = 4.0 * math.pi * (lam**3 - kappa**3) / 3.0
        assert g.w.sum() == pytest.approx(shell_volume / TWO_PI_CUBED, rel=1e-13)


def test_gauss_legendre_matches_leggauss():
    """The Golub-Welsch rule reproduces numpy's leggauss: nodes within
    4.4e-16 (measured 3.3e-16) and weights within 1e-14 relative (measured
    6.2e-15; the eigenvector components carry the weights' rounding)."""
    from numpy.polynomial.legendre import leggauss

    for n in range(1, 13):
        x, w = fs._gauss_legendre(n)
        x_ref, w_ref = leggauss(n)
        assert np.max(np.abs(x - x_ref)) <= 4.4e-16, n
        assert np.max(np.abs(w - w_ref) / w_ref) <= 1e-14, n


def test_radial_modes_do_not_load_numpy_polynomial():
    code = ("import sys; from nelsonlab.fockspace import build_modes; "
            "build_modes(0.3, 2.0, 4, 6); print('numpy.polynomial' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_angular_nodes_cover_sphere_with_equal_weights():
    g = fs.build_modes(1.0, 2.0, n_radial=1, n_angular=7)
    assert g.count == 7
    radii = np.linalg.norm(g.k, axis=1)
    np.testing.assert_allclose(radii, 1.5, rtol=1e-13)
    # all weights equal by construction
    assert np.ptp(g.w) < 1e-18


def test_soft_hard_split_against_unit_boundary():
    g = fs.build_modes(0.1, 10.0, n_radial=6, n_angular=1)
    assert np.count_nonzero(g.soft_mask) == 1
    assert np.count_nonzero(~g.soft_mask) == 5
    norms = np.linalg.norm(g.k, axis=1)
    assert np.all(norms[g.soft_mask] <= fs.SOFT_BOUNDARY)


def test_build_modes_rejects_bad_windows():
    with pytest.raises(ParameterError):
        fs.build_modes(2.0, 1.0, 1, 1)
    with pytest.raises(ParameterError):
        fs.build_modes(0.1, math.inf, 1, 1)


# ---------------------------------------------------------------------------
# occupation basis
# ---------------------------------------------------------------------------


def test_basis_dimension_and_ordering():
    b = fs.FockBasis(4, 2)
    assert b.dim == math.comb(4 + 2, 2) == 15
    assert tuple(b.occupations[0]) == (0, 0, 0, 0)
    totals = b.totals()
    assert np.all(np.diff(totals) >= 0)  # graded
    assert len({tuple(o) for o in b.occupations}) == b.dim  # bijective
    every = (o for o in itertools.product(range(3), repeat=4) if sum(o) <= 2)
    assert [tuple(o) for o in b.occupations] == sorted(every, key=lambda o: (sum(o), o))


def _occupations_by_unique(b):
    """The occupation table built by raising every state of the last shell
    in every mode and keeping each new state once, ordered by its index."""
    m = b.mode_count
    shells = [np.zeros((1, m), dtype=np.int32)]
    for _ in range(b.n_max):
        raised = (shells[-1][:, None, :] + np.eye(m, dtype=np.int32)).reshape(-1, m)
        shells.append(raised[np.unique(b._indices(raised), return_index=True)[1]])
    return np.concatenate(shells)


@pytest.mark.parametrize("mode_count, n_max", [(1, 0), (1, 5), (5, 0), (4, 3), (7, 4), (24, 3)])
def test_basis_makes_each_state_once(mode_count, n_max):
    b = fs.FockBasis(mode_count, n_max)
    assert b.dim == math.comb(mode_count + n_max, n_max)
    np.testing.assert_array_equal(b._indices(b.occupations), np.arange(b.dim))
    expected = _occupations_by_unique(b)
    assert b.occupations.dtype == expected.dtype
    np.testing.assert_array_equal(b.occupations, expected)


def test_vacuum_vector():
    b = fs.FockBasis(3, 2)
    v = fs.vacuum_vector(b)
    assert v[0] == 1.0
    assert np.linalg.norm(v) == 1.0


# ---------------------------------------------------------------------------
# ladder operators
# ---------------------------------------------------------------------------


def _rank(b, occ):
    """The basis index of one occupation tuple."""
    return b._indices(np.array([occ]))[0]


def test_ladder_matrix_elements():
    b = fs.FockBasis(2, 3)
    a, adag = dense_ladder(b, 0)
    vac = fs.vacuum_vector(b)
    assert np.all((a @ vac) == 0.0)
    one = adag @ vac
    assert one[_rank(b, (1, 0))] == pytest.approx(1.0)
    two = adag @ one
    assert two[_rank(b, (2, 0))] == pytest.approx(math.sqrt(2.0))
    got = (adag @ a) @ two
    assert got[_rank(b, (2, 0))] == pytest.approx(2.0 * math.sqrt(2.0))


def test_ladder_lookup_matches_index_of():
    b = fs.FockBasis(6, 4)
    occ = b.occupations
    below_top = b.totals() < b.n_max
    tables = fs.ladder_ops(b)
    for j in range(b.mode_count):
        src, val = (table[j] for table in tables)
        # the table covers exactly the states below the top shell, which come first
        assert below_top[: src.size].all() and not below_top[src.size:].any()
        # every state with n_j > 0 is hit exactly once, and no other state
        np.testing.assert_array_equal(np.bincount(src, minlength=b.dim), occ[:, j] > 0)
        for k in range(src.size):
            raised = occ[k].copy()
            raised[j] += 1
            assert src[k] == _rank(b, raised) == np.flatnonzero((occ == raised).all(axis=1))[0]
            assert val[k] == math.sqrt(occ[k, j] + 1)


@pytest.mark.parametrize("m,n_max", [(1, 0), (1, 3), (5, 0), (7, 1), (12, 3), (40, 2), (24, 4)])
def test_raising_table_matches_the_rank_of_each_raised_state(m, n_max):
    """The shell pass gives each mode's table exactly what the closed-form
    rank ``_indices`` gives the raised occupations, also with no boson
    allowed, with one mode, and at effmass-fiber's basis (M = 24, N_max =
    4), where states raise below their last occupied mode through up to
    three parents.  The table is the basis's own, so it is read-only."""
    b = fs.FockBasis(m, n_max)
    K = b.dim - math.comb(m - 1 + n_max, n_max)  # the states below the top shell
    tables = fs.ladder_ops(b)
    assert not tables[0].flags.writeable
    for j in range(m):
        raised = b.occupations[:K].copy()
        raised[:, j] += 1
        src, val = (table[j] for table in tables)
        assert src.dtype == np.int64 and src.shape == (K,)
        np.testing.assert_array_equal(src, b._indices(raised))
        np.testing.assert_array_equal(val, np.sqrt(raised[:, j].astype(float)))


def test_commutator_identity_below_top_shell():
    b = fs.FockBasis(3, 3)
    for j in range(3):
        a, adag = dense_ladder(b, j)
        comm = a @ adag - adag @ a
        dev = comm - np.eye(b.dim)
        bad_rows = np.nonzero(np.abs(dev).max(axis=1) > 1e-12)[0]
        # the truncation defect lives only on the top occupation shell
        assert np.all(b.totals()[bad_rows] == b.n_max)
        low = b.totals() < b.n_max
        assert np.abs(dev[np.ix_(low, low)]).max() < 1e-14


def test_annihilator_nilpotent_past_cutoff():
    b = fs.FockBasis(2, 2)
    a, _ = dense_ladder(b, 1)
    power = np.linalg.matrix_power(a, b.n_max + 1)
    assert np.abs(power).max() == 0.0


def test_displacement_shift_defect_decays_with_cutoff():
    """D(eta)^* a D(eta) = a + eta on the low shells, approached as the cap
    rises: the ladder table obeys the canonical algebra below the top shell.
    D = exp(eta adag - conj(eta) a) comes from the eigenvectors of the
    Hermitian i (eta adag - conj(eta) a)."""
    eta = 0.3
    norms = []
    for nm in (4, 6, 8):
        b = fs.FockBasis(1, nm)
        a, adag = dense_ladder(b, 0)
        lam, vecs = np.linalg.eigh(1j * (eta * adag - np.conj(eta) * a))
        D = (vecs * np.exp(-1j * lam)) @ vecs.conj().T
        dev = D.conj().T @ a @ D - (a + eta * np.eye(b.dim))
        fixed = b.totals() <= 2
        norms.append(np.linalg.norm(dev[np.ix_(fixed, fixed)], 2))
    assert norms[0] > norms[1] > norms[2]
    assert norms[2] < 1e-7
