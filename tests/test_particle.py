"""Tests for the position-space particle sector."""

import math
import warnings

import numpy as np
import pytest

from nelsonlab.closedform import atomic_level
from nelsonlab.model import FOUR_PI, ParameterError
from nelsonlab.particle import (
    GridSector,
    PositionGrid,
    atomic_ground,
    coulomb_potential,
    radial_resolvent_l1,
)
from nelsonlab.spectral import SpectralResult, lanczos_lowest


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ParameterError):
        PositionGrid(n=7, L=5.0)
    with pytest.raises(ParameterError):
        PositionGrid(n=0, L=5.0)
    with pytest.raises(ParameterError):
        PositionGrid(n=8, L=0.0)
    with pytest.raises(ParameterError):
        PositionGrid(n=8, L=math.inf)


def test_grid_geometry():
    g = PositionGrid(n=8, L=4.0)
    assert g.h == 1.0
    assert g.dk == pytest.approx(math.pi / 4.0)
    assert g.point_count == 512
    assert 0.0 in g.axis
    assert g.axis[0] == -4.0 and g.axis[-1] == 3.0


def test_spectral_laplacian_exact_on_plane_waves():
    g = PositionGrid(n=8, L=3.0)
    k = g.dk * np.array([2.0, -1.0, 3.0])
    whole = GridSector(g, (0, 1, 2), False)
    pw = whole.phases(k[None])[0].reshape((g.n,) * 3)
    out = np.fft.ifftn(whole.kin.reshape(pw.shape) * np.fft.fftn(pw))
    expect = 0.5 * float(k @ k) * pw
    assert np.max(np.abs(out - expect)) < 1e-12 * float(k @ k)


_EVEN_NS = (2, 4, 8, 16, 32)


@pytest.mark.parametrize("L", [10.0, 0.7])
@pytest.mark.parametrize("n", _EVEN_NS)
def test_potential_and_kinetic_are_exactly_even_on_every_axis(n, L):
    """The facts the reflection-even sectors rest on: the softened Coulomb
    potential and the kinetic symbol are unchanged, bit for bit, by the
    reflection i -> -i mod n along each axis, which is x -> -x on the grid."""
    g = PositionGrid(n=n, L=L)
    mirror = -np.arange(n) % n
    assert np.array_equal(g.axis[mirror][1:], -g.axis[1:])  # x = -L is L, periodically
    kinetic = GridSector(g, (0, 1, 2), False).kin.reshape((n,) * 3)
    for table in (coulomb_potential(g, 0.7), kinetic):
        for axis in range(3):
            assert np.array_equal(np.take(table, mirror, axis=axis), table), axis


@pytest.mark.parametrize("n", _EVEN_NS)
def test_even_transform_is_the_dft_on_even_vectors(n):
    """W folds the even vectors of an axis isometrically, and E = W^T F W
    is the FFT (E / n the inverse FFT) on them, to 1e-13; E^2 = n I."""
    g = PositionGrid(n=n, L=3.0)
    W, E = g.even_unfold, g.even_transform
    assert np.max(np.abs(W.T @ W - np.eye(n // 2 + 1))) <= 1e-15
    assert np.array_equal(E, E.T)
    assert np.max(np.abs(E @ E - n * np.eye(n // 2 + 1))) <= 1e-13 * n
    rng = np.random.default_rng(n)
    for _ in range(3):
        f = rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1)
        u = W @ f  # an even vector of the whole axis
        assert np.array_equal(u[-np.arange(n) % n], u)
        for transform, even in ((np.fft.fft, E), (np.fft.ifft, E / n)):
            ref = transform(u)
            assert np.max(np.abs(W.T @ ref - even @ f)) <= 1e-13 * np.max(np.abs(ref))
    # three axes at once: E (x) E (x) E on the even cube is the 3D FFT
    cube = rng.standard_normal((n // 2 + 1,) * 3)
    whole = np.einsum("ia,jb,kc,abc->ijk", W, W, W, cube, optimize=True)
    ref = np.einsum("ia,jb,kc,ijk->abc", W, W, W, np.fft.fftn(whole).real, optimize=True)
    got = np.einsum("ai,bj,ck,ijk->abc", E, E, E, cube, optimize=True)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("whole, even",
                         [((2,), True), ((1, 2), True), ((0, 1), True), ((2,), False), ((), True)],
                         ids=["+z-gross", "lattice-gross", "xy-gross", "+z-v0", "atom"])
def test_sector_unfold_is_the_whole_grid_inverse(whole, even):
    """unfold(F_sector^-1 s) is the whole grid's ifftn(W s) to 1e-13, W the
    identity on a whole axis, W = even_unfold on an even one and the first
    unit column at q = 0: on the +z and lattice gross sectors, the +z v0
    sector and the atom's real even cube, and with the last axis even on a
    complex sector.  fold(fftn) takes it back to s."""
    g = PositionGrid(n=8, L=3.0)
    sector = GridSector(g, whole, even)
    rng = np.random.default_rng(len(whole) + 3 * even)
    s = rng.standard_normal((2,) + sector.shape)
    if whole:
        s = s + 1j * rng.standard_normal(s.shape)
    ws = s
    for axis in range(3):
        W = np.eye(g.n) if axis in whole else g.even_unfold if even else np.eye(g.n, 1)
        ws = np.moveaxis(np.tensordot(W, ws, axes=(1, 1 + axis)), 0, 1 + axis)
    ref = np.fft.ifftn(np.ascontiguousarray(ws), axes=(1, 2, 3))
    got = sector.unfold(sector.inverse(s.reshape(2, -1), None))
    assert got.dtype == s.dtype and got.shape == (2, g.point_count)
    assert np.max(np.abs(got - ref.reshape(2, -1))) <= 1e-13 * np.max(np.abs(ref))
    back = sector.fold(np.fft.fftn(ref, axes=(1, 2, 3)))
    assert np.max(np.abs(back - s.reshape(2, -1))) <= 1e-13 * np.max(np.abs(s))


def test_lattice_units_roundtrip_and_rejection():
    g = PositionGrid(n=8, L=3.0)
    units = g.lattice_units(g.dk * np.array([1.0, 0.0, -2.0]))
    assert list(units) == [1, 0, -2]
    with pytest.raises(ParameterError):
        g.lattice_units(np.array([0.1, 0.0, 0.0]))
    # on the lattice, e^{i k.x} is one plane wave of the grid, at FFT index
    # units mod n; off it, the phase jumps at x = -L and spreads over many
    off = np.array([0.1, 0.2, 0.0])
    with pytest.raises(ParameterError):
        g.lattice_units(off)
    phases = GridSector(g, (0, 1, 2), False).phases(np.stack([g.dk * units, off]))
    on_spec, off_spec = np.abs(np.fft.fftn(phases.reshape(2, 8, 8, 8), axes=(1, 2, 3)))
    assert np.count_nonzero(on_spec > 1e-9 * on_spec.max()) == 1
    assert on_spec[tuple(units % g.n)] == pytest.approx(g.point_count)
    assert np.count_nonzero(off_spec > 1e-3 * off_spec.max()) > 8


# ---------------------------------------------------------------------------
# atomic ground state
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def atomic_ladder():
    states = {}
    for n in (32, 48, 64):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            states[n] = atomic_ground(PositionGrid(n=n, L=20.0), 1.0)
    return states


def test_atomic_free_particle_is_constant():
    g = PositionGrid(n=8, L=5.0)
    st = atomic_ground(g, 0.0)
    assert isinstance(st, SpectralResult)
    assert st.energy == 0.0 and st.residual == 0.0 and st.iterations == 0
    assert st.vector.shape == (g.point_count,)
    assert np.allclose(st.vector, g.point_count**-0.5)


def test_atomic_matches_dense_reference():
    """The real-FFT operator against one built densely with complex FFTs."""
    g = PositionGrid(n=8, L=10.0)
    alphaZ = 0.05
    st = atomic_ground(g, alphaZ)
    eye = np.eye(g.point_count).reshape((g.n,) * 3 + (-1,))
    symbol = GridSector(g, (0, 1, 2), False).kin.reshape((g.n,) * 3)
    spec = symbol[..., None] * np.fft.fftn(eye, axes=(0, 1, 2))
    kinetic = np.fft.ifftn(spec, axes=(0, 1, 2)).reshape(g.point_count, -1)
    H = kinetic + np.diag(-alphaZ / np.maximum(g.radius, g.h / 2.0).ravel())
    evals, evecs = np.linalg.eigh(H)
    assert st.energy == pytest.approx(evals[0], abs=1e-10)
    overlap = np.vdot(evecs[:, 0], st.vector)
    assert abs(overlap) == pytest.approx(1.0, abs=1e-8)


def _full_grid_atom(grid, alphaZ):
    """The atom solved on the whole n^3 grid with real FFTs, the solve the
    even cube must reproduce: its potential acts on the coefficients as a
    multiplier on their half spectrum."""
    shape = (grid.n,) * 3
    half = (..., slice(grid.n // 2 + 1))
    kinetic = GridSector(grid, (0, 1, 2), False).kin
    potential = coulomb_potential(grid, alphaZ)[half]

    def matvec(s):
        out = np.fft.irfftn(potential * np.fft.rfftn(s.reshape(shape)), s=shape).ravel()
        return out + kinetic * s

    def precond(r, sigma):
        return r / (kinetic + sigma)

    def transform(v):
        return np.fft.irfftn(v.reshape(shape)[half], s=shape).ravel()

    energy, vec, _, products = lanczos_lowest(
        matvec, grid.point_count, transform(np.exp(-alphaZ * grid.radius)), 1e-12, 500,
        precond=precond)
    vec = transform(vec) * math.sqrt(grid.point_count)
    return energy, (vec if vec.sum() >= 0.0 else -vec), products


@pytest.mark.parametrize("n, L, alphaZ", [(8, 10.0, 0.05), (16, 10.0, 0.3**2 / (4 * math.pi)),
                                          (12, 5.0, 0.5), (32, 10.0, 0.3**2 * 40 / (4 * math.pi))])
def test_atom_on_the_even_cube_is_the_full_grid_solve(n, L, alphaZ):
    """The atom solved on the (n/2 + 1)^3 even cube against the whole-grid
    real-FFT solve kept here: the same energy and flat unit psi to 1e-12,
    and the same product count."""
    g = PositionGrid(n=n, L=L)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        st = atomic_ground(g, alphaZ)
    energy, psi, products = _full_grid_atom(g, alphaZ)
    assert st.energy == pytest.approx(energy, rel=1e-12, abs=1e-15)
    assert st.vector.shape == (g.point_count,)
    assert np.max(np.abs(st.vector - psi)) <= 1e-12
    assert st.iterations == products


def test_atomic_energy_window(atomic_ladder):
    # coarse box: the energy lands within 0.1 of the continuum value even
    # though the Bohr radius is badly resolved
    st = atomic_ladder[32]
    assert abs(st.energy - (-0.5)) < 0.1
    assert st.residual < 1e-10


def test_atomic_error_decreases_with_resolution(atomic_ladder):
    """The distance to the continuum level -(alphaZ)^2/2, here at alphaZ = 1
    (e^2 = 4 pi, Z = 1), shrinks as the grid refines."""
    level = atomic_level(math.sqrt(FOUR_PI), 1.0)
    assert level == pytest.approx(-0.5, rel=1e-15)
    errs = [abs(atomic_ladder[n].energy - level) for n in (32, 48, 64)]
    assert errs[0] > errs[1] > errs[2]


def _analytic_profile(grid):
    """e^{-|x|}, the atom at alphaZ = 1, sampled flat and scaled to a unit
    l2 vector."""
    raw = np.exp(-grid.radius).ravel()
    return raw / np.linalg.norm(raw)


def test_atomic_overlap_with_analytic(atomic_ladder):
    grid = PositionGrid(n=64, L=20.0)
    assert abs(float(atomic_ladder[64].vector @ _analytic_profile(grid))) > 0.99


def test_atomic_normalization(atomic_ladder):
    """The atom is the unit l2 vector over the grid points, flat."""
    st, grid = atomic_ladder[32], PositionGrid(n=32, L=20.0)
    assert st.vector.shape == (grid.point_count,)
    assert float(np.linalg.norm(st.vector)) == pytest.approx(1.0, abs=1e-12)
    assert float(np.linalg.norm(_analytic_profile(grid))) == pytest.approx(1.0, abs=1e-12)


def test_atomic_resolution_warning():
    with pytest.warns(UserWarning, match="Bohr radius"):
        atomic_ground(PositionGrid(n=8, L=20.0), 1.0)


def test_atomic_larger_than_box_warning():
    # Bohr radius 4 on the half-width 2, resolved by 8 points per unit
    with pytest.warns(UserWarning, match="exceeds the box half-width") as record:
        atomic_ground(PositionGrid(n=8, L=2.0), 0.25)
    assert len(record) == 1
    # Bohr radius 2 fits the half-width 4, at exactly 4 points per unit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        atomic_ground(PositionGrid(n=16, L=4.0), 0.5)


def test_atomic_rejects_bad_input():
    g = PositionGrid(n=8, L=5.0)
    with pytest.raises(ParameterError):
        atomic_ground(g, -1.0)


# ---------------------------------------------------------------------------
# l = 1 radial resolvent
# ---------------------------------------------------------------------------


def test_radial_resolvent_frozen_value():
    assert radial_resolvent_l1(1.0, 1.0) == pytest.approx(
        0.5389480455887875, rel=1e-12
    )


def test_radial_resolvent_envelope_and_monotone():
    shifts = [0.5, 1.0, 5.0, 20.0, 100.0]
    values = [radial_resolvent_l1(1.0, s) for s in shifts]
    for s, v in zip(shifts, values):
        assert 0.0 < v < 1.0 / s  # strict: resolvent norm over |grad psi|^2
    assert all(a > b for a, b in zip(values, values[1:]))


def test_radial_resolvent_large_shift_saturates_envelope():
    assert radial_resolvent_l1(1.0, 1e4) * 1e4 == pytest.approx(1.0, abs=5e-4)


def test_radial_resolvent_zero_shift_limit_is_finite():
    assert radial_resolvent_l1(1.0, 1e-8) == pytest.approx(1.5, abs=5e-5)


def test_radial_resolvent_scaling_identity():
    # dilation removes the coupling: same sigma = shift/alphaZ^2, same value
    assert radial_resolvent_l1(0.5, 1.0) == radial_resolvent_l1(1.0, 4.0)


def test_radial_resolvent_guards():
    assert radial_resolvent_l1(0.0, 1.0) == 0.0
    # shift / alphaZ^2 past the float range is an infinite sigma, whose element is 0
    assert radial_resolvent_l1(1e-170, 1.0) == 0.0
    assert radial_resolvent_l1(1e-10, 1e300) == 0.0
    with pytest.raises(ParameterError):
        radial_resolvent_l1(1.0, 0.0)
    with pytest.raises(ParameterError):
        radial_resolvent_l1(-1.0, 1.0)
