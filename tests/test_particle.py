"""Tests for the position-space particle sector."""

import math
import warnings

import numpy as np
import pytest

from nelsonlab.closedform import grad_ceiling
from nelsonlab.model import ParameterError
from nelsonlab.particle import (
    PositionGrid,
    atomic_ground,
    position_operator,
    radial_resolvent_l1,
)


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
    pw = g.plane_wave(k)
    out = np.fft.ifftn(0.5 * g.laplacian_symbol * np.fft.fftn(pw))
    expect = 0.5 * float(k @ k) * pw
    assert np.max(np.abs(out - expect)) < 1e-12 * float(k @ k)


def test_lattice_units_roundtrip_and_rejection():
    g = PositionGrid(n=8, L=3.0)
    units = g.lattice_units(g.dk * np.array([1.0, 0.0, -2.0]))
    assert list(units) == [1, 0, -2]
    with pytest.raises(ParameterError):
        g.lattice_units(np.array([0.1, 0.0, 0.0]))
    with pytest.raises(ParameterError):
        g.plane_wave(np.array([0.1, 0.2, 0.0]))


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
    assert st.energy == 0.0
    assert np.allclose(st.psi, (2.0 * g.L) ** -1.5)


def test_atomic_matches_dense_reference():
    """The real-FFT operator against one built densely with complex FFTs."""
    g = PositionGrid(n=8, L=10.0)
    alphaZ = 0.05
    st = atomic_ground(g, alphaZ)
    eye = np.eye(g.point_count).reshape((g.n,) * 3 + (-1,))
    spec = 0.5 * g.laplacian_symbol[..., None] * np.fft.fftn(eye, axes=(0, 1, 2))
    kinetic = np.fft.ifftn(spec, axes=(0, 1, 2)).reshape(g.point_count, -1)
    H = kinetic + np.diag(-alphaZ / np.maximum(g.radius, g.h / 2.0).ravel())
    evals, evecs = np.linalg.eigh(H)
    assert st.energy == pytest.approx(evals[0], abs=1e-10)
    overlap = np.vdot(evecs[:, 0], st.psi.ravel()) * g.h**1.5
    assert abs(overlap) == pytest.approx(1.0, abs=1e-8)


def test_atomic_energy_window(atomic_ladder):
    # coarse box: the energy lands within 0.1 of the continuum value even
    # though the Bohr radius is badly resolved
    st = atomic_ladder[32]
    assert abs(st.energy - (-0.5)) < 0.1
    assert st.residual < 1e-10


def test_atomic_error_decreases_with_resolution(atomic_ladder):
    errs = [atomic_ladder[n].discretization_error for n in (32, 48, 64)]
    assert errs[0] > errs[1] > errs[2]


def test_atomic_overlap_with_analytic(atomic_ladder):
    assert atomic_ladder[64].overlap_with_analytic() > 0.99


def test_atomic_normalization(atomic_ladder):
    st = atomic_ladder[32]
    assert float(np.sum(st.psi**2)) * st.grid.h**3 == pytest.approx(1.0, abs=1e-12)


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
# position operators
# ---------------------------------------------------------------------------


def test_position_operator_values():
    g = PositionGrid(n=8, L=4.0)
    r = g.radius.ravel()
    cases = [
        ("abs_x", {}, r),
        ("x_squared", {}, r**2),
        ("log3", {"c": 2.0}, np.log(3.0 + 2.0 * r)),
        ("exp_beta", {"beta": 0.5}, np.exp(0.5 * r)),
    ]
    for name, kwargs, values in cases:
        diag = position_operator(g, name, **kwargs)
        assert isinstance(diag, np.ndarray) and diag.shape == (g.point_count,)
        assert np.allclose(diag, values)
    # the returned diagonal is the caller's: writing to it leaves the grid intact
    before = g.radius.copy()
    position_operator(g, "abs_x")[:] = -1.0
    np.testing.assert_array_equal(g.radius, before)


def test_position_operator_guards():
    g = PositionGrid(n=8, L=4.0)
    with pytest.raises(ParameterError):
        position_operator(g, "exp_beta", beta=200.0)  # beta*L = 800 overflows
    with pytest.raises(ParameterError):
        position_operator(g, "exp_beta")
    with pytest.raises(ParameterError):
        position_operator(g, "g_r")
    with pytest.raises(ParameterError):
        position_operator(g, "g_r", R=4.0, c=0.0)
    with pytest.raises(ParameterError):
        position_operator(g, "no_such_function")


def test_g_r_ramp():
    g = PositionGrid(n=16, L=8.0)
    R = 4.0
    diag = position_operator(g, "g_r", R=R)
    r = g.radius.ravel()
    profile = np.sqrt(np.log(3.0 + r))
    inner = r <= R / 2.0
    outer = r >= R
    assert np.all(diag[inner] == 0.0)
    assert np.allclose(diag[outer], profile[outer])
    mid = (r > R / 2.0) & (r < R)
    chi = (2.0 * r[mid] - R) / R
    assert np.allclose(diag[mid], chi * profile[mid])


def test_gradient_sups_below_ceilings():
    g = PositionGrid(n=32, L=16.0)
    expected = {4.0: 0.6790707239516721, 8.0: 0.19221142680984538}
    for R, frozen in expected.items():
        values = position_operator(g, "g_r", R=R).reshape((g.n,) * 3)
        # squared periodic forward-difference gradient, at its largest point
        sup = sum(((np.roll(values, -1, axis) - values) / g.h) ** 2 for axis in range(3)).max()
        assert sup == pytest.approx(frozen, rel=1e-12)
        assert sup < grad_ceiling(R)


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
    with pytest.raises(ParameterError):
        radial_resolvent_l1(1.0, 0.0)
    with pytest.raises(ParameterError):
        radial_resolvent_l1(-1.0, 1.0)
