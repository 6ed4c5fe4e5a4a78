"""Observable extraction: photon counts, spatial moments, decoupled overlaps."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nelsonlab.fockspace import FockBasis, build_modes
from nelsonlab.model import ParameterError, make_params
from nelsonlab.observables import (
    GroundStateReport,
    ground_state_report,
    overlap_with_decoupled,
    photon_number,
    position_density,
    sector_weights,
    spatial_moment,
    vacuum_sector_weight,
)
from nelsonlab.particle import PositionGrid, atomic_ground
from nelsonlab.spectral import assemble, lanczos_ground

BASIS1 = FockBasis(1, 0)  # trivial one-sector Fock space for pure-particle states


def sampled_hydrogen(grid, alphaZ=1.0):
    """Unit l2 vector sampling the analytic hydrogen profile on the grid."""
    raw = np.exp(-alphaZ * grid.radius)
    return (raw / np.linalg.norm(raw)).ravel()


@pytest.fixture(scope="module")
def atom16():
    grid = PositionGrid(n=16, L=12.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return grid, atomic_ground(grid, 1.0)


@pytest.fixture(scope="module")
def coupled():
    params = make_params(0.3, 1.0, kappa=0.3, lam=2.0)
    grid = PositionGrid(n=16, L=12.0)
    modes = build_modes(0.3, 2.0, 1, 2)
    basis = FockBasis(modes.count, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = assemble(params, grid, modes, basis)
        result = lanczos_ground(model, tol=1e-10, maxit=300)
    return model, result


def product_state(particle_vec, basis, sector=0):
    mat = np.zeros((basis.dim, particle_vec.size), dtype=particle_vec.dtype)
    mat[sector] = particle_vec
    return mat.ravel()


# ---------------------------------------------------------------------------
# overlaps


def test_product_reference_has_full_overlap(atom16):
    _, at = atom16
    basis = FockBasis(2, 1)
    state = product_state(at.psi, basis)
    p, q = overlap_with_decoupled(state, at, basis)
    assert p == pytest.approx(1.0, abs=1e-12)
    assert q == pytest.approx(0.0, abs=1e-12)


def test_orthogonal_particle_lands_in_q(atom16):
    _, at = atom16
    basis = FockBasis(2, 1)
    ref = at.psi
    other = np.zeros_like(ref)
    other[5] = 1.0
    other -= (ref @ other) * ref
    other /= np.linalg.norm(other)
    p, q = overlap_with_decoupled(product_state(other, basis), at, basis)
    assert p == pytest.approx(0.0, abs=1e-12)
    assert q == pytest.approx(1.0, abs=1e-12)


def test_one_boson_state_has_empty_vacuum_sector(atom16):
    _, at = atom16
    basis = FockBasis(2, 1)
    state = product_state(at.psi, basis, sector=basis._indices(np.array([[1, 0]]))[0])
    p, q = overlap_with_decoupled(state, at, basis)
    assert p == 0.0 and q == 0.0
    assert vacuum_sector_weight(state, basis) == 0.0


def test_small_q_keeps_its_digits(atom16):
    """A vacuum row a psi_at + b u, u a unit vector orthogonal to psi_at and
    b = 1e-7, has q = b^2 to 1e-10 relative: q is formed from the row's
    remainder, not as the vacuum weight minus p, two numbers near 1."""
    _, at = atom16
    b = 1e-7
    u = np.random.default_rng(11).standard_normal(at.psi.size)
    u -= (at.psi @ u) * at.psi
    u /= np.linalg.norm(u)
    state = product_state(np.sqrt(1.0 - b**2) * at.psi + b * u, FockBasis(2, 1))
    p, q = overlap_with_decoupled(state, at, FockBasis(2, 1))
    assert p == pytest.approx(1.0 - b**2, abs=1e-15)
    assert q == pytest.approx(b**2, rel=1e-10, abs=0.0)


@given(theta=st.floats(-np.pi, np.pi))
@settings(max_examples=20, deadline=None)
def test_overlap_is_phase_invariant(theta):
    rng = np.random.default_rng(7)
    grid = PositionGrid(n=8, L=6.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        at = atomic_ground(grid, 1.0)
    basis = FockBasis(2, 1)
    state = rng.standard_normal(grid.point_count * basis.dim) + 1j * rng.standard_normal(
        grid.point_count * basis.dim
    )
    p0, q0 = overlap_with_decoupled(state, at, basis)
    p1, q1 = overlap_with_decoupled(np.exp(1j * theta) * state, at, basis)
    assert p1 == pytest.approx(p0, rel=1e-11, abs=1e-13)
    assert q1 == pytest.approx(q0, rel=1e-11, abs=1e-13)


def test_overlap_rejects_mismatched_grid(atom16):
    grid, at = atom16
    basis = FockBasis(2, 1)
    with pytest.raises(ParameterError):
        overlap_with_decoupled(np.ones(10 * basis.dim), at, basis)


# ---------------------------------------------------------------------------
# photon numbers


def test_photon_split_on_trivial_states(atom16):
    _, at = atom16
    modes = build_modes(0.2, 1.6, 2, 1)  # nodes straddle the soft boundary
    assert np.count_nonzero(modes.soft_mask) == 1 and modes.count == 2
    basis = FockBasis(modes.count, 2)
    ref = at.psi

    vac = product_state(ref, basis)
    assert photon_number(vac, basis, modes) == (0.0, 0.0, 0.0)

    occ = [0, 0]
    occ[int(np.argmax(modes.soft_mask))] = 1
    soft1 = product_state(ref, basis, sector=basis._indices(np.array([occ]))[0])
    total, soft, hard = photon_number(soft1, basis, modes)
    assert total == pytest.approx(1.0, abs=1e-12)
    assert soft == pytest.approx(1.0, abs=1e-12)
    assert hard == 0.0


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_photon_split_is_exact_and_markov_holds(seed):
    rng = np.random.default_rng(seed)
    modes = build_modes(0.2, 1.6, 2, 1)
    basis = FockBasis(modes.count, 2)
    state = rng.standard_normal(27 * basis.dim) + 1j * rng.standard_normal(27 * basis.dim)
    total, soft, hard = photon_number(state, basis, modes)
    assert soft + hard == total  # exact split by construction
    assert total >= 0.0 and soft >= 0.0 and hard >= 0.0
    # Markov: weight outside the vacuum sector is at most the mean count
    assert vacuum_sector_weight(state, basis) >= 1.0 - total - 1e-12


def test_sector_weights_sum_to_one():
    rng = np.random.default_rng(3)
    basis = FockBasis(2, 2)
    state = rng.standard_normal(8 * basis.dim)
    assert sector_weights(state, basis).sum() == pytest.approx(1.0, abs=1e-12)


def test_photon_number_guards():
    modes = build_modes(0.2, 1.6, 2, 1)
    basis = FockBasis(3, 1)
    with pytest.raises(ParameterError):
        photon_number(np.ones(4 * basis.dim), basis, modes)
    with pytest.raises(ParameterError):
        sector_weights(np.ones(10), FockBasis(2, 1))  # 10 not divisible by 3
    with pytest.raises(ParameterError):
        vacuum_sector_weight(np.zeros(12), FockBasis(2, 1))


# ---------------------------------------------------------------------------
# spatial moments


def test_hydrogen_moment_oracle_converges():
    # <|x|> = 3/(2 alphaZ) and <|x|^2> = 3/(alphaZ)^2 for the analytic profile
    errs1, errs2 = [], []
    for n in (32, 48, 64):
        grid = PositionGrid(n=n, L=14.0)
        v = sampled_hydrogen(grid)
        m1 = spatial_moment(v, grid, BASIS1, "abs_x")
        m2 = spatial_moment(v, grid, BASIS1, "x_squared")
        errs1.append(abs(m1 - 1.5) / 1.5)
        errs2.append(abs(m2 - 3.0) / 3.0)
    assert errs1 == sorted(errs1, reverse=True)
    assert errs2 == sorted(errs2, reverse=True)
    assert errs1[-1] < 0.02
    assert errs2[-1] < 0.02


def test_solver_state_matches_hydrogen_moment():
    grid = PositionGrid(n=32, L=14.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        at = atomic_ground(grid, 1.0)
    m1 = spatial_moment(at.psi, grid, BASIS1, "abs_x")
    assert m1 == pytest.approx(1.5, rel=0.15)


def test_moment_table_values():
    """The report's moments weigh |x|, |x|^2 and log(3 + |x|) at each point,
    with those expressions bit for bit."""
    grid = PositionGrid(n=8, L=4.0)
    r = grid.radius.ravel()
    rng = np.random.default_rng(5)
    state = rng.standard_normal(grid.point_count)
    density = position_density(state, BASIS1)
    for name, values in (("abs_x", r), ("x_squared", r**2), ("log3", np.log(3.0 + r))):
        assert spatial_moment(state, grid, BASIS1, name) == float(values @ density)


def test_spatial_moment_guards():
    grid = PositionGrid(n=8, L=6.0)
    state = np.ones(grid.point_count)
    with pytest.raises(ParameterError):
        spatial_moment(state, grid, BASIS1, "cube_x")
    with pytest.raises(ParameterError):
        spatial_moment(state, grid, BASIS1, "exp_beta")
    with pytest.raises(ParameterError):
        spatial_moment(np.zeros(grid.point_count), grid, BASIS1, "abs_x")


def test_moments_are_nonnegative_on_random_states():
    rng = np.random.default_rng(5)
    grid = PositionGrid(n=8, L=6.0)
    basis = FockBasis(2, 1)
    for _ in range(5):
        state = rng.standard_normal(grid.point_count * basis.dim)
        for name in ("abs_x", "x_squared", "log3"):
            assert spatial_moment(state, grid, basis, name) >= 0.0


# ---------------------------------------------------------------------------
# full report


def test_ground_state_report_invariants(coupled):
    model, result = coupled
    rep = ground_state_report(model, result)
    assert isinstance(rep, GroundStateReport)
    assert rep.energy == result.energy
    assert rep.n_f_soft + rep.n_f_hard == rep.n_f_total
    assert rep.overlap_p + rep.overlap_q <= rep.vacuum_weight + 1e-12
    assert rep.vacuum_weight <= 1.0 + 1e-12
    assert rep.vacuum_weight >= 1.0 - rep.n_f_total - 1e-12
    for name in ("abs_x", "x_squared", "log3"):
        assert rep.moments[name] >= 0.0
    d = rep.to_dict()
    assert d["energy"] == rep.energy
    assert set(d["moments"]) == {"abs_x", "x_squared", "log3"}


def test_report_without_beta_skips_exponential(coupled):
    model, result = coupled
    rep = ground_state_report(model, result)
    assert "exp_beta" not in rep.moments
    assert set(rep.to_dict()) == {"energy", "n_f_total", "n_f_soft", "n_f_hard", "moments",
                                  "overlap_p", "overlap_q", "vacuum_weight"}


def test_report_needs_particle_sector():
    params = make_params(0.2, 1.0, kappa=0.3, lam=2.0)
    modes = build_modes(0.3, 2.0, 1, 2)
    basis = FockBasis(modes.count, 1)
    model = assemble(params, None, modes, basis, variant="fiber")
    result = lanczos_ground(model, tol=1e-10, maxit=300)
    with pytest.raises(ParameterError):
        ground_state_report(model, result)


def test_report_is_the_public_observables_bit_for_bit(coupled):
    """The report normalizes the state once, yet every value equals, to the
    bit, what the public functions give, each normalizing a state that is
    not of unit norm on its own."""
    model, result = coupled
    state = 3.0 * result.vector
    rep = ground_state_report(model, replace(result, vector=state))
    basis = model.basis
    assert tuple(photon_number(state, basis, model.modes)) == (rep.n_f_total, rep.n_f_soft,
                                                               rep.n_f_hard)
    for name in ("abs_x", "x_squared", "log3"):
        assert spatial_moment(state, model.grid, basis, name) == rep.moments[name]
    assert np.array_equal(position_density(state, basis), rep.density)
    assert overlap_with_decoupled(state, model.atomic_reference(), basis) == (rep.overlap_p,
                                                                              rep.overlap_q)
    assert vacuum_sector_weight(state, basis) == rep.vacuum_weight
