"""Tests for assembly, the eigensolver, and the operator-identity checks."""

import copy
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from fock_dense import dense, dense_ladder, occupations, whole_grid
from nelsonlab.fockspace import FockBasis, ModeGrid, build_modes
from nelsonlab.model import (
    ConvergenceError,
    DomainError,
    ParameterError,
    make_params,
)
from nelsonlab.particle import GridSector, PositionGrid, coulomb_potential
from nelsonlab import spectral as sp
from nelsonlab.quadrature import effective_mass_coefficient


@pytest.fixture(scope="module")
def small_setup():
    params = make_params(e=0.3, Z=1.0, kappa=0.3, lam=2.0)
    grid = PositionGrid(n=6, L=5.0)
    modes = build_modes(0.3, 2.0, 1, 2)
    basis = FockBasis(modes.count, 1)
    return params, grid, modes, basis


@pytest.fixture(scope="module")
def gross_model(small_setup):
    params, grid, modes, basis = small_setup
    return sp.assemble(params, grid, modes, basis, variant="gross")


# ---------------------------------------------------------------------------
# eigensolver (LOBPCG behind lanczos_lowest)
# ---------------------------------------------------------------------------


def _unpreconditioned(r, sigma):
    return r


def _random_seed(dim):
    return np.random.default_rng(2357).standard_normal(dim)


def test_lanczos_matches_dense_random():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((40, 40))
    A = (A + A.T) / 2.0
    energy, vec, residual, _ = sp.lanczos_lowest(lambda v: A @ v, 40, _random_seed(40), 1e-10,
                                                 300, precond=_unpreconditioned)
    evals = np.linalg.eigvalsh(A)
    assert energy == pytest.approx(evals[0], abs=1e-10)
    assert np.linalg.norm(A @ vec - energy * vec) < 1e-8


@pytest.mark.parametrize("precond", [lambda r, sigma: r, lambda r, sigma: 0.5 * r,
                                     lambda r, sigma: r.reshape(-1),
                                     lambda r, sigma: np.multiply(0.5, r, out=r)[::1]],
                         ids=["returns-r", "scaled", "view-of-r", "scaled-in-place-view"])
def test_lanczos_overwrites_only_what_it_may(precond):
    """The solver works in place on what the preconditioner hands back, also
    when that is the residual itself or a view of it, and never on the
    caller's seed."""
    rng = np.random.default_rng(11)
    A = rng.standard_normal((40, 40))
    A = (A + A.T) / 2.0
    seed = rng.standard_normal(40)
    kept = seed.copy()
    energy, vec, _, _ = sp.lanczos_lowest(lambda v: A @ v, 40, seed, 1e-10, 300, precond=precond)
    assert energy == pytest.approx(np.linalg.eigvalsh(A)[0], abs=1e-10)
    assert np.linalg.norm(A @ vec - energy * vec) < 1e-8
    assert np.array_equal(seed, kept)


def test_lanczos_one_dimensional():
    energy, vec, residual, it = sp.lanczos_lowest(lambda v: 3.5 * v, 1, _random_seed(1), 1e-10,
                                                  300, precond=_unpreconditioned)
    assert energy == 3.5 and residual == 0.0


def test_lanczos_exact_eigenvector_seed():
    d = np.array([1.0, 2.0, 3.0, 9.0])
    seed = np.array([1.0, 0.0, 0.0, 0.0])
    energy, vec, _, it = sp.lanczos_lowest(lambda v: d * v, 4, seed, 1e-10, 300,
                                           precond=_unpreconditioned)
    assert energy == pytest.approx(1.0, abs=1e-14)
    assert it == 1


def test_lanczos_convergence_error():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((60, 60))
    A = (A + A.T) / 2.0
    with pytest.raises(ConvergenceError):
        sp.lanczos_lowest(lambda v: A @ v, 60, _random_seed(60), 1e-10, 3,
                          precond=_unpreconditioned)


def test_lanczos_rejects_zero_seed():
    with pytest.raises(ParameterError):
        sp.lanczos_lowest(lambda v: v, 4, np.zeros(4), 1e-10, 300, precond=_unpreconditioned)


def _never_called(v):
    pytest.fail("the operator was applied before the settings were checked")


@pytest.mark.parametrize("setting", [{"maxit": 0}, {"maxit": -3}, {"tol": 0.0},
                                     {"tol": -1.0}, {"tol": float("nan")},
                                     {"tol": float("inf")}])
def test_lanczos_rejects_bad_settings(setting):
    settings = dict(seed=_random_seed(40), tol=1e-10, maxit=300, precond=_unpreconditioned)
    with pytest.raises(ParameterError):
        sp.lanczos_lowest(_never_called, 40, **{**settings, **setting})


@pytest.mark.parametrize("dtype", [float, complex])
def test_lanczos_holds_only_its_counted_working_set(dtype):
    """The solver holds its working set of 8 vectors: its tracemalloc peak
    above the caller's seed, the product and the preconditioned residual
    included, is at most 8 vectors."""
    dim = 2**16
    rng = np.random.default_rng(19)
    d = np.concatenate([[-1.0], rng.uniform(0.5, 10.0, dim - 1)])  # isolated ground level
    approx = d * (1.0 + 0.2 * np.sin(np.arange(dim))) + 1.2  # inexact, positive
    seed = rng.standard_normal(dim).astype(dtype)
    if dtype is complex:
        seed += 1j * rng.standard_normal(dim)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        energy, vec, residual, _ = sp.lanczos_lowest(
            lambda v: d * v, dim, seed, 1e-10, 300, precond=lambda r, sigma: r / (approx + sigma))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert energy == pytest.approx(-1.0, abs=1e-10) and vec.dtype == np.dtype(dtype)
    assert (peak - base) / (dim * seed.itemsize) <= 8


def test_lanczos_residual_is_honest_on_a_cluster():
    """Half the spectrum in a cluster of width 1e-2 just above the gap, the
    case where the carried H x drifts longest.  The returned residual is
    that of a fresh product, and the energy is at most the seed's Rayleigh
    quotient (the guarantee behind energy.upper)."""
    rng = np.random.default_rng(5)
    rest = np.concatenate([rng.uniform(0.0, 1e-2, 200), rng.uniform(1.0, 100.0, 199)])
    d = np.concatenate([[-1.0], rest])
    seed = rng.standard_normal(d.size)
    energy, vec, residual, _ = sp.lanczos_lowest(lambda v: d * v, d.size, seed, 1e-13, 1000,
                                                 precond=_unpreconditioned)
    assert energy == pytest.approx(-1.0, abs=1e-12)
    assert residual <= 1e-13
    assert residual == pytest.approx(np.linalg.norm(d * vec - energy * vec), rel=1e-9, abs=0.0)
    assert energy <= seed @ (d * seed) / (seed @ seed)


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("returned", ["fixed", "zero"])
def test_lanczos_survives_a_degenerate_step(returned, seed):
    """A preconditioner that hands back one fixed vector every step puts p in
    the span of x and w, so S*S is singular; one that hands back zero makes
    w zero.  The Rayleigh-Ritz step drops those directions: the solve stalls
    and reports a finite energy, with no warning on the way (a zero norm
    divided, a root of a negative)."""
    rng = np.random.default_rng(seed)
    d = rng.uniform(-1.0, 10.0, 50)
    fixed = rng.standard_normal(50) if returned == "fixed" else np.zeros(50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match=r"energy (\S+)\)") as info:
            sp.lanczos_lowest(lambda v: d * v, 50, rng.standard_normal(50), 1e-10, 30,
                              precond=lambda r, sigma: fixed.copy())
    energy = float(re.search(r"energy (\S+)\)", str(info.value)).group(1))
    assert np.isfinite(energy) and d.min() <= energy <= d.max()


@pytest.mark.parametrize("start", ["random", "real_first_column"])
def test_lanczos_real_seed_complex_operator(start):
    """Real seed values on a complex Hermitian operator with a clustered bottom.

    The solver runs in the seed's scalar type.  The random start is handed
    over as a complex array, and the imaginary parts must survive the
    basis.  The unit-vector start is a real array and meets a real first
    column; the operator hands back a real array whenever the product is
    real, so the first product is real, and the first complex one is
    refused, naming both types.
    """
    dim = 200
    rng = np.random.default_rng(29)
    U, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    d = np.concatenate([[-1.0, -1.0 + 4e-7, -1.0 + 9e-7], rng.uniform(0.0, 10.0, dim - 3)])
    A = (U * d) @ U.conj().T
    A = (A + A.conj().T) / 2.0
    seed = _random_seed(dim).astype(complex)
    if start == "real_first_column":
        # a diagonal unitary similarity makes column 0 real; the spectrum stays
        phase = np.ones(dim, dtype=complex)
        phase[1:] = np.conj(A[1:, 0]) / np.abs(A[1:, 0])
        A = phase[:, None] * A * phase.conj()[None, :]
        A[:, 0] = A[:, 0].real
        A[0, :] = A[:, 0]
        seed = np.eye(dim)[0]
    products = []

    def matvec(v):
        w = A @ v
        products.append(w.real if not w.imag.any() else w)
        return products[-1]

    if start == "real_first_column":
        with pytest.raises(ParameterError, match=r"complex128, wider than the seed's float64"):
            sp.lanczos_lowest(matvec, dim, seed, 1e-10, 300, precond=_unpreconditioned)
        assert [np.iscomplexobj(w) for w in products] == [False, True]
        return
    energy, vec, residual, _ = sp.lanczos_lowest(matvec, dim, seed, 1e-10, 300,
                                                 precond=_unpreconditioned)
    assert energy == pytest.approx(np.linalg.eigvalsh(A)[0], abs=1e-10)
    assert np.iscomplexobj(vec) and np.linalg.norm(vec.imag) > 0.1
    assert np.linalg.norm(A @ vec - energy * vec) < 1e-8


# ---------------------------------------------------------------------------
# the probe stream
# ---------------------------------------------------------------------------


def test_normal_stream_is_fixed_by_its_seed():
    first = sp._normal(97, (3, 5))
    assert first.shape == (3, 5) and first.dtype == np.float64
    assert np.array_equal(first, sp._normal(97, (3, 5)))
    assert np.array_equal(sp._normal(97, (7,)), sp._normal(97, (7,)))
    others = [sp._normal(seed, (1000,)) for seed in (97, 98, 1234, 1235)]
    for i, a in enumerate(others):
        for b in others[i + 1:]:
            assert not np.any(a == b)


def test_normal_stream_has_standard_normal_moments():
    """The raw moments E x^k = 0, 1, 0, 3 for k = 1..4 over 10^6 draws, each
    within five standard errors, sqrt(Var x^k) / 1000 = (1, sqrt 2, sqrt 15,
    sqrt 96) / 1000."""
    x = sp._normal(1234, (10**6,))
    assert np.all(np.isfinite(x))
    for power, mean, spread in ((1, 0.0, 1.0), (2, 1.0, 2**0.5), (3, 0.0, 15**0.5),
                                (4, 3.0, 96**0.5)):
        assert abs(np.mean(x**power) - mean) <= 5.0 * spread / 1000.0, power


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_assemble_validation(small_setup):
    params, grid, modes, basis = small_setup
    with pytest.raises(ParameterError):
        sp.assemble(params, grid, modes, basis, variant="polaron")
    with pytest.raises(ParameterError):
        sp.assemble(params, grid, modes, FockBasis(5, 1))
    with pytest.raises(ParameterError):
        sp.assemble(params, None, modes, basis, variant="gross")
    with pytest.raises(ParameterError):
        sp.assemble(params, grid, modes, basis, variant="fiber")
    with pytest.raises(ParameterError):
        sp.assemble(params, grid, modes, basis, variant="nelson")


def test_assemble_dimension_guard(small_setup):
    params, _, modes, _ = small_setup
    big_grid = PositionGrid(n=32, L=10.0)
    big_basis = FockBasis(modes.count, 5)  # dim 21 -> 32^3 * 21 > 5e5
    with pytest.raises(ParameterError):
        sp.assemble(params, big_grid, modes, big_basis)


def test_assemble_warns_outside_window(small_setup):
    _, grid, modes, basis = small_setup
    strong = make_params(e=1.2, Z=1.0, kappa=0.3, lam=2.0)
    with pytest.warns(UserWarning, match="small-charge window"):
        sp.assemble(strong, grid, modes, basis, variant="gross")


def test_assemble_warns_when_the_grid_aliases_a_mode(small_setup):
    """A +z mode at 1.65 lies above pi/h = 1.257 of the n = 4, L = 5 grid,
    one at 1.15 below it: only the first warns, naming the ratio 1.313."""
    params, _, _, _ = small_setup
    grid = PositionGrid(n=4, L=5.0)
    for lam, ratio in ((3.0, "1.313"), (2.0, None)):
        modes = build_modes(0.3, lam, 1, 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sp.assemble(params, grid, modes, FockBasis(1, 1), variant="gross")
        aliased = [str(w.message) for w in caught if "aliases" in str(w.message)]
        if ratio is None:
            assert aliased == []
        else:
            assert len(aliased) == 1 and f"(ratio {ratio})" in aliased[0]


@pytest.mark.parametrize("variant", ["gross", "v0", "fiber"])
def test_assemble_samples_the_symmetry_of_every_variant(small_setup, variant, monkeypatch):
    """An operator that is not Hermitian is refused on all three variants,
    the real fiber included: the assembled model holds no particle table
    yet, and its first solve builds and samples the operator it runs on
    before its first product."""
    params, grid, modes, basis = small_setup
    matvec = sp.AssembledModel.matvec
    monkeypatch.setattr(sp.AssembledModel, "matvec",
                        lambda self, v: matvec(self, v) + 1e-6 * np.roll(v, 1))
    model = sp.assemble(params, None if variant == "fiber" else grid, modes, basis,
                        variant=variant)
    with pytest.raises(RuntimeError, match="failed the symmetry sample"):
        sp.lanczos_ground(model, tol=1e-10, maxit=300)


@pytest.mark.parametrize("variant", ["gross", "v0", "fiber"])
def test_assemble_refuses_a_defect_on_one_fock_row(small_setup, variant, monkeypatch):
    """Every variant samples its symmetry with one product on one complex
    probe a (x) b (b one number on the fiber), which still sees a one-way
    coupling into a single Fock row.  ``assemble`` runs no product; the
    solved operator's first use runs one, the sample."""
    params, grid, modes, basis = small_setup
    grid = None if variant == "fiber" else grid
    matvec, calls = sp.AssembledModel.matvec, []

    def counted(self, v):
        calls.append(1)
        return matvec(self, v)

    monkeypatch.setattr(sp.AssembledModel, "matvec", counted)
    model = sp.assemble(params, grid, modes, basis, variant=variant)
    assert calls == []
    model._sector()
    model._sector()
    assert len(calls) == 1

    def defective(self, v):
        out = matvec(self, v).reshape(self._shape)
        out[-1] += 1e-6 * self._to2(v)[0]  # row 0 into the last row, not back
        return out.ravel()

    monkeypatch.setattr(sp.AssembledModel, "matvec", defective)
    model = sp.assemble(params, grid, modes, basis, variant=variant)
    with pytest.raises(RuntimeError, match="failed the symmetry sample"):
        sp.lanczos_ground(model, tol=1e-10, maxit=300)


def test_symmetry_sample_refuses_a_one_way_coupling_at_the_effmass_configuration(monkeypatch):
    """contract_adjoint scaled one way by 1 + 1e-6 at effmass-fiber's
    configuration (M = 24, N_max = 4, dimension 20 475): Im <u, H u> is
    4.8e-6 against 1e-10 ||u|| ||H u|| / sqrt(dim) = 7.2e-7 (1.6e-12
    unmutated); against 1e-10 |<u, H u>| = 9.3e-5 it passed.  The sample
    runs on the first solve."""
    contract_adjoint = sp.AssembledModel.contract_adjoint
    monkeypatch.setattr(sp.AssembledModel, "contract_adjoint",
                        lambda self, V, G: (1.0 + 1e-6) * contract_adjoint(self, V, G))
    model = _fiber(0.1, 4, 6, 4)
    with pytest.raises(RuntimeError, match="failed the symmetry sample"):
        sp.lanczos_ground(model, tol=1e-12, maxit=600)


def test_a_defect_off_the_sector_is_refused_before_the_first_whole_grid_product(monkeypatch):
    """The anti-Hermitian defect 1e-6 i P_odd, P_odd the projector onto the
    states odd in x, vanishes on the gross sector (even in x and y), so the
    sector's sample, which the first solve runs, passes; the explicit build
    of the whole grid's tables samples them, and the sample refuses the
    defect before any other whole-grid product runs.  No command builds
    them: a defect off the sector is the tests' to find."""
    params = make_params(e=0.3, Z=1.0, kappa=0.3, lam=2.0)
    grid, modes, _ = _grid_case("+z", "gross")
    n, parts, whole = grid.n, sp.AssembledModel._parts, []

    def defective(self, u, spec):
        odd = None
        if self._shape[1] == grid.point_count:  # a whole-grid product
            whole.append(1)
            cube = u.reshape(-1, n, n, n)
            odd = 0.5 * (cube - _reflected(cube, [0]))
        S, P = parts(self, u, spec)
        if odd is not None:
            P += 1e-6j * odd.reshape(P.shape)
        return S, P

    monkeypatch.setattr(sp.AssembledModel, "_parts", defective)
    model = sp.assemble(params, grid, modes, FockBasis(modes.count, 2), variant="gross")
    model._sector()  # built and sampled, as on the first solve
    assert whole == []
    with pytest.raises(RuntimeError, match="failed the symmetry sample"):
        whole_grid(model)
    assert whole == [1]  # the sample's product


@pytest.mark.parametrize("variant", ["gross", "v0", "fiber"])
def test_an_assembled_model_holds_no_particle_table(small_setup, variant):
    """A table read on an assembled model raises AttributeError, before its
    first solve and after it: no read builds the whole grid's tables, and
    the solved sector's are the copy's own."""
    params, grid, modes, basis = small_setup
    model = sp.assemble(params, None if variant == "fiber" else grid, modes, basis,
                        variant=variant)
    for solved in (False, True):
        if solved:
            model._sector()
        for name in ("_phase", "_cells", "_psym", "_kin"):
            with pytest.raises(AttributeError):
                getattr(model, name)


def test_hermitian_all_variants(small_setup):
    params, grid, modes, basis = small_setup
    for var in ("gross", "v0"):
        model = whole_grid(sp.assemble(params, grid, modes, basis, variant=var))
        H = dense(model)
        assert np.max(np.abs(H - H.conj().T)) < 1e-12
    fib = whole_grid(sp.assemble(params, None, modes, FockBasis(modes.count, 2), variant="fiber"))
    Hf = dense(fib)
    assert np.max(np.abs(Hf - Hf.conj().T)) < 1e-12


def test_zero_coupling_decouples(small_setup):
    _, grid, modes, basis = small_setup
    p0 = make_params(e=0.0, Z=1.0, kappa=0.3, lam=2.0)
    m0 = whole_grid(sp.assemble(p0, grid, modes, basis, variant="gross"))
    rng = np.random.default_rng(5)
    f = rng.standard_normal(grid.point_count) + 1j * rng.standard_normal(grid.point_count)
    g = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    spec = np.fft.fftn(f.reshape((grid.n,) * 3))
    q = grid.freqs  # the kinetic symbol 1/2 |q|^2 on the FFT mesh
    kinetic = 0.5 * (q[:, None, None] ** 2 + q[None, :, None] ** 2 + q[None, None, :] ** 2)
    Tf = np.fft.ifftn(kinetic * spec).ravel()
    strength = p0.alphaZ
    Vf = (-strength / np.maximum(grid.radius, grid.h / 2).ravel()) * f
    hf = occupations(basis) @ modes.omega
    expect = np.kron(g, Tf + Vf) + np.kron(hf * g, f)
    assert np.linalg.norm(m0.matvec(np.kron(g, f)) - expect) < 1e-12


def _reference_hamiltonian(params, grid, modes, basis, variant):
    """H built densely from the model's definition in the base frame: DFT
    momentum matrices, diagonal phases and potential, and ladder matrices
    joined by Kronecker products."""
    omega = modes.omega
    g = np.sqrt(modes.w)[:, None] * modes.k / (np.sqrt(2.0 * omega) * (omega + 0.5 * omega**2))[:, None]
    c, q = params.e, 0.5 * params.e**2
    eye_d = np.eye(basis.dim)
    lower = [dense_ladder(basis, j)[0] for j in range(modes.count)]
    hf = np.diag(occupations(basis) @ omega)
    if variant == "fiber":  # total momentum 0: p_l is -P_f,l
        pf = occupations(basis) @ modes.k
        p = [-np.diag(pf[:, ell]) for ell in range(3)]
        H = 0.5 * sum(pl @ pl for pl in p) + hf
        A = [sum(g[j, ell] * lower[j] for j in range(modes.count)) for ell in range(3)]
    else:
        n = grid.n
        idx = np.arange(n)
        F = np.exp(-2j * np.pi * np.outer(idx, idx) / n)
        p1 = F.conj().T @ np.diag(grid.freqs) @ F / n
        eye_n = np.eye(n)
        p = [
            np.kron(np.kron(p1, eye_n), eye_n),
            np.kron(np.kron(eye_n, p1), eye_n),
            np.kron(np.kron(eye_n, eye_n), p1),
        ]
        h_particle = 0.5 * sum(pl @ pl for pl in p)
        if variant == "gross":
            strength = params.alphaZ
            h_particle = h_particle + np.diag(-strength / np.maximum(grid.radius, grid.h / 2).ravel())
        H = np.kron(eye_d, h_particle) + np.kron(hf, np.eye(grid.point_count))
        p = [np.kron(eye_d, pl) for pl in p]
        x = np.stack(np.meshgrid(grid.axis, grid.axis, grid.axis, indexing="ij"), axis=-1).reshape(-1, 3)
        phase = [np.diag(np.exp(1j * x @ kj)) for kj in modes.k]
        A = [
            sum(g[j, ell] * np.kron(lower[j], phase[j]) for j in range(modes.count))
            for ell in range(3)
        ]
    for pl, Al in zip(p, A):
        As = Al.conj().T
        H = H + c * (pl @ Al + As @ pl) + q * (Al @ Al + 2.0 * As @ Al + As @ As)
    return H


def _lattice_modes(grid):
    """The two-axis lattice grid of the telescoping model: one mode along z,
    one along y, each a single reciprocal-lattice step of ``grid``."""
    dk = grid.dk
    return ModeGrid(
        k=dk * np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
        w=np.array([0.05, 0.05]),
    )


def _grid_case(name, variant):
    """(position grid, mode grid, coupled axes C) of a named test grid: the
    golden-angle spiral, the one-node +z grid, or the two-axis lattice."""
    grid = None if variant == "fiber" else PositionGrid(n=4, L=5.0)
    if name == "spiral":
        return grid, build_modes(0.3, 2.0, *((2, 3) if variant == "fiber" else (1, 2))), 3
    if name == "+z":
        return grid, build_modes(0.3, 2.0, 2, 1), 1
    grid = PositionGrid(n=4, L=8.0)  # the telescoping model's lattice step
    return grid, _lattice_modes(grid), 2


@pytest.mark.parametrize(
    "variant, grid_name",
    [pytest.param(v, "spiral", id=v) for v in ("gross", "v0", "fiber")]
    + [("gross", "+z"), ("v0", "+z"), ("fiber", "+z"), ("gross", "lattice"), ("v0", "lattice")],
)
def test_dense_matches_independent_reference(variant, grid_name):
    # the reference always builds all three components, so it also checks
    # the axes the kernel drops
    params = make_params(e=0.3, Z=1.0, kappa=0.3, lam=2.0)
    grid, modes, coupled = _grid_case(grid_name, variant)
    basis = FockBasis(modes.count, 3 if variant == "fiber" else 2)
    model = whole_grid(sp.assemble(params, grid, modes, basis, variant=variant))
    assert model.dim <= 1000
    assert model._coupling.shape[1] == coupled
    ref = _reference_hamiltonian(params, grid, modes, basis, variant)
    assert np.max(np.abs(dense(model) - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("variant, grid_name", [("gross", "+z"), ("v0", "lattice"),
                                                ("gross", "spiral"), ("fiber", "spiral")])
def test_matvec_transforms_only_the_coupled_axes(variant, grid_name, monkeypatch):
    """One coupled matvec makes 2 + 2C FFTs, C the coupled axes; none on the
    fiber.  So does one product on plane-wave coefficients, and the
    preconditioner there makes none."""
    params = make_params(e=0.3, Z=1.0, kappa=0.3, lam=2.0)
    grid, modes, coupled = _grid_case(grid_name, variant)
    model = whole_grid(sp.assemble(params, grid, modes, FockBasis(modes.count, 2),
                                   variant=variant))
    calls = []

    def counted(transform):
        def wrapped(*args, **kwargs):
            calls.append(transform.__name__)
            return transform(*args, **kwargs)
        return wrapped

    for name in ("fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    x = np.random.default_rng(3).standard_normal(model.dim)
    ffts = 0 if variant == "fiber" else 2 + 2 * coupled
    for product, count in ((model.matvec, ffts), (model.plane_matvec, ffts),
                           (lambda s: model.precondition(s, 0.1), 0)):
        calls.clear()
        product(x)
        assert len(calls) == count


@pytest.mark.parametrize("variant", ["gross", "v0"])
@pytest.mark.parametrize("grid_name", ["+z", "lattice", "spiral"])
def test_plane_matvec_is_the_conjugated_matvec(variant, grid_name):
    """H on plane-wave coefficients, (D, X) flat, is F H F^-1 with F the
    unnormalized DFT over the particle axes, at C = 1, 2 and 3."""
    params = make_params(e=0.3, Z=1.0, kappa=0.3, lam=2.0)
    grid, modes, coupled = _grid_case(grid_name, variant)
    model = whole_grid(sp.assemble(params, grid, modes, FockBasis(modes.count, 2),
                                   variant=variant))
    assert model._coupling.shape[1] == coupled
    n = grid.n
    D = model.basis.dim
    rng = np.random.default_rng(37)
    s = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
    u = np.fft.ifftn(s.reshape(D, n, n, n), axes=(1, 2, 3)).ravel()
    hu = model.matvec(u).reshape(D, n, n, n)
    ref = np.fft.fftn(hu, axes=(1, 2, 3)).ravel()
    got = model.plane_matvec(s)
    assert got.dtype == np.complex128
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("variant", ["gross", "v0"])
def test_lanczos_ground_returns_a_unit_position_vector(small_setup, variant):
    """The grid solve runs on plane-wave coefficients and hands back the
    position vector, (D, X) flat, at unit norm: its residual under the
    dense position-space H is the one reported."""
    params, grid, modes, basis = small_setup
    model = sp.assemble(params, grid, modes, basis, variant=variant)
    res = sp.lanczos_ground(model, tol=1e-10, maxit=300)
    v = res.vector
    assert v.dtype == np.complex128 and v.shape == (model.dim,)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
    residual = np.linalg.norm(dense(whole_grid(model)) @ v - res.energy * v)
    assert residual <= 1e-10 * max(1.0, abs(res.energy))
    assert residual == pytest.approx(res.residual, abs=1e-13)


def _full_grid_ground(model, tol, maxit):
    """LOBPCG on the whole grid's plane-wave products from the whole grid's
    seed, the solve a sector must reproduce, on a model with the whole
    grid's tables (``whole_grid``): (energy, unit position vector, residual,
    products)."""
    energy, vec, residual, products = sp.lanczos_lowest(
        model.plane_matvec, model.dim, sp._default_seed(model, model), tol, maxit,
        precond=model.precondition)
    vec = np.fft.ifftn(vec.reshape((model.basis.dim,) + (model.grid.n,) * 3), axes=(1, 2, 3))
    return energy, vec.ravel() * math.sqrt(model.grid.point_count), residual, products


def _reflected(v, axes):
    """v, (D, n, n, n), under i -> -i mod n along each particle axis in ``axes``."""
    for axis in axes:
        v = np.roll(np.flip(v, axis=1 + axis), 1, axis=1 + axis)
    return v


@pytest.mark.parametrize("grid_name", ["+z", "lattice", "spiral"])
def test_v0_solves_on_the_sector_of_its_coupled_axes(grid_name):
    """The v0 solve runs on the zero-momentum sector of the uncoupled axes
    and matches LOBPCG on the full grid's plane-wave products: the same
    energy to 1e-12 and the same product count, a unit vector constant along
    the uncoupled axes, and a full-grid residual within the one reported."""
    params = make_params(e=0.3, Z=1.0, kappa=0.3, lam=2.0)
    grid, modes, coupled = _grid_case(grid_name, "v0")
    model = whole_grid(sp.assemble(params, grid, modes, FockBasis(modes.count, 2), variant="v0"))
    D, n = model.basis.dim, grid.n
    sector = model._sector()
    assert sector.dim == D * n**coupled
    # the sector's tables are the full grid's on the plane x = -L, q = 0 of each collapsed axis
    cut = tuple(slice(None) if axis in model._axes else slice(0, 1) for axis in range(3))
    assert np.array_equal(sector._phase, model._phase.reshape(-1, n, n, n)[(slice(None),) + cut]
                          .reshape(modes.count, -1))
    assert np.array_equal(sector._kin, model._kin.reshape(n, n, n)[cut].reshape(1, -1))

    res = sp.lanczos_ground(model, tol=1e-10, maxit=300)
    energy, _, _, products = _full_grid_ground(model, 1e-10, 300)
    assert res.energy == pytest.approx(energy, abs=1e-12)
    assert res.iterations == products
    v = res.vector
    assert v.shape == (model.dim,) and v.flags.writeable
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
    v4 = v.reshape(D, n, n, n)
    for axis in set(range(3)) - set(model._axes):
        assert np.array_equal(v4, np.broadcast_to(np.take(v4, [0], axis=1 + axis), v4.shape))
    residual = np.linalg.norm(model.matvec(v) - res.energy * v)
    assert residual <= res.residual + 1e-12


@pytest.mark.parametrize("grid_name", ["+z", "lattice", "spiral"])
def test_gross_sector_keeps_exactly_the_coupled_axes_whole(grid_name):
    """The gross sector keeps all n points of exactly the axes where g has
    a nonzero column, and the n/2 + 1 even indices of every other axis; on
    the spiral, where every axis is coupled, it is a copy of the model with
    the whole grid's cut.  It is its own sector, and the model's, cached."""
    params = make_params(e=0.3, Z=1.0, kappa=0.3, lam=2.0)
    grid, modes, coupled = _grid_case(grid_name, "gross")
    model = sp.assemble(params, grid, modes, FockBasis(modes.count, 2), variant="gross")
    sector = model._sector()
    n = grid.n
    kept = tuple(n if model.g[:, axis].any() else n // 2 + 1 for axis in range(3))
    assert sector._cells.shape == kept
    assert sum(size == n for size in sector._cells.shape) == coupled
    assert sector is not model and model._sector() is sector and sector._sector() is sector
    assert (sector._cells.cut == (slice(None),) * 3) == (coupled == 3)
    assert sector.dim == model.basis.dim * n**coupled * (n // 2 + 1) ** (3 - coupled)


@pytest.mark.parametrize("grid_name", ["+z", "lattice"])
def test_gross_sector_product_is_the_full_product_on_even_inputs(grid_name):
    """On plane-wave coefficients even along the uncoupled axes, the
    sector's product is the full grid's, folded, to 1e-13."""
    params = make_params(e=0.3, Z=1.0, kappa=0.3, lam=2.0)
    grid, modes, _ = _grid_case(grid_name, "gross")
    model = whole_grid(sp.assemble(params, grid, modes, FockBasis(modes.count, 2),
                                   variant="gross"))
    sector = model._sector()
    D, n = model.basis.dim, grid.n
    uncoupled = set(range(3)) - set(model._axes)
    rng = np.random.default_rng(53)
    s = (rng.standard_normal((D, n, n, n)) + 1j * rng.standard_normal((D, n, n, n)))
    for axis in uncoupled:
        s = 0.5 * (s + _reflected(s, [axis]))
    full = model.plane_matvec(s.ravel()).reshape(D, n, n, n)
    assert np.linalg.norm(_reflected(full, uncoupled) - full) <= 1e-13 * np.linalg.norm(full)
    folded = sector._cells.fold(s.reshape(D, -1))
    assert folded.shape == sector._shape
    assert np.linalg.norm(folded) == pytest.approx(np.linalg.norm(s), rel=1e-14)
    got = sector.plane_matvec(folded.ravel())
    ref = sector._cells.fold(full.reshape(D, -1)).ravel()
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
    back = sector._cells.unfold(folded)  # W W^T is the identity on even arrays
    assert back.shape == (D, n**3)
    assert np.linalg.norm(back - s.reshape(D, -1)) <= 1e-14 * np.linalg.norm(s)


@pytest.mark.parametrize("grid_name, n_max", [pytest.param("+z", 2, id="+z"),
                                              pytest.param("lattice", 2, id="lattice"),
                                              pytest.param("+z", 0, id="+z-vacuum")])
def test_gross_sector_solve_is_the_full_grid_solve(grid_name, n_max):
    """The gross solve on the reflection-even sector against LOBPCG on the
    whole grid kept here as the reference: the energy to 1e-12 relative,
    the same product count and the same unit position vector to 1e-10, up
    to the sign a Rayleigh-Ritz step may pick either way.  At N_max = 0 the
    lowered block the even transform meets is empty."""
    params = make_params(e=0.3, Z=1.0, kappa=0.3, lam=2.0)
    grid, modes, _ = _grid_case(grid_name, "gross")
    model = sp.assemble(params, grid, modes, FockBasis(modes.count, n_max), variant="gross")
    res = sp.lanczos_ground(model, tol=1e-10, maxit=300)
    energy, vec, _, products = _full_grid_ground(whole_grid(model), 1e-10, 300)
    assert res.energy == pytest.approx(energy, rel=1e-12)
    assert res.iterations == products
    assert res.vector.shape == (model.dim,)
    assert np.linalg.norm(res.vector) == pytest.approx(1.0, abs=1e-14)
    phase = np.vdot(vec, res.vector)
    assert abs(phase) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(res.vector - (phase / abs(phase)) * vec) <= 1e-10


def test_the_grid_solves_run_on_their_sectors(small_setup, monkeypatch):
    """On the spiral, where every axis is coupled, gross solves at the
    model's own dimension; on the +z grid gross solves at D n (n/2 + 1)^2,
    its even half of the x and y axes, and v0 at D n, one axis of n points."""
    params, grid, modes, basis = small_setup
    lowest, dims = sp.lanczos_lowest, []

    def recorded(matvec, dim, *args, **kwargs):
        dims.append(dim)
        return lowest(matvec, dim, *args, **kwargs)

    zgrid, zmodes, _ = _grid_case("+z", "gross")
    zbasis = FockBasis(zmodes.count, 2)
    models = [sp.assemble(params, grid, modes, basis, variant="gross"),
              sp.assemble(params, zgrid, zmodes, zbasis, variant="gross"),
              sp.assemble(params, zgrid, zmodes, zbasis, variant="v0")]
    for model in models[:2]:
        model.atomic_reference()  # the seed's atomic solve, cached before recording
    monkeypatch.setattr(sp, "lanczos_lowest", recorded)
    for model in models:
        sp.lanczos_ground(model, tol=1e-10, maxit=300)
    n = zgrid.n
    assert dims == [models[0].dim, zbasis.dim * n * (n // 2 + 1) ** 2, zbasis.dim * n]


@pytest.mark.parametrize("variant", ["gross", "v0"])
def test_lanczos_ground_transforms_no_whole_grid_state(variant, monkeypatch):
    """``assemble`` and a sector solve build no whole-grid table: the first
    solve builds and samples the solved sector, so the one phase table is
    the sector's, and the only whole-grid FFT is the seed row's, over n^3
    points.  No FFT spans the D n^3 points of a state, since the Ritz vector
    returns through the sector's inverse transform and GridSector.unfold."""
    params = make_params(e=0.3, Z=1.0, kappa=0.3, lam=2.0)
    grid, modes, _ = _grid_case("+z", variant)
    sizes = {"fftn": [], "ifftn": [], "phases": []}

    def counted(name, transform):
        def wrapped(a, *args, **kwargs):
            sizes[name].append(np.size(a))
            return transform(a, *args, **kwargs)
        return wrapped

    for name in ("fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    phases = GridSector.phases
    monkeypatch.setattr(GridSector, "phases",
                        lambda cells, k: sizes["phases"].append(cells.size) or phases(cells, k))
    model = sp.assemble(params, grid, modes, FockBasis(modes.count, 2), variant=variant)
    res = sp.lanczos_ground(model, tol=1e-10, maxit=300)
    assert res.vector.shape == (model.dim,)
    assert sizes["fftn"].count(grid.point_count) == 1  # the seed's vacuum row
    assert len(sizes["ifftn"]) > 0
    assert max(sizes["fftn"] + sizes["ifftn"]) < model.dim
    assert sizes["phases"] == [model._sector()._shape[1]]


@pytest.mark.parametrize("case, full, solved", [("solve-fine", 65_536, 18_496),
                                                ("verify-reference", 61_440, 19_440)])
def test_benchmark_gross_solves_shrink_to_their_even_sector(case, full, solved):
    """The gross models of solve-fine and verify-reference, one coupled axis
    (+z), solve on dimension D n (n/2 + 1)^2."""
    charge, n, radial, angular, n_max = _MEMORY_CASES[case]
    params = make_params(kappa=0.1, lam=10.0, **charge)
    modes = build_modes(0.1, 10.0, radial, angular)
    basis = FockBasis(modes.count, n_max)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # verify-reference's modes alias
        model = sp.AssembledModel("gross", params, PositionGrid(n=n, L=10.0), modes, basis)
    assert (model.dim, model._sector().dim) == (full, solved)


# solve-fine, verify-reference, and verify-reference on the golden-angle spiral
_MEMORY_CASES = {
    "solve-fine": (dict(e=0.3, Z=40.0), 32, 1, 1, 1),
    "verify-reference": (dict(e=0.3, Z=1.0), 16, 4, 1, 2),
    "spiral": (dict(e=0.3, Z=1.0), 16, 2, 2, 2),
}


def _traced_peak(apply, x):
    apply(x)  # the first call may fill caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        apply(x)
        return (tracemalloc.get_traced_memory()[1] - base) / x.nbytes
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("case", list(_MEMORY_CASES))
def test_plane_matvec_holds_no_more_than_matvec(case):
    """One plane-wave product peaks at or below one position matvec, in
    dim-length complex vectors, output included (measured: 4.00 against
    5.00, 5.07 against 6.07 and 5.74 against 6.74)."""
    charge, n, radial, angular, n_max = _MEMORY_CASES[case]
    params = make_params(kappa=0.1, lam=10.0, **charge)
    modes = build_modes(0.1, 10.0, radial, angular)
    model = whole_grid(sp.assemble(params, PositionGrid(n=n, L=10.0), modes,
                                   FockBasis(modes.count, n_max), variant="gross"))
    rng = np.random.default_rng(41)
    x = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
    assert _traced_peak(model.plane_matvec, x) <= _traced_peak(model.matvec, x)


def test_apply_D_holds_no_more_than_matvec():
    """The velocity on effmass-fiber's model (M = 24, N_max = 4, dimension
    20 475) peaks at or below one matvec, in dim-length real vectors,
    output included: its field part runs through the kernel at the one
    coupling g . d, so no stack over the axes is held (measured: 6.44
    against 7.01; 12.16 with a (C, D, X) stack)."""
    params = make_params(e=0.1, Z=1.0, kappa=0.3, lam=2.0)
    modes = build_modes(0.3, 2.0, 4, 6)
    model = whole_grid(sp.assemble(params, None, modes, FockBasis(modes.count, 4),
                                   variant="fiber"))
    x = np.random.default_rng(47).standard_normal(model.dim)
    velocity = _traced_peak(lambda v: model.apply_D(v, [0.0, 0.0, 1.0]), x)
    assert velocity <= _traced_peak(model.matvec, x)


def test_apply_D_along_an_uncoupled_axis():
    """On a +z grid the field part of the velocity vanishes along x, so
    apply_D(v, x) is the bare particle velocity F^-1 q_x F u; the particle
    part still takes every axis."""
    params = make_params(e=0.3, Z=1.0, kappa=0.3, lam=2.0)
    grid, modes, _ = _grid_case("+z", "gross")
    basis = FockBasis(modes.count, 2)
    model = whole_grid(sp.assemble(params, grid, modes, basis, variant="gross"))
    rng = np.random.default_rng(17)
    v = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
    u4 = v.reshape((basis.dim,) + (grid.n,) * 3)

    def bare(ell):
        q = grid.freqs.reshape([1] + [-1 if a == ell else 1 for a in range(3)])
        return np.fft.ifftn(q * np.fft.fftn(u4, axes=(1, 2, 3)), axes=(1, 2, 3)).ravel()

    x_bare = bare(0)
    assert np.linalg.norm(model.apply_D(v, [1.0, 0.0, 0.0]) - x_bare) <= 1e-13 * np.linalg.norm(x_bare)
    z_bare = bare(2)  # along z the field part is present
    assert np.linalg.norm(model.apply_D(v, [0.0, 0.0, 1.0]) - z_bare) > 1e-3 * np.linalg.norm(z_bare)


@pytest.mark.parametrize("variant", ["gross", "v0", "fiber"])
def test_apply_D_on_a_stack_is_each_direction(small_setup, variant, monkeypatch):
    """A stack of directions, (L, 3), gives the (L, dim) velocities one call
    per direction gives, from one forward and one inverse transform."""
    params, grid, modes, basis = small_setup
    model = whole_grid(sp.assemble(params, None if variant == "fiber" else grid, modes, basis,
                                   variant=variant))
    rng = np.random.default_rng(59)
    v = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
    directions = np.array([[1.0, 0.0, 0.0], [0.3, -0.5, 0.8], [0.0, 0.0, 1.0]])
    each = np.stack([model.apply_D(v, d) for d in directions])
    calls = []
    for name in ("fftn", "ifftn"):
        transform = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, t=transform, **k: calls.append(1) or t(*a, **k))
    stacked = model.apply_D(v, directions)
    assert len(calls) == (0 if variant == "fiber" else 2)
    assert stacked.shape == (3, model.dim)
    assert np.linalg.norm(stacked - each) <= 1e-15 * np.linalg.norm(each)


@pytest.mark.parametrize("variant", ["gross", "v0", "fiber"])
def test_ground_energy_never_rises_with_fock_cap(variant):
    # the normal-ordered cap-N operator is the exact compression of the
    # cap-(N+1) one, so by Cauchy interlacing E(N_max) is non-increasing
    params = make_params(e=0.3, Z=1.0, kappa=0.3, lam=2.0)
    if variant == "fiber":
        grid, modes, caps = None, build_modes(0.3, 2.0, 2, 3), (1, 2, 3, 4)
    else:
        grid, modes, caps = PositionGrid(n=8, L=10.0), build_modes(0.3, 2.0, 2, 1), (1, 2, 3)
    energies = [
        sp.lanczos_ground(
            sp.assemble(params, grid, modes, FockBasis(modes.count, cap), variant=variant),
            tol=1e-12,
            maxit=400,
        ).energy
        for cap in caps
    ]
    assert all(b <= a + 1e-14 for a, b in zip(energies, energies[1:])), energies
    assert energies[-1] < energies[0]


@pytest.fixture(scope="module", params=["fiber", "gross", "gross-+z"])
def kernel_model(request):
    """N_max = 3: a state with several occupied modes is raised into by each
    of them, so the adjoint has repeated targets.  The spiral grids couple
    all three axes; the +z grid of three radial nodes couples one (C = 1)."""
    params = make_params(e=0.3, Z=1.0, kappa=0.3, lam=2.0)
    if request.param == "fiber":
        modes, grid = build_modes(0.3, 2.0, 2, 6), None  # M = 12
    elif request.param == "gross":
        modes, grid = build_modes(0.3, 2.0, 2, 3), PositionGrid(n=4, L=5.0)
    else:
        modes, grid = build_modes(0.3, 2.0, 3, 1), PositionGrid(n=4, L=5.0)
    variant = request.param.split("-")[0]
    model = whole_grid(sp.assemble(params, grid, modes, FockBasis(modes.count, 3),
                                   variant=variant))
    assert model._coupling.shape[1] == (1 if request.param == "gross-+z" else 3)
    assert np.bincount(model._src.ravel()).max() == 3
    return model


def _per_mode(model, u, adjoint):
    """A_l u (A*_l u when adjoint) for every l, summed mode by mode from the
    ladder matrices and the phases; u is Fock-major, (D, X)."""
    phase = np.ones((model.modes.count, u.shape[1])) if model._phase is None else model._phase
    out = np.zeros((model._coupling.shape[1],) + u.shape, dtype=complex)
    for j in range(model.modes.count):
        a, adag = dense_ladder(model.basis, j)
        term = adag @ (u * phase[j].conj()) if adjoint else (a @ u) * phase[j]
        for ell in range(out.shape[0]):
            out[ell] += model._coupling[j, ell] * term
    return out


def _kernel_inputs(model, seed):
    rng = np.random.default_rng(seed)
    shape = (1 + model._coupling.shape[1],) + model._shape
    slabs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return slabs[0], slabs[1:]


@pytest.mark.parametrize("adjoint", [False, True])
def test_kernel_matches_per_mode_reference(kernel_model, adjoint):
    """Each kernel against the per-mode reference.  A*_l u on all D states
    through ``contract_adjoint`` with the one column l of the coupling, and
    on the lowered block (the first K rows) through ``_adjoint_components``,
    the product's path, which forms only the (M, K') entries.  A_l u on the
    lowered block through ``components``, all columns at once and one at a
    time, since the reference vanishes exactly from row K on; and A_l (A
    u)_l through ``contract``, which vanishes from row K' on."""
    model = kernel_model
    G, K, inner = model._coupling, model._src.shape[1], model._inner
    assert 0 < inner < K  # N_max = 3: the two-photon rows are a proper part
    u, V = _kernel_inputs(model, 41)
    ref = _per_mode(model, u, adjoint)
    if adjoint:
        cases = [(model._adjoint_components(u), ref[:, :K])]
        cases += [(model.contract_adjoint(u[None], G[:, ell:ell + 1]), ref[ell])
                  for ell in range(G.shape[1])]
    else:
        assert not ref[:, K:].any()
        cases = [(model.components(u, G), ref[:, :K])]
        cases += [(model.components(u, G[:, ell:ell + 1])[0], ref[ell, :K])
                  for ell in range(G.shape[1])]
    for got, want in cases:
        assert got.shape == want.shape
        # each coupled axis of a (C, K, X) stack against its own norm
        for g, w in (zip(got, want) if got.ndim == 3 else [(got, want)]):
            assert np.linalg.norm(g - w) <= 1e-13 * np.linalg.norm(w)
    if not adjoint:
        twice = sum(_per_mode(model, ref[ell], False)[ell] for ell in range(ref.shape[0]))
        assert not twice[inner:].any()
        got = model.contract(cases[0][0])
        assert np.linalg.norm(got - twice[:inner]) <= 1e-13 * np.linalg.norm(twice)
    ref = sum(_per_mode(model, V[ell], adjoint)[ell] for ell in range(V.shape[0]))
    if adjoint:
        got = model.contract_adjoint(V, G)
    else:
        # A_l V_l one column at a time; the reference vanishes from row K on
        assert not ref[K:].any()
        got = sum(model.components(V[ell], G[:, ell:ell + 1])[0] for ell in range(len(V)))
        ref = ref[:K]
    assert got.shape == ref.shape
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def test_kernel_adjoint_pairings(kernel_model):
    """<w, A V> = <A* w, V> on all D states, one column of the coupling at a
    time and all at once, and on the product's path: A* w on the lowered
    block pairs with A of a (C, K, X) stack, which lands on the first K'
    states."""
    model = kernel_model
    G, K, inner = model._coupling, model._src.shape[1], model._inner
    w, V = _kernel_inputs(model, 43)
    columns = [G[:, ell:ell + 1] for ell in range(G.shape[1])]
    lhs = sum(np.vdot(w[:K], model.components(Vl, g)[0]) for Vl, g in zip(V, columns))
    rhs = sum(np.vdot(model.contract_adjoint(w[None], g), Vl) for Vl, g in zip(V, columns))
    assert abs(lhs - rhs) <= 1e-13 * abs(lhs)
    lhs = np.vdot(w[:inner], model.contract(V[:, :K]))
    assert abs(lhs - np.vdot(model._adjoint_components(w), V[:, :K])) <= 1e-13 * abs(lhs)
    lhs = np.vdot(w, model.contract_adjoint(V, G))
    assert abs(lhs - np.vdot(model.components(w, G), V[:, :K])) <= 1e-13 * abs(lhs)


@pytest.mark.parametrize("n_max", [0, 1, 2, 3])
@pytest.mark.parametrize("variant, grid_name", [("fiber", "spiral"), ("gross", "+z"),
                                                ("gross", "spiral")])
def test_product_matches_dense_reference_at_every_cap(variant, grid_name, n_max):
    """H v against the dense reference built from the ladder matrices, from
    the vacuum alone (K = 0) through K' = 0 (N_max = 1, no two-photon
    rows) to two-photon rows that reach the third shell."""
    params = make_params(e=0.3, Z=1.0, kappa=0.3, lam=2.0)
    grid, modes, _ = _grid_case(grid_name, variant)
    basis = FockBasis(modes.count, n_max)
    model = whole_grid(sp.assemble(params, grid, modes, basis, variant=variant))
    assert model._inner == (math.comb(modes.count + n_max - 2, n_max - 2) if n_max >= 2 else 0)
    ref = _reference_hamiltonian(params, grid, modes, basis, variant)
    rng = np.random.default_rng(53 + n_max)
    for a, b in rng.standard_normal((2, 2, model.dim)):
        v = a + 1j * b
        want = ref @ v
        assert np.linalg.norm(model.matvec(v) - want) <= 1e-13 * np.linalg.norm(want)


# ---------------------------------------------------------------------------
# ground states
# ---------------------------------------------------------------------------


def test_lanczos_ground_matches_dense(small_setup, gross_model):
    params, grid, modes, basis = small_setup
    for var, model in (
        ("gross", gross_model),
        ("v0", sp.assemble(params, grid, modes, basis, variant="v0")),
    ):
        evals = np.linalg.eigvalsh(dense(whole_grid(model)))
        res = sp.lanczos_ground(model, tol=1e-10, maxit=300)
        assert res.energy == pytest.approx(evals[0], abs=1e-10), var
    fib = sp.assemble(
        params, None, modes, FockBasis(modes.count, 3), variant="fiber"
    )
    evals = np.linalg.eigvalsh(dense(whole_grid(fib)))
    res = sp.lanczos_ground(fib, tol=1e-10, maxit=300)
    assert res.energy == pytest.approx(evals[0], abs=1e-10)


def test_lanczos_ground_v0_and_fiber_vacuum_seed():
    """The v0 ground state from the constant mode and the fiber from the bare
    vacuum, at a coupling where neither seed is an eigenvector."""
    params = make_params(e=1.0, Z=1.0, kappa=0.3, lam=2.0)
    modes = build_modes(0.3, 2.0, 1, 2)
    v0 = sp.assemble(params, PositionGrid(n=4, L=3.0), modes,
                     FockBasis(modes.count, 2), variant="v0")
    fib = sp.assemble(params, None, build_modes(0.3, 2.0, 2, 2),
                      FockBasis(4, 4), variant="fiber")
    for model in (v0, fib):
        H = dense(whole_grid(model))
        res = sp.lanczos_ground(model, tol=1e-10, maxit=300)
        assert res.iterations > 2
        assert res.energy == pytest.approx(np.linalg.eigvalsh(H)[0], abs=1e-10)
        assert np.linalg.norm(H @ res.vector - res.energy * res.vector) <= 1e-10


def test_ground_state_layout_is_fock_major():
    """At e = 0 the gross ground state is psi_at (x) Omega, so the returned
    vector viewed as (D, X) holds the atomic state in the vacuum row and
    nothing in the others."""
    params = make_params(e=0.0, Z=40.0)
    modes = build_modes(0.1, 10.0, 2, 1)
    model = sp.assemble(params, PositionGrid(n=8, L=10.0), modes,
                        FockBasis(modes.count, 2), variant="gross")
    mat = sp.lanczos_ground(model, tol=1e-10, maxit=300).vector.reshape(model.basis.dim, -1)
    assert np.linalg.norm(mat[1:]) == 0.0
    overlap = abs(np.vdot(model.atomic_reference().vector, mat[0]))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_ground_energy_below_atomic_reference(gross_model):
    res = sp.lanczos_ground(gross_model, tol=1e-10, maxit=300)
    eat = gross_model.atomic_reference().energy
    assert res.energy <= eat + 1e-12


def test_atomic_reference_is_the_gross_models(small_setup):
    """Only the gross model carries the atom: v0 and fiber refuse it."""
    params, grid, modes, basis = small_setup
    for model in (sp.assemble(params, grid, modes, basis, variant="v0"),
                  sp.assemble(params, None, modes, basis, variant="fiber")):
        with pytest.raises(ParameterError, match="has no atomic reference"):
            model.atomic_reference()


def test_gross_potential_is_the_atoms(small_setup, gross_model):
    """energy.upper compares the gross energy with the atom's, so both read
    one softened Coulomb potential, -s / max(|x|, h/2), bit for bit."""
    _, grid, _, _ = small_setup
    strength = gross_model.params.alphaZ
    assert strength > 0.0
    assert np.array_equal(gross_model._pot, coulomb_potential(grid, strength).ravel())
    assert np.array_equal(gross_model._pot,
                          -strength / np.maximum(grid.radius, grid.h / 2.0).ravel())


def test_v0_commutes_with_total_momentum(small_setup):
    params, _, _, basis = small_setup
    grid = PositionGrid(n=8, L=5.0)
    dk = grid.dk
    # unit-entry lattice modes; quadratic terms stack two phases, so the
    # test vector is band-limited two lattice units away from the edge
    modes = ModeGrid(
        k=dk * np.array([[0.0, 0.0, 1.0], [-1.0, 1.0, -1.0]]),
        w=np.array([0.05, 0.04]),
    )
    model = whole_grid(sp.assemble(params, grid, modes, basis, variant="v0"))
    pf = occupations(basis) @ modes.k
    idx = np.fft.fftfreq(grid.n) * grid.n
    keep = (idx >= -grid.n // 2 + 2) & (idx <= grid.n // 2 - 1 - 2)
    mask3 = keep[:, None, None] & keep[None, :, None] & keep[None, None, :]
    rng = np.random.default_rng(21)
    v = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
    spec = np.fft.fftn(v.reshape((basis.dim,) + (grid.n,) * 3), axes=(1, 2, 3))
    spec *= mask3
    v = np.fft.ifftn(spec, axes=(1, 2, 3)).ravel()
    v /= np.linalg.norm(v)

    def total_p(vv, ell):
        u4 = vv.reshape((basis.dim,) + (grid.n,) * 3)
        mesh = [
            grid.freqs[:, None, None],
            grid.freqs[None, :, None],
            grid.freqs[None, None, :],
        ]
        out = np.fft.ifftn(np.fft.fftn(u4, axes=(1, 2, 3)) * mesh[ell], axes=(1, 2, 3))
        out += pf[:, ell, None, None, None] * u4
        return out.ravel()

    for ell in range(3):
        c = model.matvec(total_p(v, ell)) - total_p(model.matvec(v), ell)
        assert np.linalg.norm(c) < 1e-10


# ---------------------------------------------------------------------------
# commutator identity (mode pull-through)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pull_model(small_setup):
    params, _, modes, _ = small_setup
    grid = PositionGrid(n=8, L=5.0)
    basis = FockBasis(modes.count, 2)
    return sp.assemble(params, grid, modes, basis, variant="gross")


def test_pull_through_vanishes(pull_model):
    for j in range(pull_model.modes.count):
        assert sp.pull_through_residual(pull_model, j) < 1e-10


@pytest.fixture(scope="module")
def tiny_pull_model():
    params = make_params(e=0.3, Z=1.0, kappa=0.3, lam=2.0)
    modes = build_modes(0.3, 2.0, 2, 1)
    basis = FockBasis(modes.count, 2)
    return sp.assemble(params, PositionGrid(n=4, L=5.0), modes, basis, variant="gross")


def _field_energy_mutant(model, factor):
    bad = copy.copy(model)
    bad._hf = model._hf * factor  # field energy inconsistent with omega
    bad._solved = None  # its own sector, not the clean model's
    return bad


@pytest.mark.parametrize("factor", [1.001, 1.0 + 1e-9], ids=["1.001", "1+1e-9"])
def test_pull_through_has_teeth(pull_model, factor):
    assert sp.pull_through_residual(_field_energy_mutant(pull_model, factor), 0) > 1e-10


def test_pull_through_bounds_the_dense_defect_norm(tiny_pull_model):
    """The probe bound against the exact compressed defect norm on the
    solved sector, the operator the check runs on."""
    bad = _field_energy_mutant(tiny_pull_model, 1.001)
    sector = bad._sector()
    keep = np.repeat(bad.basis.totals() <= bad.basis.n_max - 1, sector._shape[1])
    cols = np.flatnonzero(keep)
    for j in range(bad.modes.count):
        defect = np.empty((cols.size, cols.size), dtype=complex)
        for c, k in enumerate(cols):
            e_k = np.zeros(sector.dim, dtype=complex)
            e_k[k] = 1.0
            defect[:, c] = sp._pull_defect(sector, j, e_k)[keep]
        exact = np.linalg.norm(defect, 2) / max(1.0, bad.modes.omega[j])
        assert exact > 1e-6  # the mutant is caught, so the comparison is not vacuous
        assert exact <= sp.pull_through_residual(bad, j)


def _counting(monkeypatch, name):
    """Count the calls of the AssembledModel method ``name``."""
    calls = []
    orig = getattr(sp.AssembledModel, name)

    def counted(self, *args):
        calls.append(name)
        return orig(self, *args)

    monkeypatch.setattr(sp.AssembledModel, name, counted)
    return calls


def test_sector_pull_defect_is_the_whole_grid_defect_of_its_unfold():
    """On the suite's pull-through model (n 8, L 5, +z modes) the defect on
    the solved sector, even in x and y, is the whole grid's on the unfolded
    probe: a_j, the velocity along g_j (on the coupled axis z) and H all
    keep the even sector, so the check runs on the operator the solve
    uses."""
    params = make_params(e=0.3, Z=1.0, kappa=0.3, lam=2.0)
    modes = build_modes(0.3, 2.0, 2, 1)
    model = sp.assemble(params, PositionGrid(n=8, L=5.0), modes, FockBasis(modes.count, 2),
                        variant="gross")
    sector = model._sector()
    whole = whole_grid(copy.copy(model))
    assert (sector._shape[1], whole._shape[1]) == (8 * 5 * 5, 8**3)
    D = model.basis.dim
    for j in range(modes.count):
        z = sp._normal(11 + j, (2, sector.dim))
        z = z[0] + 1j * z[1]
        got = sector._cells.unfold(sp._pull_defect(sector, j, z).reshape(D, -1)).ravel()
        ref = sp._pull_defect(whole, j, sector._cells.unfold(z.reshape(D, -1)).ravel())
        assert np.linalg.norm(got - ref) <= 1e-13 * max(1.0, np.linalg.norm(ref))


def test_pull_defect_lowers_the_vector_once(tiny_pull_model, monkeypatch):
    """a_j v serves both [a_j, H] v and w_j a_j v: two lowerings per probe."""
    sector = tiny_pull_model._sector()
    v = sp._normal(3, (sector.dim,)).astype(complex)
    calls = _counting(monkeypatch, "apply_a")
    sp._pull_defect(sector, 0, v)
    assert len(calls) == 2


def test_pull_through_guards(small_setup, pull_model):
    params, grid, modes, basis = small_setup
    v0 = sp.assemble(params, grid, modes, basis, variant="v0")
    with pytest.raises(ParameterError):
        sp.pull_through_residual(v0, 0)
    with pytest.raises(ParameterError):
        sp.pull_through_residual(pull_model, 99)


# ---------------------------------------------------------------------------
# total-momentum blocks
# ---------------------------------------------------------------------------


def _lift(model, P, phi):
    """phi(n) e^{i (P - P_f(n)) . x} / sqrt(X) on the whole grid of ``model``,
    (D, X) flat: the grid vector of a block vector phi at total momentum P,
    its momenta unwrapped."""
    momenta = P - occupations(model.basis) @ model.modes.k  # (D, 3)
    phases = GridSector(model.grid, (0, 1, 2), False).phases(momenta)
    return (phi[:, None] * phases).ravel() / math.sqrt(model.grid.point_count)


@pytest.mark.parametrize("n", [8, 16])
def test_block_products_are_the_grid_products_of_their_lift(n):
    """On the lattice model the grid v0 product and velocity of a lifted
    block vector are the lift of the block's, at P on and across the zone
    edge (the zone [-pi/h, pi/h) wraps P - P_f on the last three P at n 8 and
    the last two at n 16), and the block runs in float64."""
    params = make_params(e=0.3, Z=1.0, kappa=0.3, lam=2.0)
    grid = PositionGrid(n=n, L=8.0)
    model = whole_grid(sp.assemble(params, grid, _lattice_modes(grid), FockBasis(2, 3),
                                   variant="v0"))
    rng = np.random.default_rng(41)
    directions = np.array([[1.0, 0.0, 0.0], [0.3, -0.5, 0.8]])
    h, wrapped = n // 2, []
    for steps in [(0, 0, 0), (1, 1, 1), (-3, 4, -4), (h - 1, h, -h), (5, -h + 1, h + 2)]:
        P = grid.dk * np.array(steps, dtype=float)
        block = model.block(P)
        unwrapped = P - occupations(model.basis) @ model.modes.k
        wrapped.append(bool(np.any(np.abs(block._psym[:, :, 0].T - unwrapped) > 1e-12)))
        phi = rng.standard_normal(block.dim)
        lift = _lift(model, P, phi)
        assert block.dim == model.basis.dim
        pairs = [(model.matvec(lift), block.matvec(phi))]
        pairs += zip(model.apply_D(lift, directions), block.apply_D(phi, directions))
        for grid_product, block_product in pairs:
            assert block_product.dtype == np.float64
            err = np.linalg.norm(grid_product - _lift(model, P, block_product))
            assert err <= 1e-13 * max(1.0, np.linalg.norm(grid_product))
    assert wrapped == [False, False, n == 8, True, True]


@pytest.mark.parametrize("n", [8, 16])
def test_zero_momentum_block_holds_the_v0_ground_energy(n):
    params = make_params(e=0.3, Z=1.0, kappa=0.3, lam=2.0)
    grid = PositionGrid(n=n, L=8.0)
    model = sp.assemble(params, grid, _lattice_modes(grid), FockBasis(2, 2), variant="v0")
    block = sp.lanczos_ground(model.block(np.zeros(3)), tol=1e-12, maxit=400)
    grid_solve = sp.lanczos_ground(model, tol=1e-12, maxit=400)
    assert block.vector.shape == (model.basis.dim,)
    assert abs(block.energy - grid_solve.energy) <= 1e-12


def test_blocks_refuse_gross_and_off_lattice_models(small_setup, telescoping_model):
    params, grid, modes, basis = small_setup
    model, dk = telescoping_model
    gross = sp.assemble(params, model.grid, model.modes, model.basis, variant="gross")
    spiral = sp.assemble(params, grid, modes, basis, variant="v0")  # off-lattice modes
    probe = np.array([dk, dk, dk])
    for refused, reason in ((gross, "gross variant"), (spiral, "reciprocal-lattice modes")):
        with pytest.raises(ParameterError, match=reason):
            refused.block(np.zeros(3))
        with pytest.raises(ParameterError, match=reason):
            sp.soft_decomposition_residual(refused, probe)
    with pytest.raises(ParameterError, match="not on the reciprocal lattice"):
        model.block(np.array([0.5 * dk, 0.0, 0.0]))


def test_the_fiber_is_its_zero_momentum_block():
    fiber = _fiber(0.3, 1, 6, 2)._sector()
    x = np.random.default_rng(43).standard_normal(fiber.dim)
    block = fiber.block(np.zeros(3))
    assert np.array_equal(block.matvec(x), fiber.matvec(x))
    assert np.array_equal(block.apply_D(x, np.eye(3)), fiber.apply_D(x, np.eye(3)))


def test_fiber_blocks_give_the_inertia_by_finite_differences():
    """1/m_eff is the curvature of the fiber's ground energy in P: the mean
    over axes of [E(h e_l) + E(-h e_l) - 2 E(0)] / h^2 from the blocks at
    P = +-h e_l, with no velocity and no CG, matches 1/effective_mass_numeric
    with an error that falls as h^2: 1.5e-3, 3.7e-4 and 9.4e-5 of the
    inertia 1 - m/m_eff = 7.8e-4 at h = 0.08, 0.04 and 0.02 (D 28, e 0.3).
    A field factor of the velocity off by 1% moves the inertia by 2%."""
    params = make_params(e=0.3, Z=1.0, kappa=0.3, lam=2.0)
    modes = build_modes(0.3, 2.0, 1, 6)
    fiber = sp.assemble(params, None, modes, FockBasis(modes.count, 2), variant="fiber")
    inverse = 1.0 / sp.effective_mass_numeric(params, modes, fiber.basis)

    def energy(P):
        return sp.lanczos_ground(fiber.block(P), tol=1e-12, maxit=600).energy

    e0 = energy(np.zeros(3))
    errors = []
    for h in (0.08, 0.04, 0.02):
        curvature = np.mean([energy(h * d) + energy(-h * d) - 2.0 * e0 for d in np.eye(3)]) / h**2
        errors.append(abs(curvature - inverse) / (1.0 - inverse))
    assert errors[-1] < 2e-4
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine == pytest.approx(4.0, rel=0.05)


# ---------------------------------------------------------------------------
# soft-mode decomposition identity
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def telescoping_model():
    params = make_params(e=0.3, Z=1.0, kappa=0.3, lam=2.0)
    grid = PositionGrid(n=8, L=8.0)
    basis = FockBasis(2, 2)
    model = sp.assemble(params, grid, _lattice_modes(grid), basis, variant="v0")
    return model, grid.dk


def test_soft_decomposition_vanishes(telescoping_model):
    model, dk = telescoping_model
    out = sp.soft_decomposition_residual(model, np.array([dk, dk, dk]))
    assert out["res1"] < 1e-10
    assert out["res2"] < 1e-10


def test_soft_decomposition_finer_grid(telescoping_model):
    model, dk = telescoping_model
    grid16 = PositionGrid(n=16, L=8.0)
    m16 = sp.assemble(
        model.params, grid16, model.modes, model.basis, variant="v0"
    )
    out = sp.soft_decomposition_residual(m16, np.array([dk, dk, dk]))
    assert out["res1"] < 1e-10
    assert out["res2"] < 1e-10


def test_soft_decomposition_probe_guards(telescoping_model):
    model, dk = telescoping_model
    with pytest.raises(ParameterError):
        sp.soft_decomposition_residual(model, np.array([0.1 * dk, 0.0, 0.0]))
    with pytest.raises(ParameterError):
        sp.soft_decomposition_residual(model, np.array([3 * dk, 3 * dk, 0.0]))  # |k|>1
    with pytest.raises(ParameterError):
        sp.soft_decomposition_residual(model, np.zeros(3))


def test_soft_decomposition_snap_guard(telescoping_model):
    model, dk = telescoping_model
    # |k| = dk = 0.3927: |k|^(3/4) = 0.496 rounds to dk, a 21% move
    with pytest.raises(DomainError):
        sp.soft_decomposition_residual(model, np.array([dk, 0.0, 0.0]))


def test_the_first_block_refuses_a_one_way_defect_in_the_kernel(telescoping_model, monkeypatch):
    """contract_adjoint scaled one way by 1 + 1e-6 fails the symmetry sample
    of the first block a model hands out, whatever its P; the later blocks,
    which share that kernel, are not sampled again: one product in all."""
    model, dk = telescoping_model

    def fresh():  # the shared model has handed out blocks already
        return sp.assemble(model.params, model.grid, model.modes, model.basis, variant="v0")

    contract_adjoint = sp.AssembledModel.contract_adjoint
    monkeypatch.setattr(sp.AssembledModel, "contract_adjoint",
                        lambda self, V, G: (1.0 + 1e-6) * contract_adjoint(self, V, G))
    for P in (np.zeros(3), dk * np.array([1.0, -2.0, 3.0])):
        with pytest.raises(RuntimeError, match="failed the symmetry sample"):
            fresh().block(P)
    monkeypatch.setattr(sp.AssembledModel, "contract_adjoint", contract_adjoint)
    products, clean = _counting(monkeypatch, "matvec"), fresh()
    for steps in ((0, 0, 0), (1, 1, 1), (0, 2, 0)):
        clean.block(dk * np.array(steps, dtype=float))
    assert len(products) == 1


def test_soft_decomposition_has_teeth(telescoping_model, monkeypatch):
    model, dk = telescoping_model
    orig = sp.lanczos_ground

    def biased(m, **kw):
        r = orig(m, **kw)
        r.energy += 1e-6
        return r

    monkeypatch.setattr(sp, "lanczos_ground", biased)
    out = sp.soft_decomposition_residual(model, np.array([dk, dk, dk]))
    assert out["res1"] > 1e-8
    assert out["res2"] > 1e-8


def test_soft_decomposition_applies_each_operator_once_per_vector(telescoping_model,
                                                                 monkeypatch):
    """On the suite's telescoping model (n 16, L 8, probe dk (1, 1, 1)), block
    by block: one velocity call on the stack of the e_j for every D(psi, e_j)
    in the P = 0 block, one on each shifted and each lifted state in its
    block, and one H - E on each block a defect lies in, k's for step one and
    the three z1j's for step two.  Each of the 11 blocks (0, k, -f1 e_j,
    f1 e_j, z1j) is built once, the first alone sampled with one product
    (the blocks share every Fock table and kernel path), and the P = 0
    block's solve makes its own; the grid model runs no product at all."""
    model, dk = telescoping_model
    m16 = sp.assemble(model.params, PositionGrid(n=16, L=8.0), model.modes, model.basis,
                      variant="v0")
    block, blocks = sp.AssembledModel.block, []

    def counted_block(self, P):
        blocks.append(tuple(np.round(np.asarray(P) / dk).astype(int)))
        return block(self, P)

    monkeypatch.setattr(sp.AssembledModel, "block", counted_block)
    velocities = _counting(monkeypatch, "apply_D")
    products = _counting(monkeypatch, "matvec")
    solve, solves = sp.lanczos_ground, []

    def counted_solve(m, **kwargs):
        solves.append(solve(m, **kwargs))
        return solves[-1]

    monkeypatch.setattr(sp, "lanczos_ground", counted_solve)
    sp.soft_decomposition_residual(m16, np.array([dk, dk, dk]))
    f1 = 2  # |k|^(3/4) = 0.749 rounds to 2 dk
    shifts = [f * e for f in (-f1, f1) for e in np.eye(3, dtype=int)]
    expect = [(0, 0, 0), (1, 1, 1)] + shifts + [(1, 1, 1) + f1 * e for e in np.eye(3, dtype=int)]
    assert sorted(blocks) == sorted(tuple(int(m) % 16 for m in P) for P in expect)
    assert len(solves) == 1 and "_cells" not in m16.__dict__
    assert (len(velocities), len(products)) == (1 + 3 + 3, 1 + solves[0].iterations + 1 + 3)


_APPLY_D = sp.AssembledModel.apply_D


def _field_free(model, v, d):
    bad = copy.copy(model)
    bad.lin_coef = 0.0  # the velocity loses c (A + A*); H keeps it
    return _APPLY_D(bad, v, d)


@pytest.mark.parametrize("velocity", [
    _field_free, lambda model, v, d: 1.001 * _APPLY_D(model, v, d),
], ids=["no-field-part", "scaled-1.001"])
def test_soft_decomposition_catches_a_wrong_velocity(telescoping_model, monkeypatch,
                                                     velocity):
    model, dk = telescoping_model
    monkeypatch.setattr(sp.AssembledModel, "apply_D", velocity)
    out = sp.soft_decomposition_residual(model, np.array([dk, dk, dk]))
    assert out["res1"] > 1e-8
    assert out["res2"] > 1e-8


# ---------------------------------------------------------------------------
# effective mass
# ---------------------------------------------------------------------------


def test_effective_mass_free_particle():
    modes = build_modes(0.3, 2.0, 2, 6)
    basis = FockBasis(modes.count, 2)
    assert sp.effective_mass_numeric(make_params(e=0.0, Z=1.0), modes, basis) == 1.0


def test_effective_mass_matches_mode_sum():
    params = make_params(e=0.1, Z=1.0, kappa=0.3, lam=2.0)
    modes = build_modes(0.3, 2.0, 2, 6)
    basis = FockBasis(modes.count, 2)
    meff = sp.effective_mass_numeric(params, modes, basis)
    assert meff > 1.0
    x_num = 1.0 - 1.0 / meff
    x_sum = params.e**2 * sp.effective_mass_riemann(modes)
    assert abs(x_num - x_sum) / x_sum < 1e-3


def _fiber(e, n_radial, n_angular, n_max):
    modes = build_modes(0.3, 2.0, n_radial, n_angular)
    return sp.assemble(make_params(e=e, Z=1.0, kappa=0.3, lam=2.0), None,
                       modes, FockBasis(modes.count, n_max), variant="fiber")


def test_fiber_runs_in_real_arithmetic():
    """The fiber's tables are real, so a real vector stays float64 through
    every operator and the eigensolver; a complex one keeps complex
    arithmetic, and the two agree."""
    model = _fiber(0.3, 2, 6, 2)._sector()
    x = np.random.default_rng(23).standard_normal(model.dim)
    for apply in (model.matvec, lambda v: model.precondition(v, 0.1),
                  lambda v: model.apply_D(v, [0.3, -0.5, 0.8])):
        real, cplx = apply(x), apply(x.astype(complex))
        assert real.dtype == np.float64 and cplx.dtype == np.complex128
        assert not cplx.imag.any()
        assert np.linalg.norm(real - cplx.real) <= 1e-14 * np.linalg.norm(real)
    assert sp.lanczos_ground(model, tol=1e-10, maxit=300).vector.dtype == np.float64


@pytest.mark.parametrize("variant", ["gross", "v0"])
def test_grid_variants_stay_complex(small_setup, variant):
    params, grid, modes, basis = small_setup
    model = whole_grid(sp.assemble(params, grid, modes, basis, variant=variant))
    x = np.random.default_rng(29).standard_normal(model.dim)
    assert model.matvec(x).dtype == np.complex128
    assert model.precondition(x, 0.1).dtype == np.complex128
    assert model.apply_D(x, [0.0, 0.0, 1.0]).dtype == np.complex128
    assert sp.lanczos_ground(model, tol=1e-10, maxit=300).vector.dtype == np.complex128


def test_effective_mass_matches_dense_complex_reference():
    """The float64 fiber solve against the inertia from a complex dense
    eigendecomposition: 1 - 1/m = (2/3) sum_l <b_l, (H - E0)^+ b_l>,
    b_l the part of W_l psi0 off psi0."""
    params = make_params(e=0.1, Z=1.0, kappa=0.3, lam=2.0)
    modes = build_modes(0.3, 2.0, 2, 6)
    model = _fiber(0.1, 2, 6, 2)._sector()  # the operator effective_mass_numeric multiplies on
    energies, states = np.linalg.eigh(dense(model))
    assert energies[1] - energies[0] > 0.1  # a simple ground level
    psi0, eye = states[:, 0], np.eye(model.dim, dtype=complex)
    total = 0.0
    for direction in np.eye(3):
        W = np.stack([model.apply_D(col, direction) for col in eye], axis=1)
        b = W @ psi0
        b -= np.vdot(psi0, b) * psi0
        coef = states[:, 1:].conj().T @ b
        total += float(np.sum(np.abs(coef) ** 2 / (energies[1:] - energies[0])))
    numeric = sp.effective_mass_numeric(params, modes, FockBasis(modes.count, 2))
    assert 1.0 - 1.0 / numeric == pytest.approx((2.0 / 3.0) * total, rel=1e-10, abs=0.0)


def test_fiber_matvec_peak_memory():
    """One fiber matvec at the effmass benchmark's configuration (M = 24,
    N_max = 4, dim 20 475) peaks at 7.0 dim-length float64 vectors, output
    included (14.0 in complex arithmetic); the bound leaves half a vector
    of margin for the allocator."""
    model = _fiber(0.1, 4, 6, 4)._sector()
    x = np.random.default_rng(31).standard_normal(model.dim)
    model.matvec(x)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = model.matvec(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.dtype == np.float64
    assert (peak - base) / (8 * model.dim) <= 7.5


@pytest.mark.parametrize("spectrum,scale", [((1e3, 1e4), 1e-2), ((1.0, 10.0), 1e-20)],
                         ids=["rz-first", "dod-first"])
def test_pcg_stops_at_the_exact_solution(spectrum, scale):
    """At tol 1e-300 the residual bound cannot fire before <r, z> or
    <d, op d> underflows; which comes first depends on the scales of op and
    precond.  The solve then returns the solution, exact to working
    precision, instead of dividing 0 by 0 until _PCG_MAXIT."""
    n = 8
    rng = np.random.default_rng(0)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = Q @ np.diag(np.geomspace(*spectrum, n)) @ Q.T
    b = rng.standard_normal(n)
    products = []

    def op(v):
        products.append(1)
        return A @ v

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        y = sp._pcg(op, b, lambda r: scale * r, 1e-300)
    assert np.linalg.norm(A @ y - b) <= 1e-14 * np.linalg.norm(b)
    assert len(products) <= 20 * n


def test_pcg_refuses_a_non_finite_product():
    products = []

    def op(v):
        products.append(1)
        return np.full_like(v, np.nan)

    with pytest.raises(ConvergenceError, match="broke down after 1 products"):
        sp._pcg(op, np.ones(4), lambda r: r.copy(), 1e-10)
    assert len(products) == 1


def test_effective_mass_riemann_converges_to_integral():
    target = effective_mass_coefficient()
    approximations = [
        sp.effective_mass_riemann(build_modes(kap, lam, nr, 1))
        for kap, lam, nr in ((0.1, 10.0, 8), (0.01, 40.0, 24), (0.001, 200.0, 64))
    ]
    errors = [abs(a - target) for a in approximations]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 2e-3 * target
