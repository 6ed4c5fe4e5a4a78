"""Tests for assembly, the eigensolver, and the operator-identity checks."""

import copy
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from fock_dense import dense, dense_ladder
from nelsonlab.fockspace import FockBasis, ModeGrid, build_modes, scale_modes
from nelsonlab.model import (
    ConvergenceError,
    DomainError,
    ParameterError,
    base_frame,
    frame_for,
    make_params,
)
from nelsonlab.particle import PositionGrid, coulomb_potential
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
    return sp.assemble(params, base_frame(), grid, modes, basis, variant="gross")


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


def test_lanczos_basis_memory_guard(monkeypatch):
    """The guard counts the solver's working set, _WORKSET_VECTORS vectors of
    dim values at 16 bytes, and refuses before the seed is read."""
    dim = 10**9  # 128 GB of vectors; refused before anything is allocated
    seed = np.broadcast_to(1.0, dim)  # a view of one value: no dim-length allocation
    with pytest.raises(ParameterError, match=r"dim=1000000000 needs 128000000000 bytes"):
        sp.lanczos_lowest(_never_called, dim, seed, 1e-10, 300, precond=_unpreconditioned)
    # the bound is _WORKSET_VECTORS * dim * 16 bytes, inclusive
    monkeypatch.setattr(sp, "_WORKSET_BYTES_LIMIT", sp._WORKSET_VECTORS * 40 * 16 - 1)
    with pytest.raises(ParameterError):
        sp.lanczos_lowest(_never_called, 40, _random_seed(40), 1e-10, 10,
                          precond=_unpreconditioned)
    monkeypatch.setattr(sp, "_WORKSET_BYTES_LIMIT", sp._WORKSET_VECTORS * 40 * 16)
    with pytest.raises(ConvergenceError):
        sp.lanczos_lowest(lambda v: np.arange(40.0) * v, 40, _random_seed(40), 1e-10, 10,
                          precond=_unpreconditioned)


@pytest.mark.parametrize("dtype", [float, complex])
def test_lanczos_holds_only_its_counted_working_set(dtype):
    """What the guard counts is what the solver holds: its tracemalloc peak
    above the caller's seed, the product and the preconditioned residual
    included, is at most _WORKSET_VECTORS vectors."""
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
    assert (peak - base) / (dim * seed.itemsize) <= sp._WORKSET_VECTORS


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
# assembly
# ---------------------------------------------------------------------------


def test_assemble_validation(small_setup):
    params, grid, modes, basis = small_setup
    with pytest.raises(ParameterError):
        sp.assemble(params, base_frame(), grid, modes, basis, variant="polaron")
    with pytest.raises(ParameterError):
        sp.assemble(params, base_frame(), grid, modes, FockBasis(5, 1))
    with pytest.raises(ParameterError):
        sp.assemble(params, base_frame(), None, modes, basis, variant="gross")
    with pytest.raises(ParameterError):
        sp.assemble(params, base_frame(), grid, modes, basis, variant="fiber")
    with pytest.raises(ParameterError):
        sp.assemble(params, base_frame(), grid, modes, basis, variant="nelson")
    with pytest.raises(ParameterError):
        sp.assemble(params, frame_for(params, tau=0.5), None, modes, basis, variant="fiber")


def test_assemble_dimension_guard(small_setup):
    params, _, modes, _ = small_setup
    big_grid = PositionGrid(n=32, L=10.0)
    big_basis = FockBasis(modes.count, 5)  # dim 21 -> 32^3 * 21 > 5e5
    with pytest.raises(ParameterError):
        sp.assemble(params, base_frame(), big_grid, modes, big_basis)


def test_assemble_warns_outside_window(small_setup):
    _, grid, modes, basis = small_setup
    strong = make_params(e=1.2, Z=1.0, kappa=0.3, lam=2.0)
    with pytest.warns(UserWarning, match="small-charge window"):
        sp.assemble(strong, base_frame(), grid, modes, basis, variant="gross")


def test_hermitian_all_variants(small_setup):
    params, grid, modes, basis = small_setup
    for var in ("gross", "v0"):
        model = sp.assemble(params, base_frame(), grid, modes, basis, variant=var)
        H = dense(model)
        assert np.max(np.abs(H - H.conj().T)) < 1e-12
    fib = sp.assemble(
        params, base_frame(), None, modes, FockBasis(modes.count, 2), variant="fiber"
    )
    Hf = dense(fib)
    assert np.max(np.abs(Hf - Hf.conj().T)) < 1e-12


def test_zero_coupling_decouples(small_setup):
    _, grid, modes, basis = small_setup
    p0 = make_params(e=0.0, Z=1.0, kappa=0.3, lam=2.0)
    m0 = sp.assemble(p0, base_frame(), grid, modes, basis, variant="gross")
    rng = np.random.default_rng(5)
    f = rng.standard_normal(grid.point_count) + 1j * rng.standard_normal(grid.point_count)
    g = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    spec = np.fft.fftn(f.reshape((grid.n,) * 3))
    Tf = np.fft.ifftn(0.5 * grid.laplacian_symbol * spec).ravel()
    strength = sp.coulomb_coefficient(p0, base_frame())
    Vf = (-strength / np.maximum(grid.radius, grid.h / 2).ravel()) * f
    hf = basis.occupations @ modes.omega
    expect = np.kron(Tf + Vf, g) + np.kron(f, hf * g)
    assert np.linalg.norm(m0.matvec(np.kron(f, g)) - expect) < 1e-12


def _reference_hamiltonian(params, grid, modes, basis, variant):
    """H built densely from the model's definition in the base frame: DFT
    momentum matrices, diagonal phases and potential, and ladder matrices
    joined by Kronecker products."""
    omega = modes.omega
    g = np.sqrt(modes.w)[:, None] * modes.k / (np.sqrt(2.0 * omega) * (omega + 0.5 * omega**2))[:, None]
    c, q = params.e, 0.5 * params.e**2
    eye_d = np.eye(basis.dim)
    lower = [dense_ladder(basis, j)[0] for j in range(modes.count)]
    hf = np.diag(basis.occupations @ omega)
    if variant == "fiber":  # total momentum 0: p_l is -P_f,l
        pf = basis.occupations @ modes.k
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
            strength = sp.coulomb_coefficient(params, base_frame())
            h_particle = h_particle + np.diag(-strength / np.maximum(grid.radius, grid.h / 2).ravel())
        H = np.kron(h_particle, eye_d) + np.kron(np.eye(grid.point_count), hf)
        p = [np.kron(pl, eye_d) for pl in p]
        x = np.stack(np.meshgrid(grid.axis, grid.axis, grid.axis, indexing="ij"), axis=-1).reshape(-1, 3)
        phase = [np.diag(np.exp(1j * x @ kj)) for kj in modes.k]
        A = [
            sum(g[j, ell] * np.kron(phase[j], lower[j]) for j in range(modes.count))
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
        kappa=0.9 * dk,
        lam=1.1 * dk,
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
    model = sp.assemble(params, base_frame(), grid, modes, basis, variant=variant)
    assert model.dim <= 1000
    assert model._coupling.shape[1] == coupled
    ref = _reference_hamiltonian(params, grid, modes, basis, variant)
    assert np.max(np.abs(dense(model) - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("variant, grid_name", [("gross", "+z"), ("v0", "lattice"),
                                                ("gross", "spiral"), ("fiber", "spiral")])
def test_matvec_transforms_only_the_coupled_axes(variant, grid_name, monkeypatch):
    """One coupled matvec makes 2 + 2C FFTs, C the coupled axes; none on the fiber."""
    params = make_params(e=0.3, Z=1.0, kappa=0.3, lam=2.0)
    grid, modes, coupled = _grid_case(grid_name, variant)
    model = sp.assemble(params, base_frame(), grid, modes, FockBasis(modes.count, 2),
                        variant=variant)
    calls = []

    def counted(transform):
        def wrapped(*args, **kwargs):
            calls.append(transform.__name__)
            return transform(*args, **kwargs)
        return wrapped

    for name in ("fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    model.matvec(np.random.default_rng(3).standard_normal(model.dim))
    assert len(calls) == (0 if variant == "fiber" else 2 + 2 * coupled)


def test_apply_D_along_an_uncoupled_axis():
    """On a +z grid the field part of the velocity vanishes along x, so
    apply_D(v, x) is the bare particle velocity F^-1 q_x F u; the particle
    part still takes every axis."""
    params = make_params(e=0.3, Z=1.0, kappa=0.3, lam=2.0)
    grid, modes, _ = _grid_case("+z", "gross")
    basis = FockBasis(modes.count, 2)
    model = sp.assemble(params, base_frame(), grid, modes, basis, variant="gross")
    rng = np.random.default_rng(17)
    v = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
    u4 = v.reshape((grid.n,) * 3 + (basis.dim,))

    def bare(ell):
        q = grid.freqs.reshape([-1 if a == ell else 1 for a in range(3)] + [1])
        return np.fft.ifftn(q * np.fft.fftn(u4, axes=(0, 1, 2)), axes=(0, 1, 2)).ravel()

    x_bare = bare(0)
    assert np.linalg.norm(model.apply_D(v, [1.0, 0.0, 0.0]) - x_bare) <= 1e-13 * np.linalg.norm(x_bare)
    z_bare = bare(2)  # along z the field part is present
    assert np.linalg.norm(model.apply_D(v, [0.0, 0.0, 1.0]) - z_bare) > 1e-3 * np.linalg.norm(z_bare)


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
            sp.assemble(params, base_frame(), grid, modes, FockBasis(modes.count, cap), variant=variant),
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
    model = sp.assemble(params, base_frame(), grid, modes, FockBasis(modes.count, 3),
                        variant=variant)
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
    shape = (1 + model._coupling.shape[1], model.basis.dim, model._shape[0])
    slabs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return slabs[0], slabs[1:]


@pytest.mark.parametrize("adjoint", [False, True])
def test_kernel_matches_per_mode_reference(kernel_model, adjoint):
    """A*_l u over all D states; A_l u on the lowered block plus one zero pad
    row, since the reference vanishes exactly from row K on."""
    model = kernel_model
    K = model._src.shape[1]
    u, V = _kernel_inputs(model, 41)
    ref = _per_mode(model, u, adjoint)
    got = model._adjoint_components(u, u.shape[0]) if adjoint else model.components(u)
    if not adjoint:
        assert got.shape == (ref.shape[0], K + 1, ref.shape[2])
        assert not ref[:, K:].any() and not got[:, K].any()
        # contract's clipped gathers read the pad row where the full stack is zero
        full = model.contract(ref)
        assert np.linalg.norm(model.contract(got) - full) <= 1e-13 * np.linalg.norm(full)
        got, ref = got[:, :K], ref[:, :K]
    assert got.shape == ref.shape
    for ell in range(ref.shape[0]):
        assert np.linalg.norm(got[ell] - ref[ell]) <= 1e-13 * np.linalg.norm(ref[ell])
    ref = sum(_per_mode(model, V[ell], adjoint)[ell] for ell in range(V.shape[0]))
    got = model.contract(V, adjoint=adjoint)
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def test_kernel_adjoint_pairings(kernel_model):
    model = kernel_model
    K = model._src.shape[1]
    w, V = _kernel_inputs(model, 43)
    lhs = np.vdot(w, model.contract(V))
    assert abs(lhs - np.vdot(model._adjoint_components(w, w.shape[0]), V)) <= 1e-13 * abs(lhs)
    lhs = np.vdot(w, model.contract(V, adjoint=True))
    Aw = model.components(w)
    assert not Aw[:, K].any()  # the pad row; A w vanishes from row K on
    assert abs(lhs - np.vdot(Aw[:, :K], V[:, :K])) <= 1e-13 * abs(lhs)


# ---------------------------------------------------------------------------
# ground states
# ---------------------------------------------------------------------------


def test_lanczos_ground_matches_dense(small_setup, gross_model):
    params, grid, modes, basis = small_setup
    for var, model in (
        ("gross", gross_model),
        ("v0", sp.assemble(params, base_frame(), grid, modes, basis, variant="v0")),
    ):
        evals = np.linalg.eigvalsh(dense(model))
        res = sp.lanczos_ground(model, tol=1e-10, maxit=300)
        assert res.energy == pytest.approx(evals[0], abs=1e-10), var
    fib = sp.assemble(
        params, base_frame(), None, modes, FockBasis(modes.count, 3), variant="fiber"
    )
    evals = np.linalg.eigvalsh(dense(fib))
    res = sp.lanczos_ground(fib, tol=1e-10, maxit=300)
    assert res.energy == pytest.approx(evals[0], abs=1e-10)


def test_lanczos_ground_v0_and_fiber_vacuum_seed():
    """The v0 ground state from the constant mode and the fiber from the bare
    vacuum, at a coupling where neither seed is an eigenvector."""
    params = make_params(e=1.0, Z=1.0, kappa=0.3, lam=2.0)
    modes = build_modes(0.3, 2.0, 1, 2)
    v0 = sp.assemble(params, base_frame(), PositionGrid(n=4, L=3.0), modes,
                     FockBasis(modes.count, 2), variant="v0")
    fib = sp.assemble(params, base_frame(), None, build_modes(0.3, 2.0, 2, 2),
                      FockBasis(4, 4), variant="fiber")
    for model in (v0, fib):
        H = dense(model)
        res = sp.lanczos_ground(model, tol=1e-10, maxit=300)
        assert res.iterations > 2
        assert res.energy == pytest.approx(np.linalg.eigvalsh(H)[0], abs=1e-10)
        assert np.linalg.norm(H @ res.vector - res.energy * res.vector) <= 1e-10


def test_ground_energy_below_atomic_reference(gross_model):
    res = sp.lanczos_ground(gross_model, tol=1e-10, maxit=300)
    eat = gross_model.atomic_reference().energy
    assert res.energy <= eat + 1e-12


def test_gross_potential_is_the_atoms(small_setup, gross_model):
    """energy.upper compares the gross energy with the atom's, so both read
    one softened Coulomb potential, -s / max(|x|, h/2), bit for bit."""
    _, grid, _, _ = small_setup
    strength = gross_model.atomic_reference().alphaZ
    assert strength > 0.0
    assert np.array_equal(gross_model._pot, coulomb_potential(grid, strength).ravel())
    assert np.array_equal(gross_model._pot,
                          -strength / np.maximum(grid.radius, grid.h / 2.0).ravel())


def test_scaling_covariance(small_setup, gross_model):
    params, grid, modes, basis = small_setup
    fr = frame_for(params, tau=0.7)
    grid_f = PositionGrid(n=grid.n, L=fr.r_of(fr.tau) * grid.L)
    mf = sp.assemble(params, fr, grid_f, scale_modes(modes, fr), basis, variant="gross")
    rng = np.random.default_rng(8)
    w = rng.standard_normal(gross_model.dim) + 1j * rng.standard_normal(gross_model.dim)
    lhs = mf.matvec(w)
    rhs = fr.r_of(-2.0 * fr.tau) * gross_model.matvec(w)
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_v0_commutes_with_total_momentum(small_setup):
    params, _, _, basis = small_setup
    grid = PositionGrid(n=8, L=5.0)
    dk = grid.dk
    # unit-entry lattice modes; quadratic terms stack two phases, so the
    # test vector is band-limited two lattice units away from the edge
    modes = ModeGrid(
        k=dk * np.array([[0.0, 0.0, 1.0], [-1.0, 1.0, -1.0]]),
        w=np.array([0.05, 0.04]),
        kappa=0.5 * dk,
        lam=2.0 * dk,
    )
    model = sp.assemble(params, base_frame(), grid, modes, basis, variant="v0")
    pf = basis.occupations @ modes.k
    idx = np.fft.fftfreq(grid.n) * grid.n
    keep = (idx >= -grid.n // 2 + 2) & (idx <= grid.n // 2 - 1 - 2)
    mask3 = keep[:, None, None] & keep[None, :, None] & keep[None, None, :]
    rng = np.random.default_rng(21)
    v = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
    spec = np.fft.fftn(v.reshape((grid.n,) * 3 + (basis.dim,)), axes=(0, 1, 2))
    spec *= mask3[..., None]
    v = np.fft.ifftn(spec, axes=(0, 1, 2)).ravel()
    v /= np.linalg.norm(v)

    def total_p(vv, ell):
        u4 = vv.reshape((grid.n,) * 3 + (basis.dim,))
        mesh = [
            grid.freqs[:, None, None, None],
            grid.freqs[None, :, None, None],
            grid.freqs[None, None, :, None],
        ]
        out = np.fft.ifftn(np.fft.fftn(u4, axes=(0, 1, 2)) * mesh[ell], axes=(0, 1, 2))
        out += pf[:, ell] * u4
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
    return sp.assemble(params, base_frame(), grid, modes, basis, variant="gross")


def test_pull_through_vanishes(pull_model):
    for j in range(pull_model.modes.count):
        assert sp.pull_through_residual(pull_model, j) < 1e-10


def test_pull_through_has_teeth(pull_model):
    bad = copy.copy(pull_model)
    bad._hf = pull_model._hf * 1.001  # field energy inconsistent with omega
    assert sp.pull_through_residual(bad, 0) > 1e-7


def test_pull_through_guards(small_setup, pull_model):
    params, grid, modes, basis = small_setup
    v0 = sp.assemble(params, base_frame(), grid, modes, basis, variant="v0")
    with pytest.raises(ParameterError):
        sp.pull_through_residual(v0, 0)
    with pytest.raises(ParameterError):
        sp.pull_through_residual(pull_model, 99)


# ---------------------------------------------------------------------------
# soft-mode decomposition identity
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def telescoping_model():
    params = make_params(e=0.3, Z=1.0, kappa=0.3, lam=2.0)
    grid = PositionGrid(n=8, L=8.0)
    basis = FockBasis(2, 2)
    model = sp.assemble(params, base_frame(), grid, _lattice_modes(grid), basis, variant="v0")
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
        model.params, base_frame(), grid16, model.modes, model.basis, variant="v0"
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
    return sp.assemble(make_params(e=e, Z=1.0, kappa=0.3, lam=2.0), base_frame(), None,
                       modes, FockBasis(modes.count, n_max), variant="fiber")


def test_fiber_runs_in_real_arithmetic():
    """The fiber's tables are real, so a real vector stays float64 through
    every operator and the eigensolver; a complex one keeps complex
    arithmetic, and the two agree."""
    model = _fiber(0.3, 2, 6, 2)
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
    model = sp.assemble(params, base_frame(), grid, modes, basis, variant=variant)
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
    model = _fiber(0.1, 2, 6, 2)
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
    N_max = 4, dim 20 475) peaks at 10.9 dim-length float64 vectors,
    output included (21.7 in complex arithmetic).  The basis keeps no copy
    of the ladder tables it built for the model."""
    model = _fiber(0.1, 4, 6, 4)
    assert model.basis._raised is None
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
    assert (peak - base) / (8 * model.dim) <= 12.0


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
    target = effective_mass_coefficient().value
    approximations = [
        sp.effective_mass_riemann(build_modes(kap, lam, nr, 1))
        for kap, lam, nr in ((0.1, 10.0, 8), (0.01, 40.0, 24), (0.001, 200.0, 64))
    ]
    errors = [abs(a - target) for a in approximations]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 2e-3 * target
