"""Tests for assembly, the eigensolver, and the operator-identity checks."""

import copy
import tracemalloc

import numpy as np
import pytest

from fock_dense import dense_ladder
from nelsonlab.fockspace import FockBasis, ModeGrid, build_modes, scale_modes
from nelsonlab.model import (
    ConvergenceError,
    DomainError,
    ParameterError,
    base_frame,
    frame_for,
    make_params,
)
from nelsonlab.particle import PositionGrid
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


def test_lanczos_matches_dense_random():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((40, 40))
    A = (A + A.T) / 2.0
    energy, vec, residual, _ = sp.lanczos_lowest(lambda v: A @ v, 40)
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
    energy, vec, _, _ = sp.lanczos_lowest(lambda v: A @ v, 40, seed=seed, precond=precond)
    assert energy == pytest.approx(np.linalg.eigvalsh(A)[0], abs=1e-10)
    assert np.linalg.norm(A @ vec - energy * vec) < 1e-8
    assert np.array_equal(seed, kept)


def test_lanczos_one_dimensional():
    energy, vec, residual, it = sp.lanczos_lowest(lambda v: 3.5 * v, 1)
    assert energy == 3.5 and residual == 0.0


def test_lanczos_exact_eigenvector_seed():
    d = np.array([1.0, 2.0, 3.0, 9.0])
    seed = np.array([1.0, 0.0, 0.0, 0.0])
    energy, vec, _, it = sp.lanczos_lowest(lambda v: d * v, 4, seed=seed)
    assert energy == pytest.approx(1.0, abs=1e-14)
    assert it == 1


def test_lanczos_convergence_error():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((60, 60))
    A = (A + A.T) / 2.0
    with pytest.raises(ConvergenceError):
        sp.lanczos_lowest(lambda v: A @ v, 60, maxit=3)


def test_lanczos_rejects_zero_seed():
    with pytest.raises(ParameterError):
        sp.lanczos_lowest(lambda v: v, 4, seed=np.zeros(4))


def _never_called(v):
    pytest.fail("the operator was applied before the settings were checked")


@pytest.mark.parametrize("setting", [{"maxit": 0}, {"maxit": -3}, {"tol": 0.0},
                                     {"tol": -1.0}, {"tol": float("nan")},
                                     {"tol": float("inf")}])
def test_lanczos_rejects_bad_settings(setting):
    with pytest.raises(ParameterError):
        sp.lanczos_lowest(_never_called, 40, **setting)


def test_lanczos_basis_memory_guard(monkeypatch):
    """The guard counts the solver's working set, _WORKSET_VECTORS vectors of
    dim values at 16 bytes, and refuses before the seed is drawn."""
    dim = 10**9  # 128 GB of vectors; refused before anything is allocated
    with pytest.raises(ParameterError, match=r"dim=1000000000 needs 128000000000 bytes"):
        sp.lanczos_lowest(_never_called, dim)
    # the bound is _WORKSET_VECTORS * dim * 16 bytes, inclusive
    monkeypatch.setattr(sp, "_WORKSET_BYTES_LIMIT", sp._WORKSET_VECTORS * 40 * 16 - 1)
    with pytest.raises(ParameterError):
        sp.lanczos_lowest(_never_called, 40, maxit=10)
    monkeypatch.setattr(sp, "_WORKSET_BYTES_LIMIT", sp._WORKSET_VECTORS * 40 * 16)
    with pytest.raises(ConvergenceError):
        sp.lanczos_lowest(lambda v: np.arange(40.0) * v, 40, maxit=10)


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
            lambda v: d * v, dim, seed=seed, precond=lambda r, sigma: r / (approx + sigma))
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
    energy, vec, residual, _ = sp.lanczos_lowest(lambda v: d * v, d.size, seed=seed,
                                                 tol=1e-13, maxit=1000)
    assert energy == pytest.approx(-1.0, abs=1e-12)
    assert residual <= 1e-13
    assert residual == pytest.approx(np.linalg.norm(d * vec - energy * vec), rel=1e-9, abs=0.0)
    assert energy <= seed @ (d * seed) / (seed @ seed)


@pytest.mark.parametrize("start", ["random", "real_first_column"])
def test_lanczos_real_seed_complex_operator(start):
    """A real start on a complex Hermitian operator with a clustered bottom.

    The random start is the default real seed.  The unit-vector start meets
    a real first column, and the operator hands back a real array whenever
    the product is real, so the first product is real and only later ones
    are complex.  Either way the imaginary parts must survive the basis.
    """
    dim = 200
    rng = np.random.default_rng(29)
    U, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    d = np.concatenate([[-1.0, -1.0 + 4e-7, -1.0 + 9e-7], rng.uniform(0.0, 10.0, dim - 3)])
    A = (U * d) @ U.conj().T
    A = (A + A.conj().T) / 2.0
    seed = None
    if start == "real_first_column":
        # a diagonal unitary similarity makes column 0 real; the spectrum stays
        phase = np.ones(dim, dtype=complex)
        phase[1:] = np.conj(A[1:, 0]) / np.abs(A[1:, 0])
        A = phase[:, None] * A * phase.conj()[None, :]
        A[:, 0] = A[:, 0].real
        A[0, :] = A[:, 0]
        seed = np.eye(dim)[0]

    def matvec(v):
        w = A @ v
        return w.real if not w.imag.any() else w

    assert np.isrealobj(matvec(np.eye(dim)[0])) == (start == "real_first_column")
    energy, vec, residual, _ = sp.lanczos_lowest(matvec, dim, seed=seed)
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
    fr = frame_for(params, tau=0.5)
    for var in ("nelson",):
        with pytest.raises(ParameterError):
            sp.assemble(params, fr, grid, modes, basis, variant=var)
    with pytest.raises(ParameterError):
        sp.assemble(params, fr, None, modes, basis, variant="fiber")


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
    for var in ("gross", "nelson", "v0"):
        model = sp.assemble(params, base_frame(), grid, modes, basis, variant=var)
        H = sp.to_dense(model)
        assert np.max(np.abs(H - H.conj().T)) < 1e-12
    fib = sp.assemble(
        params, base_frame(), None, modes, FockBasis(modes.count, 2), variant="fiber"
    )
    Hf = sp.to_dense(fib)
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
        if variant == "nelson":
            cj = np.sqrt(modes.w / (2.0 * omega))
            B = sum(
                cj[j] * np.kron(params.Z * np.eye(grid.point_count) + phase[j], lower[j])
                for j in range(modes.count)
            )
            return H + c * (B + B.conj().T)
        A = [
            sum(g[j, ell] * np.kron(phase[j], lower[j]) for j in range(modes.count))
            for ell in range(3)
        ]
    for pl, Al in zip(p, A):
        As = Al.conj().T
        H = H + c * (pl @ Al + As @ pl) + q * (Al @ Al + 2.0 * As @ Al + As @ As)
    return H


@pytest.mark.parametrize("variant", ["gross", "v0", "nelson", "fiber"])
def test_dense_matches_independent_reference(variant):
    params = make_params(e=0.3, Z=1.0, kappa=0.3, lam=2.0)
    modes = build_modes(0.3, 2.0, 1, 2)
    if variant == "fiber":
        grid, modes = None, build_modes(0.3, 2.0, 2, 3)
        basis = FockBasis(modes.count, 3)
    else:
        grid, basis = PositionGrid(n=4, L=5.0), FockBasis(modes.count, 2)
    model = sp.assemble(params, base_frame(), grid, modes, basis, variant=variant)
    assert model.dim <= 1000
    ref = _reference_hamiltonian(params, grid, modes, basis, variant)
    assert np.max(np.abs(sp.to_dense(model) - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("variant", ["gross", "v0", "nelson", "fiber"])
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


@pytest.fixture(scope="module", params=["fiber", "gross", "nelson"])
def kernel_model(request):
    params = make_params(e=0.3, Z=1.0, kappa=0.3, lam=2.0)
    if request.param == "fiber":
        # M = 12, N_max = 3: a state with several occupied modes is raised
        # into by each of them, so the adjoint has repeated targets
        modes = build_modes(0.3, 2.0, 2, 6)
        basis, grid = FockBasis(modes.count, 3), None
    else:
        modes = build_modes(0.3, 2.0, 2, 3)
        basis, grid = FockBasis(modes.count, 3), PositionGrid(n=4, L=5.0)
    model = sp.assemble(params, base_frame(), grid, modes, basis, variant=request.param)
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
    got = model.components(u, adjoint=adjoint)
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
    assert abs(lhs - np.vdot(model.components(w, adjoint=True), V)) <= 1e-13 * abs(lhs)
    lhs = np.vdot(w, model.contract(V, adjoint=True))
    Aw = model.components(w)
    assert not Aw[:, K].any()  # the pad row; A w vanishes from row K on
    assert abs(lhs - np.vdot(Aw[:, :K], V[:, :K])) <= 1e-13 * abs(lhs)


def test_to_dense_guard(small_setup):
    params, _, modes, _ = small_setup
    grid = PositionGrid(n=16, L=5.0)
    basis = FockBasis(modes.count, 2)
    model = sp.assemble(params, base_frame(), grid, modes, basis)
    with pytest.raises(ParameterError):
        sp.to_dense(model)  # 16^3 * 6 = 24576 > 4000


# ---------------------------------------------------------------------------
# ground states
# ---------------------------------------------------------------------------


def test_lanczos_ground_matches_dense(small_setup, gross_model):
    params, grid, modes, basis = small_setup
    for var, model in (
        ("gross", gross_model),
        ("nelson", sp.assemble(params, base_frame(), grid, modes, basis, variant="nelson")),
        ("v0", sp.assemble(params, base_frame(), grid, modes, basis, variant="v0")),
    ):
        evals = np.linalg.eigvalsh(sp.to_dense(model))
        res = sp.lanczos_ground(model)
        assert res.energy == pytest.approx(evals[0], abs=1e-10), var
    fib = sp.assemble(
        params, base_frame(), None, modes, FockBasis(modes.count, 3), variant="fiber"
    )
    evals = np.linalg.eigvalsh(sp.to_dense(fib))
    res = sp.lanczos_ground(fib)
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
        dense = sp.to_dense(model)
        res = sp.lanczos_ground(model)
        assert res.iterations > 2
        assert res.energy == pytest.approx(np.linalg.eigvalsh(dense)[0], abs=1e-10)
        assert np.linalg.norm(dense @ res.vector - res.energy * res.vector) <= 1e-10


def test_ground_energy_below_atomic_reference(gross_model):
    res = sp.lanczos_ground(gross_model)
    eat = gross_model.atomic_reference().energy
    assert res.energy <= eat + 1e-12


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
    dk = grid.dk
    modes = ModeGrid(
        k=dk * np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
        w=np.array([0.05, 0.05]),
        kappa=0.9 * dk,
        lam=1.1 * dk,
    )
    basis = FockBasis(2, 2)
    model = sp.assemble(params, base_frame(), grid, modes, basis, variant="v0")
    return model, dk


def test_soft_decomposition_vanishes(telescoping_model):
    model, dk = telescoping_model
    out = sp.soft_decomposition_residual(model, np.array([dk, dk, dk]), epsilon=0.75)
    assert out["res1"] < 1e-10
    assert out["res2"] < 1e-10


def test_soft_decomposition_finer_grid(telescoping_model):
    model, dk = telescoping_model
    grid16 = PositionGrid(n=16, L=8.0)
    m16 = sp.assemble(
        model.params, base_frame(), grid16, model.modes, model.basis, variant="v0"
    )
    out = sp.soft_decomposition_residual(m16, np.array([dk, dk, dk]), epsilon=0.75)
    assert out["res1"] < 1e-10
    assert out["res2"] < 1e-10


def test_soft_decomposition_epsilon_guard(telescoping_model):
    model, dk = telescoping_model
    k = np.array([dk, dk, dk])
    for eps in (0.25, 0.5, 1.0):
        with pytest.raises(ParameterError):
            sp.soft_decomposition_residual(model, k, epsilon=eps)


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
        sp.soft_decomposition_residual(model, np.array([dk, 0.0, 0.0]), epsilon=0.75)


def test_soft_decomposition_has_teeth(telescoping_model, monkeypatch):
    model, dk = telescoping_model
    orig = sp.lanczos_ground

    def biased(m, **kw):
        r = orig(m, **kw)
        r.energy += 1e-6
        return r

    monkeypatch.setattr(sp, "lanczos_ground", biased)
    out = sp.soft_decomposition_residual(model, np.array([dk, dk, dk]), epsilon=0.75)
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


def test_effective_mass_riemann_converges_to_integral():
    target = effective_mass_coefficient().value
    approximations = [
        sp.effective_mass_riemann(build_modes(kap, lam, nr, 1))
        for kap, lam, nr in ((0.1, 10.0, 8), (0.01, 40.0, 24), (0.001, 200.0, 64))
    ]
    errors = [abs(a - target) for a in approximations]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 2e-3 * target
