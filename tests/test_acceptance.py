"""Acceptance gate: one test per advertised criterion, stated tolerances.

Run with ``pytest -v tests/test_acceptance.py`` for the per-criterion
pass/fail lines.  Criterion 6 archives the suite slacks into
``tests/data/goldens.json`` on the first run and pins them thereafter at
1e-8 reproduction tolerance.
"""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fock_dense import dense, whole_grid
import nelsonlab.quadrature as qd
from nelsonlab.closedform import (
    c_star_c1,
    c_uv,
    coupling_window,
    e_uv,
    ir_inv_sqrt_ceiling,
    ir_l2_ceiling,
    overlap_constants,
    uv_inv_quarter_ceiling,
    uv_inv_sqrt_ceiling,
)
from nelsonlab.fockspace import FockBasis, ModeGrid, build_modes
from nelsonlab.model import ScaleFrame, base_frame, make_params
from nelsonlab.particle import PositionGrid, radial_resolvent_l1
from nelsonlab.spectral import (
    assemble,
    effective_mass_numeric,
    effective_mass_riemann,
    lanczos_ground,
    pull_through_residual,
    soft_decomposition_residual,
)
from nelsonlab.verify import Resolution, run_suite, suite_passed

GOLDEN_PATH = Path(__file__).parent / "data" / "goldens.json"
SMALL = Resolution(n=8, L=10.0, n_radial=2, n_angular=1, n_max=1, tol=1e-10, maxit=200)
# the reference resolution, the CLI's defaults (dim 61 440)
REFERENCE = Resolution(n=16, L=10.0, n_radial=4, n_angular=1, n_max=2, tol=1e-9, maxit=400)


@pytest.fixture(scope="module")
def reference_suite():
    """Criterion 6 configuration: e=0.3, Z=1, kappa=0.1, lam=10, M=4, N_max=2, n=16."""
    params = make_params(0.3, 1.0, kappa=0.1, lam=10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_suite(params, REFERENCE)


def test_c01_constants_identity():
    for e in np.arange(0.05, 0.6001, 0.05):
        for Z in (1.0, 2.0, 5.0, 10.0):
            reference = c_uv(float(e), Z)
            for rho in (0.5, 1.0, 2.0):
                star, _ = c_star_c1(float(e), Z, ScaleFrame(0.0, rho))
                assert abs(star - reference) <= 1e-13, (e, Z, rho)
    print("C01 constants identity: PASS")


def test_c02_uv_root():
    for Z in (1e-9, 1.0, 10.0, 1e3):
        root = e_uv(Z)
        assert abs(c_uv(root, Z) - 1.0) < 1e-12, Z
    assert abs(e_uv(1e-9) - 0.8888) < 5e-5  # the weak-source limit of the root
    scaled = [e_uv(Z) * Z ** (1.0 / 3.0) for Z in (1e4, 1e5, 1e6)]
    drift = max(scaled) / min(scaled) - 1.0
    assert drift < 0.05
    print(f"C02 uv root: PASS (cube-root drift {drift:.2%})")


def test_c03_quadrature_oracles():
    whole_shell = make_params(0.3, 1.0, kappa=0.0, lam=math.inf)
    for c in (0.25, 1.0, 3.7, 12.0):
        # rho^(2 tau) = c: the omega^(-1/2) norms square-sum to 1/(2 pi^2 c)
        got = sum(qd.f_tau_norm(whole_shell, ScaleFrame(0.5, c), name) ** 2
                  for name in ("f_ir_over_sqrt_omega", "f_uv_over_sqrt_omega"))
        exact = 1.0 / (2.0 * math.pi ** 2 * c)
        assert abs(got - exact) <= 1e-9 * exact

    coeff = qd.effective_mass_coefficient()
    assert abs(coeff - qd.EFFECTIVE_MASS_COEFFICIENT_EXACT) <= 1e-9 * coeff

    for kappa, lam in ((0.1, 10.0), (0.0, math.inf)):
        params = make_params(0.3, 1.0, kappa=kappa, lam=lam)
        for name, ceiling in (("f_ir_l2", ir_l2_ceiling()),
                              ("f_ir_over_sqrt_omega", ir_inv_sqrt_ceiling()),
                              ("f_uv_over_sqrt_omega", uv_inv_sqrt_ceiling(base_frame())),
                              ("f_uv_over_quarter_omega", uv_inv_quarter_ceiling(base_frame()))):
            assert qd.f_tau_norm(params, base_frame(), name) < ceiling, name

    v = qd.cin(100.0)
    assert abs(v - 5.1875) < 1e-3
    assert v <= qd.EULER_GAMMA + math.log(15.0) + 91.0 / 30.0
    print("C03 quadrature oracles: PASS")


def test_c04_operator_identities():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for n, L, n_radial, n_max in ((8, 5.0, 2, 2), (12, 6.0, 3, 3)):
            grid = PositionGrid(n, L)
            modes = build_modes(0.1, 10.0, n_radial, 1)
            basis = FockBasis(modes.count, n_max)
            model = assemble(
                make_params(0.3, 1.0, kappa=0.1, lam=10.0),
                grid, modes, basis, variant="gross",
            )
            for j in range(modes.count):
                assert pull_through_residual(model, j) < 1e-10, (n, j)

        for n in (8, 16):
            grid = PositionGrid(n, 8.0)
            dk = grid.dk
            modes = ModeGrid(
                k=dk * np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
                w=np.array([0.05, 0.05]),
            )
            model = assemble(
                make_params(0.2, 1.0, kappa=0.9 * dk, lam=1.1 * dk),
                grid, modes, FockBasis(2, 2), variant="v0",
            )
            res = soft_decomposition_residual(model, dk * np.array([1.0, 1.0, 1.0]))
            assert res["res1"] < 1e-10 and res["res2"] < 1e-10, n
    print("C04 operator identities: PASS")


def test_c05_dense_oracle_equivalence():
    grid = PositionGrid(8, 8.0)
    modes = build_modes(0.2, 5.0, 2, 1)
    cases = [
        ("gross", make_params(0.3, 1.0, kappa=0.2, lam=5.0), grid, FockBasis(2, 1)),
        ("gross", make_params(0.0, 1.0, kappa=0.2, lam=5.0), grid, FockBasis(2, 1)),
        ("v0", make_params(0.25, 1.0, kappa=0.2, lam=5.0), grid, FockBasis(2, 1)),
        ("fiber", make_params(0.3, 1.0, kappa=0.2, lam=5.0), None, FockBasis(2, 4)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for variant, params, g, basis in cases:
            model = assemble(params, g, modes, basis, variant=variant)
            assert model.dim <= 4000
            exact = float(np.linalg.eigvalsh(dense(whole_grid(model)))[0])
            fast = lanczos_ground(model, tol=1e-12, maxit=400).energy
            assert abs(exact - fast) <= 1e-10, (variant, exact, fast)
    print("C05 dense oracle equivalence: PASS")


def test_c06_inequality_suite_with_goldens(reference_suite):
    reports = {r.id: r for r in reference_suite}
    named = (
        "energy.upper", "energy.lower", "binding.positivity",
        "photons.hard", "photons.total",
        "moment.abs_x", "moment.log", "moment.x_squared", "moment.exponential",
    )
    for cid in named:
        assert reports[cid].status == "pass", (cid, reports[cid].status)
    assert suite_passed(reference_suite)

    slacks = {
        r.id: r.slack for r in reference_suite if not r.skipped and r.slack is not None
    }
    if not GOLDEN_PATH.exists():
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(slacks, indent=2, sort_keys=True) + "\n")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert set(golden) == set(slacks)
    for cid, pinned in golden.items():
        assert slacks[cid] == pytest.approx(pinned, rel=1e-8, abs=1e-12), cid
    # the golden slacks 1e-10 - lhs, compared at abs 1e-12, miss an identity
    # defect grown from its 3.4e-14 or 1.4e-15 to 9e-13; each lhs is pinned
    # below 2e-13, six times the largest
    identities = [r for r in reference_suite if r.id.startswith("identity.")]
    assert len(identities) == 3
    for r in identities:
        assert r.lhs < 2e-13, (r.id, r.lhs)
    print(f"C06 inequality suite: PASS ({len(golden)} slacks pinned)")


def test_c07_overlap_chain():
    window = coupling_window(1.0, tau=0.9)
    assert window.a_ir1 == pytest.approx(0.02240555228292217, rel=1e-9)
    assert window.a_ir2 == pytest.approx(7.869806336742206e-09, rel=1e-9)
    assert window.e_ir == window.a_ir2

    e_test = 0.5 * window.e_ir
    floor = overlap_constants(e_test, 1.0, tau=0.9)["g_ir"]
    assert floor == pytest.approx(0.6476, abs=5e-5)
    reports = run_suite(make_params(e_test, 1.0), SMALL, selection=["overlap.lower_bound"])
    report = reports[0]
    assert report.status == "pass"
    assert report.lhs == pytest.approx(floor, rel=1e-12)
    assert report.rhs >= 0.648
    print(f"C07 overlap chain: PASS (floor {floor:.4f}, overlap {report.rhs:.6f})")


def test_c08_effective_mass():
    assert effective_mass_numeric(make_params(0.0, 1.0), build_modes(0.3, 2.0, 2, 6),
                                  FockBasis(12, 2)) == 1.0

    params = make_params(0.1, 1.0, kappa=0.3, lam=2.0)
    modes = build_modes(0.3, 2.0, 2, 6)
    basis = FockBasis(modes.count, 2)
    numeric = effective_mass_numeric(params, modes, basis)
    inertia = 1.0 - 1.0 / numeric
    mode_sum = params.e**2 * effective_mass_riemann(modes)
    assert abs(inertia - mode_sum) <= 1e-3 * mode_sum

    target = qd.EFFECTIVE_MASS_COEFFICIENT_EXACT
    refinements = [
        effective_mass_riemann(build_modes(kap, lam, nr, 1))
        for kap, lam, nr in ((0.1, 10.0, 8), (0.01, 40.0, 24), (0.001, 200.0, 64))
    ]
    errors = [abs(w - target) for w in refinements]
    assert errors[0] > errors[1] > errors[2]

    at_twelve = effective_mass_riemann(build_modes(0.1, 10.0, 12, 1))
    assert 0.5 < at_twelve / target < 2.0
    print(f"C08 effective mass: PASS (12-node ratio {at_twelve / target:.3f})")


def test_c09_binding_expansion():
    e, Z = 0.3, 1.0
    ratio_one = qd.binding_second_order(e, Z)
    aZ = e * e / (4.0 * math.pi) * Z
    reference = -(aZ * aZ / 2.0) * e * e / (6.0 * math.pi**2)  # E_at e^2/(6 pi^2)
    assert abs(ratio_one - reference) <= 1e-6 * abs(reference)

    full = qd.binding_second_order(e, Z, resolvent=lambda s: radial_resolvent_l1(aZ, s))
    envelope = qd.binding_envelope(e, Z)
    assert math.isfinite(full)
    assert abs(full) < abs(envelope)
    print(f"C09 binding expansion: PASS (full {full:.6e} inside envelope {envelope:.6e})")


def _verify_stdout(threads: str) -> bytes:
    env = os.environ.copy()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    argv = [
        sys.executable, "-m", "nelsonlab", "verify",
        "--e", "0.3", "--Z", "1",
        "--grid-n", "8", "--modes-radial", "2", "--nmax", "1",
    ]
    proc = subprocess.run(argv, capture_output=True, env=env, check=True)
    return proc.stdout


def test_c10_determinism_across_thread_counts():
    first = _verify_stdout("1")
    second = _verify_stdout("8")
    assert first == second
    assert json.loads(first)["passed"] is True
    print(f"C10 determinism: PASS ({len(first)} bytes, identical)")
