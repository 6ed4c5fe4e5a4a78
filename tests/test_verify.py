"""Verification suite plumbing: gates, determinism, report semantics."""

import json
import math
import warnings

import numpy as np
import pytest

import nelsonlab.observables as observables
import nelsonlab.verify as verify
from nelsonlab.closedform import exp_moment_precondition, grad_ceiling
from nelsonlab.model import ConvergenceError, make_params
from nelsonlab.verify import (
    CHECK_IDS,
    BoundReport,
    Resolution,
    run_suite,
    suite_passed,
)
from nelsonlab.cli import RunConfig, _resolution, _to_json
from nelsonlab.particle import PositionGrid

SMALL = Resolution(n=8, L=10.0, n_radial=2, n_angular=1, n_max=1, tol=1e-10, maxit=200)
REFERENCE = Resolution(n=16, L=10.0, n_radial=4, n_angular=1, n_max=2, tol=1e-9, maxit=400)


def by_id(reports):
    return {r.id: r for r in reports}


@pytest.fixture(scope="module")
def full_suite():
    params = make_params(0.3, 1.0, kappa=0.1, lam=10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_suite(params, REFERENCE)


# ---------------------------------------------------------------------------
# the reference run


def test_reference_suite_has_no_failures(full_suite):
    assert suite_passed(full_suite)
    assert all(r.status == "pass" or r.skipped for r in full_suite)


def test_reports_cover_all_checks_in_id_order(full_suite):
    ids = [r.id for r in full_suite]
    assert ids == sorted(ids)
    assert set(ids) == set(CHECK_IDS)


def test_energy_window_and_binding(full_suite):
    rep = by_id(full_suite)
    assert rep["energy.upper"].passed and rep["energy.upper"].slack >= 0.0
    assert rep["energy.lower"].passed
    assert rep["binding.positivity"].passed
    # the upper reference is the discrete atomic level on the same grid
    assert rep["energy.upper"].rhs == pytest.approx(
        rep["binding.positivity"].lhs * -1.0, rel=1e-12
    )


def test_energy_bounds_say_they_hold_by_construction(full_suite):
    """energy.upper, like energy.lower, says in its notes that it cannot
    fail for a correct build, and why: the seed's Rayleigh quotient is
    E_at_h, the solve's sector keeps the seed, and Ritz values never rise."""
    rep = by_id(full_suite)
    for cid in ("energy.upper", "energy.lower"):
        assert "build-breaking bug" in rep[cid].notes, cid
    upper = rep["energy.upper"].notes
    assert upper.startswith("this check holds by construction")
    for reason in ("E_at_h", "atom (x) vacuum", "sector keeps", "Ritz values never rise"):
        assert reason in upper, reason


def test_identity_checks_are_machine_tight(full_suite):
    rep = by_id(full_suite)
    for cid in (
        "identity.pull_through",
        "identity.telescoping.res1",
        "identity.telescoping.res2",
    ):
        assert rep[cid].passed
        assert rep[cid].lhs < 1e-12


def test_pull_through_submodel_is_the_reported_one_and_holds_at_large_lambda(monkeypatch):
    ran, residual = [], verify.pull_through_residual

    def recorded(model, j):
        ran.append(model)
        return residual(model, j)

    monkeypatch.setattr(verify, "pull_through_residual", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        (report,) = run_suite(make_params(0.3, 1.0, kappa=0.1, lam=1e5), SMALL,
                              ["identity.pull_through"])
    sub = report.params
    assert sub["probes"] == 6
    assert len(ran) == sub["sub_radial"] * sub["sub_angular"]
    for model in ran:
        assert (model.grid.n, model.grid.L) == (sub["sub_n"], sub["sub_L"])
        assert model.basis.n_max == sub["sub_nmax"]
    # the defect's rounding grows with omega_j ~ lambda; read against it, it stays flat
    assert report.passed and report.lhs < 1e-10


def test_moment_and_photon_checks_are_nonvacuous(full_suite):
    rep = by_id(full_suite)
    for cid in ("moment.abs_x", "moment.log", "moment.x_squared", "moment.exponential"):
        assert rep[cid].passed
        assert rep[cid].lhs > 0.0
    assert rep["localization.g_square"].lhs > 0.0
    assert rep["photons.total"].lhs > 0.0
    assert rep["photons.hard"].lhs + rep["photons.soft"].lhs == pytest.approx(
        rep["photons.total"].lhs, rel=1e-12
    )


def test_overlap_floor_is_skipped_at_moderate_charge(full_suite):
    rep = by_id(full_suite)
    assert rep["overlap.lower_bound"].skipped
    assert "G_IR" in rep["overlap.lower_bound"].status
    assert rep["overlap.markov"].passed
    assert rep["overlap.q_bound"].passed


# ---------------------------------------------------------------------------
# gates


def test_zero_charge_is_trivially_green():
    params = make_params(0.0, 1.0)
    reports = run_suite(params, SMALL)
    rep = by_id(reports)
    assert suite_passed(reports)
    assert rep["energy.upper"].slack == 0.0
    assert rep["energy.lower"].slack == 0.0
    assert rep["photons.total"].lhs == 0.0 and rep["photons.total"].rhs == 0.0
    assert rep["overlap.lower_bound"].passed
    assert rep["overlap.lower_bound"].lhs == 1.0  # overlap floor at e = 0
    assert abs(rep["overlap.lower_bound"].slack) < 1e-10
    for cid in ("moment.abs_x", "moment.log", "moment.x_squared", "moment.exponential"):
        assert rep[cid].skipped


def test_large_charge_reports_window_exit():
    params = make_params(1.2, 1.0)
    reports = run_suite(params, SMALL, selection=["energy", "photons", "moment"])
    assert len(reports) == 9
    for r in reports:
        assert r.skipped
        assert "C_UV" in r.status
        assert r.lhs is None and r.slack is None


def test_selection_filters_by_prefix():
    params = make_params(0.2, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reports = run_suite(params, SMALL, selection=["photons"])
    assert [r.id for r in reports] == ["photons.hard", "photons.soft", "photons.total"]
    only = run_suite(params, SMALL, selection=["overlap.markov"])
    assert [r.id for r in only] == ["overlap.markov"]


# ---------------------------------------------------------------------------
# determinism and serialization


def test_suite_is_deterministic():
    params = make_params(0.25, 1.0)
    sel = ["energy", "binding", "photons", "moment", "overlap"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = run_suite(params, SMALL, selection=sel)
        b = run_suite(params, SMALL, selection=sel)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.to_dict() == rb.to_dict()  # bitwise, including floats


def test_json_is_deterministic_and_clean(full_suite):
    config = {"e": 0.3, "Z": 1.0}

    def write():
        reports = [r.to_dict() for r in full_suite]
        return _to_json({"config": config, "reports": reports, "passed": suite_passed(full_suite)})

    s1 = write()
    s2 = write()
    assert s1 == s2
    payload = json.loads(s1)
    assert payload["passed"] is True
    assert payload["config"] == config
    assert len(payload["reports"]) == len(full_suite)
    assert "NaN" not in s1 and "Infinity" not in s1


def _row(check_id):
    return next(check for check in verify._CHECKS if check.id == check_id)


def test_check_errors_fail_the_suite(monkeypatch):
    def boom(ctx):
        raise ValueError("synthetic fault")

    row = _row("energy.upper")._replace(evaluate=boom)
    monkeypatch.setattr(verify, "_CHECKS", (row,))
    reports = run_suite(make_params(0.1, 1.0), SMALL)
    assert len(reports) == 1
    assert reports[0].status == "error(ValueError: synthetic fault)"
    assert reports[0].anchor == "variational upper bound by the decoupled product state"
    assert reports[0].errored and not reports[0].skipped
    assert not suite_passed(reports)  # an error is never a skip


def test_pass_threshold_semantics(monkeypatch):
    def report(lhs, rhs):
        row = verify._Check("x", "", lambda ctx: (lhs, rhs, {}))
        monkeypatch.setattr(verify, "_CHECKS", (row,))
        (out,) = run_suite(make_params(0.1, 1.0), SMALL)
        return out

    ok = report(1.0 + 5e-11, 1.0)
    assert ok.status == "pass"  # slack -5e-11 is inside the -1e-10 tolerance
    bad = report(1.0 + 2e-10, 1.0)
    assert bad.status == "fail"
    assert not suite_passed([bad])
    scaled = report(100.0 + 5e-9, 100.0)
    assert scaled.status == "pass"  # atol scales with |rhs|


def test_failed_solve_is_attempted_once(monkeypatch):
    calls = []

    def no_convergence(model, **kwargs):
        calls.append(model.variant)
        raise ConvergenceError("synthetic stall")

    monkeypatch.setattr(verify, "lanczos_ground", no_convergence)
    reports = run_suite(make_params(0.3, 1.0), SMALL)
    assert sorted(calls) == ["gross", "v0"]
    errored = {r.id for r in reports if r.errored}
    independent = {"identity.pull_through", "identity.telescoping.res1",
                   "identity.telescoping.res2"}
    # the G_IR floor at e = 0.3 skips before the ground state is read
    assert by_id(reports)["overlap.lower_bound"].skipped
    assert errored == set(CHECK_IDS) - independent - {"overlap.lower_bound"}
    for r in reports:
        if r.errored:
            assert r.status == "error(ConvergenceError: synthetic stall)"
            assert r.anchor and r.lhs is None
    assert all(by_id(reports)[cid].passed for cid in independent)


def test_each_shared_solve_runs_once(monkeypatch):
    calls = []
    solve = verify.lanczos_ground

    def counted(model, **kwargs):
        calls.append(model.variant)
        return solve(model, **kwargs)

    monkeypatch.setattr(verify, "lanczos_ground", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reports = run_suite(make_params(0.3, 1.0), SMALL)
    assert sorted(calls) == ["gross", "v0"]
    assert suite_passed(reports)


def test_one_density_per_ground_state(monkeypatch):
    """The suite forms |psi|^2 of its ground state once: the g_R and
    exponential moments weigh the density of the report the other checks
    read."""
    calls = []
    as_matrix = observables._as_matrix

    def counted(state, basis):
        calls.append(basis.dim)
        return as_matrix(state, basis)

    monkeypatch.setattr(observables, "_as_matrix", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reports = by_id(run_suite(make_params(0.3, 1.0), SMALL))
    assert len(calls) == 1
    assert reports["localization.g_square"].passed and reports["moment.exponential"].passed


def test_exponential_beta_admits_every_scanned_radius(full_suite):
    """At beta = 1/(sqrt 2 lambda), lambda = 4 pi/(e^2 Z), the exponential
    moment's precondition margin is 3/8 - 2/R whatever e and Z are: every R
    in the scan is admissible, so the check scans them all with no gate."""
    for e in (1e-6, 1e-3, 0.3, 1.0, 10.0):
        for Z in (1e-3, 1.0, 40.0, 1e4):
            beta = 1.0 / (math.sqrt(2.0) * (4.0 * math.pi / (e * e * Z)))
            for R in verify.R_SCAN:
                margin = exp_moment_precondition(e, Z, beta, R)
                assert margin == pytest.approx(0.375 - 2.0 / R, abs=1e-15), (e, Z, R)
                assert margin >= 0.125
    # the beta the reference run uses is that one
    report = by_id(full_suite)["moment.exponential"]
    assert report.params["beta"] == pytest.approx(1.0 / (math.sqrt(2.0) * 4.0 * math.pi / 0.09),
                                                  rel=1e-15)
    assert report.params["R"] in verify.R_SCAN


def test_g_r_ramp():
    g = PositionGrid(n=16, L=8.0)
    R, c = 4.0, 2.0
    diag = verify._g_r(g, R, c)
    assert diag.shape == (g.point_count,)
    r = g.radius.ravel()
    profile = np.sqrt(np.log(3.0 + c * r))
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
        values = verify._g_r(g, R, 1.0).reshape((g.n,) * 3)
        # squared periodic forward-difference gradient, at its largest point
        sup = sum(((np.roll(values, -1, axis) - values) / g.h) ** 2 for axis in range(3)).max()
        assert sup == pytest.approx(frozen, rel=1e-12)
        assert sup < grad_ceiling(R)


BASE_KEYS = {"e", "Z", "m", "kappa", "lam", "tau", *SMALL.to_dict()}


@pytest.mark.parametrize(
    "e,Z,check_id,reason,extra",
    [
        (1.2, 1.0, "photons.total", "C_UV >= 1 (C_UV(e=1.2) = ", set()),
        (0.0, 1.0, "moment.log", "spatial ceilings need a nonzero charge", set()),
        (0.0, 1.0, "localization.g_square", "localization needs a nonzero charge", set()),
        (0.3, 150.0, "photons.soft", "alpha Z = 1.0743 >= 1", set()),
        (0.3, 1.0, "overlap.lower_bound", "overlap floor G_IR = ", {"chain_tau"}),
    ],
)
def test_skip_gates_name_their_window(e, Z, check_id, reason, extra):
    (rep,) = run_suite(make_params(e, Z), SMALL, selection=[check_id])
    assert rep.id == check_id
    assert rep.status.startswith(f"skipped({reason}")
    assert rep.lhs is None and rep.rhs is None and rep.slack is None
    assert set(rep.params) == BASE_KEYS | extra


def test_report_dataclass_shape():
    r = BoundReport("a.b", "anchor text", 1.0, 2.0, 1.0, "pass", {"e": 0.3}, "note")
    d = r.to_dict()
    assert set(d) == {"id", "anchor", "lhs", "rhs", "slack", "status", "params", "notes"}
    assert r.passed and not r.skipped
    # the suite's reference resolution is what the CLI hands it by default
    assert _resolution(RunConfig("verify")) == REFERENCE
