import math

import pytest
from hypothesis import given, settings, strategies as st

from nelsonlab import closedform as cf
from nelsonlab.model import DomainError, ScaleFrame, base_frame

FOUR_PI = 4.0 * math.pi


# ---------------------------------------------------------------------------
# ultraviolet constant and its unit root


def test_c_uv_independent_rewrite():
    # independent re-expression of the same constant, term by term
    for e in (0.05, 0.2, 0.45, 0.8):
        for Z in (0.5, 1.0, 7.0):
            a = e * e / FOUR_PI
            expected = (2.0 * e / math.pi) * math.sqrt(1.0 + (a * Z) ** 2 / 2.0) + (
                14.0 + math.sqrt(6.0) * math.pi
            ) / (4.0 * math.pi**2) * e * e
            assert math.isclose(cf.c_uv(e, Z), expected, rel_tol=1e-15)


def test_c_uv_even_in_e():
    assert cf.c_uv(-0.3, 2.0) == cf.c_uv(0.3, 2.0)


def test_c_star_collapses_to_c_uv_at_tau_zero():
    for e in (0.05, 0.1, 0.3, 0.6):
        for Z in (1.0, 2.0, 5.0, 10.0):
            for rho in (0.3, 1.0, 7.3):
                c_star, c1 = cf.c_star_c1(e, Z, ScaleFrame(0.0, rho))
                assert abs(c_star - cf.c_uv(e, Z)) < 1e-13
                assert math.isclose(c1, (1.0 - c_star) ** -0.5, rel_tol=1e-15)


def test_c_star_domain_error_when_large():
    with pytest.raises(DomainError):
        cf.c_star_c1(2.5, 1.0, base_frame())


def test_e_uv_roots():
    # frozen values, residual-checked below
    assert math.isclose(cf.e_uv(1.0), 0.8884841327138524, rel_tol=1e-12)
    assert math.isclose(cf.e_uv(10.0), 0.8602941762567184, rel_tol=1e-12)
    for Z in (1e-8, 1.0, 10.0, 1e3):
        root = cf.e_uv(Z)
        assert abs(cf.c_uv(root, Z) - 1.0) < 1e-12


def test_e_uv_small_z_limit():
    # 2 e / pi + (14 + sqrt(6) pi) e^2 / (4 pi^2) = 1 has root 0.88882...
    root = cf.e_uv(1e-10)
    q = cf.C_UV_QUADRATIC
    exact = (-2.0 / math.pi + math.sqrt(4.0 / math.pi**2 + 4.0 * q)) / (2.0 * q)
    assert math.isclose(root, exact, rel_tol=1e-8)
    assert abs(root - 0.8888) < 1e-4


def test_e_uv_large_z_asymptote():
    # C_UV ~ (2e/pi)(e^2 Z / (4 pi sqrt 2)) for large Z, so
    # e_uv ~ (2 sqrt 2 pi^2 / Z)^(1/3) and Z^(1/3) e_uv -> (2 sqrt 2 pi^2)^(1/3)
    vals = [Z ** (1.0 / 3.0) * cf.e_uv(Z) for Z in (1e4, 1e5, 1e6)]
    for v in vals:
        assert abs(v - cf.E_UV_LARGE_Z) / cf.E_UV_LARGE_Z < 0.05
    assert abs(vals[2] - cf.E_UV_LARGE_Z) < abs(vals[0] - cf.E_UV_LARGE_Z)


@given(e=st.floats(0.001, 0.8), Z=st.floats(0.01, 100.0))
def test_c_uv_monotone_in_charge(e, Z):
    assert cf.c_uv(e * 1.01, Z) > cf.c_uv(e, Z)


# ---------------------------------------------------------------------------
# dressing constants and photon-number bounds


def test_c_d_independent_rewrite():
    e, Z = 0.3, 1.0
    a = e * e / FOUR_PI
    c1 = (1.0 - cf.c_uv(e, Z)) ** -0.5
    expected = c1 * (math.sqrt(2.0 + (a * Z) ** 2) + math.sqrt(2.0) * e / math.pi)
    assert math.isclose(cf.c_d(e, Z), expected, rel_tol=1e-15)
    assert math.isclose(cf.c_d(e, Z), 1.7776687676728204, rel_tol=1e-12)


def test_c_d_out_of_domain():
    with pytest.raises(DomainError):
        cf.c_d(1.5, 1.0)  # C_UV(1.5, 1) > 1


def test_photon_k_structure():
    e, Z = 0.3, 1.0
    cd = cf.c_d(e, Z)
    c1 = (1.0 - cf.c_uv(e, Z)) ** -0.5
    L = math.log(3.0 + 400.0 * math.pi / (e * e * Z))
    hi = (28.0 * cd + 39.0) ** 2 + 6.0 * c1**2 * (cd + 2.0) ** 2 * (
        9.0 + 2.0 * L**2 + 900.0 * L
    )
    lo = (28.0 * cd + 39.0) ** 2 + 6.0 * c1**2 * (cd + 2.0) ** 2 * (
        9.0 + 2.0 * L**2 + 0.09 * L
    )
    assert math.isclose(cf.photon_k(e, Z), hi, rel_tol=1e-14)
    assert math.isclose(cf.photon_k(e, Z, conservative=False), lo, rel_tol=1e-14)
    assert cf.photon_k(e, Z) > cf.photon_k(e, Z, conservative=False)


def test_photon_bounds_at_zero_charge():
    assert cf.photon_k(0.0, 1.0) == math.inf
    assert cf.hard_photon_bound(0.0, 1.0) == 0.0
    assert cf.soft_photon_bound(0.0, 1.0) == 0.0
    assert cf.total_photon_bound(0.0, 1.0) == 0.0


def test_photon_bound_values_frozen():
    e, Z = 0.3, 1.0
    assert math.isclose(cf.hard_photon_bound(e, Z), 0.009605571163147959, rel_tol=1e-12)
    assert math.isclose(cf.soft_photon_bound(e, Z), 175.8393182393126, rel_tol=1e-12)
    assert math.isclose(cf.total_photon_bound(e, Z), 7146.069408701327, rel_tol=1e-12)
    # total dominates hard: the conservative coefficient is far larger
    assert cf.total_photon_bound(e, Z) > cf.hard_photon_bound(e, Z)


# ---------------------------------------------------------------------------
# infrared overlap chain


def test_overlap_constants_zero_charge_limits():
    oc = cf.overlap_constants(0.0, 1.0, tau=0.9)
    assert oc["theta1"] == 0.0
    assert oc["theta2"] == 0.0
    assert oc["c_tau"] == 0.0
    assert oc["f_ir"] == 0.0
    assert oc["q_bound"] == 0.0
    assert oc["g_ir"] == 1.0
    assert oc["photon_K"] == math.inf


def test_overlap_constants_tau_one_zero_charge():
    # at tau = 1 the frame level is charge-independent: -Z^2/(32 pi^2)
    oc = cf.overlap_constants(0.0, 1.0, tau=1.0)
    level = -1.0 / (32.0 * math.pi**2)
    assert oc["theta1"] == 0.0  # sqrt(alpha) factor still kills it
    assert math.isclose(oc["c_tau"], 1.0, rel_tol=1e-15)  # |e|^0 term survives
    assert oc["g_ir"] == 1.0
    assert level < 0.0  # sanity on the sign convention


def test_overlap_validation():
    with pytest.raises(DomainError):
        cf.overlap_constants(0.1, 1.0, tau=0.5)
    with pytest.raises(DomainError):
        cf.coupling_window(1.0, tau=0.6)


def test_q_bound_is_half_at_a_ir2():
    w = cf.coupling_window(1.0, 0.9)
    oc = cf.overlap_constants(w.a_ir2, 1.0, 0.9)
    # F_IR(a_ir2) = (Z/4pi)^2/16 makes the tail term exactly 1/2
    assert math.isclose(oc["q_bound"], 0.5, rel_tol=1e-9)


def test_coupling_window_z1():
    w = cf.coupling_window(1.0, 0.9)
    assert math.isclose(w.e_uv, 0.8884841327138524, rel_tol=1e-12)
    assert math.isclose(w.a_ir1, 0.02240555228292217, rel_tol=1e-9)
    assert math.isclose(w.a_ir2, 7.869806336742206e-09, rel_tol=1e-9)
    # window capped by a_ir2, where g_ir ~ 1/2 - tiny photon term
    assert w.e_ir == w.a_ir2
    assert abs(w.g_ir_at_e_ir - 0.5) < 1e-6
    # inside the window the floor is positive
    oc = cf.overlap_constants(0.5 * w.e_ir, 1.0, 0.9)
    assert oc["g_ir"] > 0.6


def test_coupling_window_tau_one_has_no_first_root():
    w = cf.coupling_window(1.0, 1.0)
    assert w.a_ir1 is None
    assert w.a_ir2 is not None and w.e_ir > 0.0


_WINDOW_Z = (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)


def test_coupling_window_roots_straddle_their_crossings():
    """Over a Z x tau grid every root is the last float on the admissible
    side of its crossing, or the window raises DomainError because an
    infrared root lies below e = 1e-150."""
    below_floor = []
    for Z in _WINDOW_Z:
        for tau in (0.76, 0.8, 0.9, 0.99, 0.999, 0.9999, 1.0):
            try:
                w = cf.coupling_window(Z, tau)
            except DomainError as exc:
                assert "lies below e = 1e-150" in str(exc)
                below_floor.append((Z, tau))
                continue

            def straddles(root, admissible):
                return admissible(root) and not admissible(math.nextafter(root, math.inf))

            rhs2 = (Z / FOUR_PI) ** 2 / 16.0
            assert straddles(w.e_uv, lambda x: cf.c_uv(x, Z) <= 1.0), (Z, tau)
            assert (w.a_ir1 is None) == (tau == 1.0), (Z, tau)
            if w.a_ir1 is not None:
                assert straddles(w.a_ir1, lambda x: cf._c_tau(x, Z, tau) <= 0.5), (Z, tau)
            assert straddles(w.a_ir2, lambda x: cf._f_ir(x, Z, tau) <= rhs2), (Z, tau)
            cap = min(1.0, w.e_uv * (1.0 - 1e-9), *(a for a in (w.a_ir1, w.a_ir2) if a))
            if w.e_ir != cap:
                assert straddles(w.e_ir, lambda x: cf._g_ir(x, Z, tau) > 0.0), (Z, tau)
            assert w.e_ir >= 1e-150 and w.g_ir_at_e_ir > 0.0, (Z, tau)
    # a_ir1 near tau = 1, and a_ir2 at Z = 0.01, tau = 0.76, lie far below 1e-150
    assert set(below_floor) == {(0.01, 0.76)} | {(Z, tau) for Z in _WINDOW_Z
                                                 for tau in (0.999, 0.9999)}


def test_c_tau_and_f_ir_monotone():
    for e in (1e-6, 1e-3, 0.1):
        assert cf._c_tau(2.0 * e, 1.0, 0.9) > cf._c_tau(e, 1.0, 0.9)
        assert cf._f_ir(2.0 * e, 1.0, 0.9) > cf._f_ir(e, 1.0, 0.9)


# ---------------------------------------------------------------------------
# shell-norm ceilings and the pair functional


def test_xi_bound_five_terms():
    f = cf.NormBundle(0.11, 0.12, 0.13, 0.14)
    g = cf.NormBundle(0.21, 0.22, 0.23, 0.24)
    expected = (
        (0.22 + 0.21) * 0.13
        + (0.12 + 0.11) * 0.23
        + 0.12 * 0.22
        + math.sqrt(3.0) * 0.14 * 0.24
        + 0.5 * (0.22 * 0.11 + 0.12 * 0.21)
    )
    assert math.isclose(cf.xi_bound(f, g), expected, rel_tol=1e-15)
    # symmetric in its arguments
    assert math.isclose(cf.xi_bound(f, g), cf.xi_bound(g, f), rel_tol=1e-15)


def test_norm_ceilings():
    assert math.isclose(cf.ir_l2_ceiling(), 1.0 / (2.0 * math.pi), rel_tol=1e-15)
    assert math.isclose(cf.ir_inv_sqrt_ceiling(), 1.0 / (2.0 * math.pi), rel_tol=1e-15)
    assert math.isclose(
        cf.uv_inv_sqrt_ceiling(base_frame()), 1.0 / (math.sqrt(2.0) * math.pi), rel_tol=1e-15
    )
    assert math.isclose(
        cf.uv_inv_sqrt_ceiling(ScaleFrame(1.0, 0.25)), 4.0 / (math.sqrt(2.0) * math.pi),
        rel_tol=1e-15,
    )
    # quarter-weight ceiling at tau = 0:
    expected = math.sqrt(1.0 / (2.0 * math.sqrt(2.0) * math.pi) + 1.0 / (2.0 * math.pi**2))
    assert math.isclose(cf.uv_inv_quarter_ceiling(base_frame()), expected, rel_tol=1e-15)


def test_xi_self_ceiling_values():
    expected0 = (
        1.0 / (2.0 * math.pi**2)
        + math.sqrt(2.0) / math.pi**2
        + math.sqrt(3.0) / (2.0 * math.pi**2)
        + math.sqrt(3.0) / (2.0 * math.sqrt(2.0) * math.pi)
    )
    assert math.isclose(cf.xi_self_ceiling(base_frame()), expected0, rel_tol=1e-15)
    assert math.isclose(cf.xi_self_ceiling(base_frame()), 0.47662130316804985, rel_tol=1e-13)
    # smaller rho (< 1) at tau > 0 inflates every negative power
    assert cf.xi_self_ceiling(ScaleFrame(1.0, 0.5)) > cf.xi_self_ceiling(base_frame())


# ---------------------------------------------------------------------------
# ground-state spatial bounds


def test_moment_bounds_values():
    e, Z = 0.3, 1.0
    lam = FOUR_PI / (e * e * Z)
    L_R = math.log(3.0 + lam * 8.0)
    expected_log = L_R**2 + 4.0 * (8.0**-2 + 8.0**-1) * L_R + 5.0 / 64.0
    assert math.isclose(cf.moment_log_bound(e, Z, 8.0), expected_log, rel_tol=1e-14)
    assert math.isclose(cf.moment_abs_bound(e, Z), 10.0 * lam, rel_tol=1e-15)
    expected_sq = lam**2 * (64.0 + 5.0 / (0.5 - 0.25))
    assert math.isclose(cf.moment_sq_bound(e, Z, 8.0), expected_sq, rel_tol=1e-14)


def test_moment_bound_domains():
    with pytest.raises(DomainError):
        cf.moment_log_bound(0.3, 1.0, 0.0)
    with pytest.raises(DomainError):
        cf.moment_sq_bound(0.3, 1.0, 4.0)
    with pytest.raises(DomainError):
        cf.moment_abs_bound(0.0, 1.0)


def test_exp_moment_bound():
    e, Z, R = 0.3, 1.0, 8.0
    lam = FOUR_PI / (e * e * Z)
    # half-budget exponent: (beta^2/4) lam^2 = (1/2 - 2/R)/2
    beta = math.sqrt(2.0 * (0.5 - 2.0 / R)) / lam
    assert cf.exp_moment_precondition(e, Z, beta, R) > 0.0
    denom = 0.5 - 2.0 / R**2 - 0.25 * beta**2 * lam**2
    expected = (1.0 + (4.0 / R**2 + 2.0 * beta * lam / R) / denom) * math.exp(
        beta * lam * R
    )
    assert math.isclose(cf.exp_moment_bound(e, Z, beta, R), expected, rel_tol=1e-14)
    # too-large exponent violates the precondition
    with pytest.raises(DomainError):
        cf.exp_moment_bound(e, Z, 10.0 * beta, R)


@settings(max_examples=40)
@given(R=st.floats(4.5, 200.0), e=st.floats(0.05, 0.8), Z=st.floats(0.2, 5.0))
def test_exp_precondition_monotone_in_beta(R, e, Z):
    m1 = cf.exp_moment_precondition(e, Z, 1e-6, R)
    m2 = cf.exp_moment_precondition(e, Z, 2e-6, R)
    assert m2 <= m1


def test_localization_pieces():
    # at R = 8
    assert math.isclose(
        cf.grad_ceiling(8.0),
        4.0 / 64.0 * math.log(11.0) + 5.0 / 64.0,
        rel_tol=1e-14,
    )
    assert math.isclose(
        cf.gsq_over_x_ceiling(8.0), 2.0 * math.log(7.0) / 8.0, rel_tol=1e-14
    )
    for ceiling in (cf.grad_ceiling, cf.gsq_over_x_ceiling):
        with pytest.raises(DomainError):
            ceiling(0.0)
    # composition
    val = cf.sl1_bound(2.0, 0.3, 0.7)
    assert math.isclose(val, 4.0 * 0.3 + 2.0 * 2.0 * 0.7, rel_tol=1e-15)


def test_gsq_over_x_log_sup_location():
    # the ratio log(3 + r)/r decreases for r >= R/2, so the sup sits at R/2
    R = 8.0
    ceiling = cf.gsq_over_x_ceiling(R)
    for r in (4.0, 5.0, 6.5, 8.0):
        assert math.log(3.0 + r) / r <= ceiling + 1e-15
