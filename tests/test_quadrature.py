import math

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import sici

from nelsonlab import closedform as cf
from nelsonlab import quadrature as qd
from nelsonlab.model import DivergentIntegralError, DomainError, ParameterError, make_params


# ---------------------------------------------------------------------------
# shell moments


def test_shell_b2_family_matches_antiderivative():
    for c in (0.25, 1.0, 3.7, 12.0):
        got = qd.shell_moment(0.0, 2.0, c, qd.ShellSpec(0.0, math.inf))
        assert abs(got.value - 8.0 * math.pi / c) <= 1e-9 * (8.0 * math.pi / c)
        # the oracle helper agrees on finite windows too
        fin = qd.shell_moment(0.0, 2.0, c, qd.ShellSpec(0.2, 5.0))
        oracle = qd.shell_moment_b2_analytic(0.0, c, 0.2, 5.0)
        assert abs(fin.value - oracle) <= 1e-10 * abs(oracle)


def test_shell_a1_b2_finite_window_oracle():
    oracle = qd.shell_moment_b2_analytic(1.0, 1.0, 0.0, 1.0)
    got = qd.shell_moment(1.0, 2.0, 1.0, qd.ShellSpec(0.0, 1.0))
    assert abs(got.value - oracle) <= 1e-10 * abs(oracle)
    # hand value: 4 pi (4 log(3/2) + 4/(1 + 1/2) - 4)
    hand = 4.0 * math.pi * (4.0 * math.log(1.5) - 4.0 / 3.0)
    assert abs(oracle - hand) <= 1e-12 * abs(hand)


def test_shell_region_additivity():
    for (a, b, c) in ((0.0, 2.0, 1.0), (0.5, 2.0, 0.3), (-0.5, 1.5, 2.0)):
        full = qd.shell_moment(a, b, c, qd.ShellSpec(0.0, math.inf, "full"))
        ir = qd.shell_moment(a, b, c, qd.ShellSpec(0.0, math.inf, "infrared"))
        uv = qd.shell_moment(a, b, c, qd.ShellSpec(0.0, math.inf, "ultraviolet"))
        assert abs(ir.value + uv.value - full.value) <= 1e-10 * abs(full.value)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(-0.9, 0.9),
    c=st.floats(0.1, 2.0),
    kap=st.floats(0.0, 0.8),
)
@example(a=-0.9, c=2.0, kap=1e-7)  # origin just below kappa: extrapolation from 0
@example(a=0.0, c=1.0, kap=3e-170)  # r^-2 overflows at r = kappa
def test_shell_region_additivity_property(a, c, kap):
    full = qd.shell_moment(a, 2.0, c, qd.ShellSpec(kap, math.inf, "full"))
    ir = qd.shell_moment(a, 2.0, c, qd.ShellSpec(kap, math.inf, "infrared"))
    uv = qd.shell_moment(a, 2.0, c, qd.ShellSpec(kap, math.inf, "ultraviolet"))
    assert abs(ir.value + uv.value - full.value) <= 1e-9 * max(abs(full.value), 1e-12)


def test_shell_divergence_guards():
    # a + 2 - 2b = -1 at infinity: log-divergent for rho2tau > 0
    with pytest.raises(DivergentIntegralError):
        qd.shell_moment(1.0, 2.0, 1.0, qd.ShellSpec(0.0, math.inf))
    # origin: a + 2 - b = -1 is log-divergent
    with pytest.raises(DivergentIntegralError):
        qd.shell_moment(-1.0, 2.0, 1.0, qd.ShellSpec(0.0, 1.0))
    # rho2tau = 0: the denominator only grows like r^b
    with pytest.raises(DivergentIntegralError):
        qd.shell_moment(0.0, 2.0, 0.0, qd.ShellSpec(0.5, math.inf))
    # same exponents converge on a bounded window
    out = qd.shell_moment(1.0, 2.0, 1.0, qd.ShellSpec(0.1, 10.0))
    assert out.value > 0.0


def test_shell_empty_regions():
    uv = qd.shell_moment(0.0, 2.0, 1.0, qd.ShellSpec(0.1, 0.9, "ultraviolet"))
    assert uv == qd.QuadResult(0.0, 0.0, 0)
    ir = qd.shell_moment(0.0, 2.0, 1.0, qd.ShellSpec(2.0, 9.0, "infrared"))
    assert ir.value == 0.0 and ir.nodes_used == 0


def test_shell_spec_validation():
    with pytest.raises(ParameterError):
        qd.ShellSpec(-0.1, 1.0)
    with pytest.raises(ParameterError):
        qd.ShellSpec(2.0, 1.0)
    with pytest.raises(ParameterError):
        qd.ShellSpec(0.0, 1.0, "sideband")
    with pytest.raises(ParameterError):
        qd.shell_moment(0.0, 2.0, -1.0, qd.ShellSpec(0.0, 1.0))


# ---------------------------------------------------------------------------
# sine/cosine integrals (scipy.special.sici is the test oracle only)


def test_si_against_scipy():
    for x in (0.05, 0.5, 1.0, 2.0, 3.9, 3.999, 4.0, 4.001, 6.0, 10.0, 37.0,
              100.0, 1e3, 1e4):
        assert abs(qd.si(x) - sici(x)[0]) < 5e-14


def test_si_special_points():
    assert qd.si(0.0) == 0.0
    assert qd.si(-2.0) == -qd.si(2.0)
    assert qd.si(math.inf) == 0.5 * math.pi


def test_ci_against_scipy():
    for x in (0.05, 0.5, 1.0, 3.9, 4.1, 10.0, 100.0, 1e4):
        assert abs(qd.ci(x) - sici(x)[1]) < 5e-13
    with pytest.raises(DomainError):
        qd.ci(0.0)


def test_cin_basics():
    assert qd.cin(0.0) == 0.0
    assert qd.cin(-3.0) == qd.cin(3.0)
    # identity cin(x) = gamma + log x - Ci(x), oracle from scipy
    for x in (0.3, 1.0, 7.0, 100.0):
        ref = qd.EULER_GAMMA + math.log(x) - sici(x)[1]
        assert abs(qd.cin(x) - ref) < 1e-12


def test_cin_100_ceiling():
    v = qd.cin(100.0)
    ceiling = qd.EULER_GAMMA + math.log(15.0) + 91.0 / 30.0
    assert abs(v - 5.18754) < 1e-4
    assert v <= ceiling
    assert abs(ceiling - 6.31860) < 1e-4


def test_cin_large_argument_ceiling():
    x = 1e4
    v = qd.cin(x)
    ref = qd.EULER_GAMMA + math.log(x) - sici(x)[1]
    assert abs(v - ref) < 1e-10
    ceiling = qd.EULER_GAMMA + math.log(15.0) + 91.0 / 30.0 + 2.0 * math.log(x)
    assert v <= ceiling


# ---------------------------------------------------------------------------
# self-energy constant


def test_energy_renormalization_oracle():
    for (e, Z, kap, lam) in ((0.3, 1.0, 0.1, 10.0), (0.6, 5.0, 0.5, 40.0),
                             (0.2, 2.0, 1e-3, 10.0)):
        p = make_params(e, Z, kappa=kap, lam=lam)
        v = qd.energy_renormalization(p)
        assert abs(v - qd.energy_renormalization_analytic(p)) <= 1e-10 * abs(v)


def test_energy_renormalization_limits():
    assert qd.energy_renormalization(make_params(0.0, 1.0)) == 0.0
    p10 = make_params(0.3, 1.0, lam=10.0)
    p100 = make_params(0.3, 1.0, lam=100.0)
    v10, v100 = qd.energy_renormalization(p10), qd.energy_renormalization(p100)
    assert 0.0 < v10 < v100  # grows without sign change
    with pytest.raises(ParameterError):
        qd.energy_renormalization(make_params(0.3, 1.0, kappa=0.0))
    with pytest.raises(DivergentIntegralError):
        qd.energy_renormalization(make_params(0.3, 1.0, lam=math.inf))


# ---------------------------------------------------------------------------
# correction potential


def test_correction_potential_tail_limit():
    p = make_params(0.3, 1.0, kappa=1e-6, lam=1e6)
    assert abs(qd.correction_potential(p, 1.0)) < 1e-4 * 0.3**2 * 1.0


def test_correction_potential_basics():
    p = make_params(0.3, 1.0)
    assert qd.correction_potential(make_params(0.0, 1.0), 1.0) == 0.0
    with pytest.raises(DomainError):
        qd.correction_potential(p, 0.0)
    # x * V(x) bounded over a wide sweep
    vals = [abs(x * qd.correction_potential(p, x))
            for x in (0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0)]
    bracket_max = math.pi + 2.0 * 0.2811  # |Si| overshoot allowance
    bound = p.e**2 * p.Z / (2.0 * math.pi**2) * bracket_max
    assert max(vals) <= bound


def test_correction_potential_infinite_lam():
    p = make_params(0.3, 1.0, kappa=0.1, lam=math.inf)
    # only the inner tail contributes
    v = qd.correction_potential(p, 2.0)
    expect = 0.3**2 / (2.0 * math.pi**2) * qd.si(0.2) / 2.0
    assert abs(v - expect) < 1e-14


# ---------------------------------------------------------------------------
# effective-mass coefficient and binding expansion


def test_effective_mass_coefficient_exact():
    out = qd.effective_mass_coefficient()
    exact = qd.EFFECTIVE_MASS_COEFFICIENT_EXACT
    assert abs(out.value - exact) <= 1e-9 * exact
    assert abs(exact - 0.0168869) < 1e-7


def test_effective_mass_coefficient_massive():
    massless = qd.effective_mass_coefficient().value
    massive = qd.effective_mass_coefficient(massive=True).value
    assert math.isfinite(massive) and massive > 0.0
    assert massive < massless  # heavier dispersion suppresses small k


def test_binding_second_order_ratio_one():
    e, Z = 0.3, 1.0
    aZ = e * e / (4.0 * math.pi) * Z
    exact = -(e * e / (12.0 * math.pi**2)) * aZ * aZ
    got = qd.binding_second_order(e, Z)
    assert abs(got - exact) <= 1e-6 * abs(exact)
    assert qd.binding_second_order(0.0, 1.0) == 0.0


def test_binding_envelope_is_twice_ratio_one():
    e, Z = 0.4, 2.0
    assert abs(qd.binding_envelope(e, Z) / qd.binding_second_order(e, Z) - 2.0) < 1e-9


def test_binding_envelope_guard_trips():
    e, Z = 0.3, 1.0
    aZ = e * e / (4.0 * math.pi) * Z
    with pytest.raises(DomainError):
        qd.binding_second_order(e, Z, resolvent=lambda s: 100.0 * aZ * aZ)


# ---------------------------------------------------------------------------
# coupling-function norms


def _analytic_norms():
    # closed forms of the four norms at tau = 0, kappa = 0, lam = inf
    ir_l2 = math.sqrt(4.0 * math.log(1.5) - 4.0 / 3.0) / (2.0 * math.pi)
    ir_inv_sqrt = 1.0 / (math.sqrt(6.0) * math.pi)
    uv_inv_sqrt = 1.0 / (math.sqrt(3.0) * math.pi)
    A = (0.5 * math.pi - math.atan(1.0 / math.sqrt(2.0))) / math.sqrt(2.0)
    uv_inv_quarter = math.sqrt(4.0 * A + 4.0 / 3.0) / (2.0 * math.pi)
    return ir_l2, ir_inv_sqrt, uv_inv_sqrt, uv_inv_quarter


def test_f_tau_norms_analytic_oracles():
    p = make_params(0.3, 1.0, kappa=0.0, lam=math.inf)
    nb = qd.f_tau_norms(p)
    oracle = _analytic_norms()
    got = (nb.f_ir_l2, nb.f_ir_over_sqrt_omega,
           nb.f_uv_over_sqrt_omega, nb.f_uv_over_quarter_omega)
    for g, o in zip(got, oracle):
        assert abs(g - o) <= 1e-10 * o


def test_f_tau_norms_below_ceilings():
    p = make_params(0.3, 1.0, kappa=0.0, lam=math.inf)
    nb = qd.f_tau_norms(p)
    assert nb.f_ir_l2 < cf.ir_l2_ceiling()
    assert nb.f_ir_over_sqrt_omega < cf.ir_inv_sqrt_ceiling()
    assert nb.f_uv_over_sqrt_omega <= cf.uv_inv_sqrt_ceiling()
    assert nb.f_uv_over_quarter_omega <= cf.uv_inv_quarter_ceiling()
    assert cf.xi_bound(nb, nb) <= cf.xi_self_ceiling()


def test_f_tau_norms_scaled_frame_ceilings():
    p = make_params(0.3, 1.0, kappa=0.0, lam=math.inf)
    for (tau, rho) in ((0.9, 0.5), (1.0, 0.25), (0.8, 2.0)):
        nb = qd.f_tau_norms(p, tau, rho)
        assert nb.f_ir_l2 < cf.ir_l2_ceiling()
        assert nb.f_ir_over_sqrt_omega < cf.ir_inv_sqrt_ceiling()
        assert nb.f_uv_over_sqrt_omega <= cf.uv_inv_sqrt_ceiling(tau, rho)
        assert nb.f_uv_over_quarter_omega <= cf.uv_inv_quarter_ceiling(tau, rho)
        assert cf.xi_bound(nb, nb) <= cf.xi_self_ceiling(tau, rho)


def test_f_tau_norms_empty_infrared():
    p = make_params(0.3, 1.0, kappa=1.0, lam=10.0)
    nb = qd.f_tau_norms(p)
    assert nb.f_ir_l2 == 0.0 and nb.f_ir_over_sqrt_omega == 0.0
    assert nb.f_uv_over_sqrt_omega > 0.0


def test_f_tau_norms_monotone_in_lam():
    wide = qd.f_tau_norms(make_params(0.3, 1.0, kappa=0.05, lam=50.0))
    narrow = qd.f_tau_norms(make_params(0.3, 1.0, kappa=0.05, lam=5.0))
    assert narrow.f_ir_l2 == wide.f_ir_l2  # infrared part unaffected
    assert narrow.f_uv_over_sqrt_omega < wide.f_uv_over_sqrt_omega
    assert narrow.f_uv_over_quarter_omega < wide.f_uv_over_quarter_omega
