import contextlib
import io
import json
import math
from dataclasses import fields

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.linalg import solve_banded
from scipy.special import sici

from nelsonlab import closedform as cf
from nelsonlab import quadrature as qd
from nelsonlab.cli import main
from nelsonlab.particle import _radial_pieces, radial_resolvent_l1
from nelsonlab.model import (
    DivergentIntegralError,
    DomainError,
    ParameterError,
    ScaleFrame,
    base_frame,
    frame_for,
    make_params,
)


# ---------------------------------------------------------------------------
# shell moments of the coupling function
#
# In the frame ScaleFrame(0.5, c) the dressed denominator carries
# rho^(2 tau) = c and the shell support scales by rho^(-2 tau) = 1/c.  The
# squared a = 0 norms (the omega^(-1/2) weight) are the b = 2 moment
# 4 pi int (1 + c r / 2)^(-2) dr over their region, divided by 16 pi^3.


def shell_moment_b2_analytic(a: float, c: float, lo: float, hi: float) -> float:
    """Antiderivative oracle for the b = 2 family at integer-friendly a.

    For a = 0: 4 pi * [-(2/c) (1 + c r / 2)^(-1)], i.e. 8 pi / c over (0, inf).
    For a = 1: 4 pi * (4/c^2) [log(1 + c r / 2) + (1 + c r / 2)^(-1)].
    """

    def anti0(r):
        return -(2.0 / c) / (1.0 + 0.5 * c * r)

    def anti1(r):
        u = 1.0 + 0.5 * c * r
        return (4.0 / (c * c)) * (math.log(u) + 1.0 / u)

    anti = anti0 if a == 0 else anti1
    return 4.0 * math.pi * (anti(hi) - anti(lo))


_PREFACTOR = 16.0 * math.pi ** 3  # 2 (2 pi)^3


def _norms(params, frame) -> cf.NormBundle:
    """The four split norms, one ``f_tau_norm`` per NormBundle field."""
    return cf.NormBundle(**{f.name: qd.f_tau_norm(params, frame, f.name)
                            for f in fields(cf.NormBundle)})


def _omega_moments(kappa: float, lam: float, c: float):
    """The squared a = 0 norms times 16 pi^3, the scaled support and its frame."""
    frame = ScaleFrame(0.5, c)
    nb = _norms(make_params(0.3, 1.0, kappa=kappa, lam=lam), frame)
    ir = nb.f_ir_over_sqrt_omega ** 2 * _PREFACTOR
    uv = nb.f_uv_over_sqrt_omega ** 2 * _PREFACTOR
    return ir, uv, kappa * frame.power(-2.0), lam * frame.power(-2.0)


def test_shell_b2_family_matches_antiderivative():
    for c in (0.25, 1.0, 3.7, 12.0):
        # over the whole shell the moment is 8 pi / c, so the norms
        # square-sum to 1/(2 pi^2 c)
        nb = _norms(make_params(0.3, 1.0, kappa=0.0, lam=math.inf), ScaleFrame(0.5, c))
        total = nb.f_ir_over_sqrt_omega ** 2 + nb.f_uv_over_sqrt_omega ** 2
        assert abs(total - 1.0 / (2.0 * math.pi ** 2 * c)) <= 1e-9 * total
        # each side of the split against the oracle on a finite window
        ir, uv, lo, hi = _omega_moments(0.2 * c, 5.0 * c, c)
        for got, oracle in ((ir, shell_moment_b2_analytic(0.0, c, lo, 1.0)),
                            (uv, shell_moment_b2_analytic(0.0, c, 1.0, hi))):
            assert abs(got - oracle) <= 1e-10 * abs(oracle)


def test_shell_a1_b2_finite_window_oracle():
    # the plain infrared norm (a = 1) in the base frame, where rho^(2 tau) = 1
    nb = _norms(make_params(0.3, 1.0, kappa=0.0, lam=1.0), base_frame())
    oracle = shell_moment_b2_analytic(1.0, 1.0, 0.0, 1.0)
    got = nb.f_ir_l2 ** 2 * _PREFACTOR
    assert abs(got - oracle) <= 1e-10 * abs(oracle)
    # hand value: 4 pi (4 log(3/2) + 4/(1 + 1/2) - 4)
    hand = 4.0 * math.pi * (4.0 * math.log(1.5) - 4.0 / 3.0)
    assert abs(oracle - hand) <= 1e-12 * abs(hand)


def test_shell_region_additivity():
    # the split at |k| = 1 loses nothing: both sides add up to the whole shell
    for (kappa, lam, c) in ((0.1, 10.0, 1.0), (0.3, 2.0, 0.3), (0.05, 40.0, 2.0)):
        ir, uv, lo, hi = _omega_moments(kappa, lam, c)
        full = shell_moment_b2_analytic(0.0, c, lo, hi)
        assert abs(ir + uv - full) <= 1e-10 * abs(full)


@settings(max_examples=25, deadline=None)
@given(c=st.floats(0.1, 2.0), kap=st.floats(0.0, 0.8))
@example(c=2.0, kap=1e-7)  # the first piece starts just above the origin
@example(c=1.0, kap=3e-170)  # log(kappa) is the first piece's lower end
def test_shell_region_additivity_property(c, kap):
    ir, uv, lo, _ = _omega_moments(kap, math.inf, c)
    full = shell_moment_b2_analytic(0.0, c, lo, math.inf)
    assert abs(ir + uv - full) <= 1e-9 * max(abs(full), 1e-12)


def test_shell_empty_regions():
    uv_empty = _norms(make_params(0.3, 1.0, kappa=0.1, lam=0.9), base_frame())
    assert uv_empty.f_uv_over_sqrt_omega == 0.0 and uv_empty.f_uv_over_quarter_omega == 0.0
    assert uv_empty.f_ir_over_sqrt_omega > 0.0
    ir_empty = _norms(make_params(0.3, 1.0, kappa=2.0, lam=9.0), base_frame())
    assert ir_empty.f_ir_l2 == 0.0 and ir_empty.f_ir_over_sqrt_omega == 0.0
    assert ir_empty.f_uv_over_sqrt_omega > 0.0


# ---------------------------------------------------------------------------
# cosine integral (scipy.special.sici is the test oracle only)


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
        assert abs(v - qd.energy_renormalization_analytic(p)) <= 1e-13 * abs(v)


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
# effective-mass coefficient and binding expansion


def test_effective_mass_coefficient_exact():
    out = qd.effective_mass_coefficient()
    exact = qd.EFFECTIVE_MASS_COEFFICIENT_EXACT
    assert abs(out - exact) <= 1e-14 * exact
    assert abs(exact - 0.0168869) < 1e-7


def test_binding_second_order_ratio_one():
    e, Z = 0.3, 1.0
    aZ = e * e / (4.0 * math.pi) * Z
    exact = -(e * e / (12.0 * math.pi**2)) * aZ * aZ
    got = qd.binding_second_order(e, Z)
    assert abs(got - exact) <= 1e-13 * abs(exact)
    assert qd.binding_second_order(0.0, 1.0) == 0.0


def test_binding_envelope_is_twice_ratio_one():
    e, Z = 0.4, 2.0
    assert abs(qd.binding_envelope(e, Z) / qd.binding_second_order(e, Z) - 2.0) < 1e-13


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
    nb = _norms(p, base_frame())
    oracle = _analytic_norms()
    got = (nb.f_ir_l2, nb.f_ir_over_sqrt_omega,
           nb.f_uv_over_sqrt_omega, nb.f_uv_over_quarter_omega)
    for g, o in zip(got, oracle):
        assert abs(g - o) <= 1e-10 * o


def test_f_tau_norms_below_ceilings():
    p = make_params(0.3, 1.0, kappa=0.0, lam=math.inf)
    frame = base_frame()
    nb = _norms(p, frame)
    assert nb.f_ir_l2 < cf.ir_l2_ceiling()
    assert nb.f_ir_over_sqrt_omega < cf.ir_inv_sqrt_ceiling()
    assert nb.f_uv_over_sqrt_omega <= cf.uv_inv_sqrt_ceiling(frame)
    assert nb.f_uv_over_quarter_omega <= cf.uv_inv_quarter_ceiling(frame)
    assert cf.xi_bound(nb, nb) <= cf.xi_self_ceiling(frame)


def test_f_tau_norms_scaled_frame_ceilings():
    p = make_params(0.3, 1.0, kappa=0.0, lam=math.inf)
    for (tau, rho) in ((0.9, 0.5), (1.0, 0.25), (0.8, 2.0)):
        frame = ScaleFrame(tau, rho)
        nb = _norms(p, frame)
        assert nb.f_ir_l2 < cf.ir_l2_ceiling()
        assert nb.f_ir_over_sqrt_omega < cf.ir_inv_sqrt_ceiling()
        assert nb.f_uv_over_sqrt_omega <= cf.uv_inv_sqrt_ceiling(frame)
        assert nb.f_uv_over_quarter_omega <= cf.uv_inv_quarter_ceiling(frame)
        assert cf.xi_bound(nb, nb) <= cf.xi_self_ceiling(frame)


def test_f_tau_norms_empty_infrared():
    p = make_params(0.3, 1.0, kappa=1.0, lam=10.0)
    nb = _norms(p, base_frame())
    assert nb.f_ir_l2 == 0.0 and nb.f_ir_over_sqrt_omega == 0.0
    assert nb.f_uv_over_sqrt_omega > 0.0


@pytest.mark.parametrize("e, Z, tau, name", [(0.3, 1.0, 50.0, "f_uv_over_quarter_omega"),
                                             (1e-80, 1e-10, 0.9, "f_uv_over_sqrt_omega")])
def test_f_tau_norm_refuses_a_moment_outside_the_float_range(e, Z, tau, name):
    """A nan or negative moment from the quadrature raises DomainError
    naming the support, instead of a nan norm or a ValueError from sqrt."""
    params = make_params(e, Z)
    with pytest.raises(DomainError, match=rf"{name} moment over the support \["):
        qd.f_tau_norm(params, frame_for(params, tau, 1.0), name)


def test_f_tau_norms_monotone_in_lam():
    wide = _norms(make_params(0.3, 1.0, kappa=0.05, lam=50.0), base_frame())
    narrow = _norms(make_params(0.3, 1.0, kappa=0.05, lam=5.0), base_frame())
    assert narrow.f_ir_l2 == wide.f_ir_l2  # infrared part unaffected
    assert narrow.f_uv_over_sqrt_omega < wide.f_uv_over_sqrt_omega
    assert narrow.f_uv_over_quarter_omega < wide.f_uv_over_quarter_omega


# ---------------------------------------------------------------------------
# the closed forms and the rule against independent references (mpmath at
# 40 digits, scipy's QUADPACK and banded LAPACK solve), on the cells an
# adaptive QUADPACK evaluation got wrong


_NAMES = [f.name for f in fields(cf.NormBundle)]


def _mp_norm(params, frame, name) -> float:
    """The norm ``f_tau_norm`` gives, from the same float support and frame
    factors, with its moment integrated by mpmath (split at r = 1/h)."""
    a, part = {"f_ir_l2": (1, "ir"), "f_ir_over_sqrt_omega": (0, "ir"),
               "f_uv_over_sqrt_omega": (0, "uv"),
               "f_uv_over_quarter_omega": (mpmath.mpf(1) / 2, "uv")}[name]
    scale, h = frame.power(-2.0), mpmath.mpf(0.5 * frame.power(2.0))
    kap = params.kappa * scale
    lam = params.lam if math.isinf(params.lam) else params.lam * scale
    lo, hi = (kap, min(lam, 1.0)) if part == "ir" else (max(kap, 1.0), lam)
    if not lo < hi:
        return 0.0
    ends = [mpmath.mpf(lo), *(p for p in (1 / h,) if lo < p < hi), mpmath.mpf(hi)]
    with mpmath.workdps(40):
        moment = 4 * mpmath.pi * mpmath.quad(lambda r: r ** a / (1 + h * r) ** 2, ends)
        return float(mpmath.sqrt(moment / (2 * (2 * mpmath.pi) ** 3)))


@pytest.mark.parametrize("tau, rho", [(0.0, 1.0), (0.5, 0.3), (1.0, 0.0716), (1.0, 5e-3),
                                      (0.9, 4.0), (-0.5, 0.2), (2.0, 1e-3)])
def test_shell_norms_match_mpmath(tau, rho):
    """Every norm in closed form within 1e-13 of mpmath, on seven frames and
    six cutoff pairs (narrow, split-straddling, whole shell and far UV)."""
    frame = ScaleFrame(tau, rho)
    for kappa, lam in ((0.1, 10.0), (0.0, math.inf), (0.0, 1e6), (0.5, 0.6),
                       (2.0, 3.0), (1e-9, 1e9)):
        params = make_params(0.3, 1.0, kappa=kappa, lam=lam)
        for name in _NAMES:
            got, ref = qd.f_tau_norm(params, frame, name), _mp_norm(params, frame, name)
            assert abs(got - ref) <= 1e-13 * ref, (kappa, lam, name, got, ref)


def _mp_closed_moment(params, frame, name):
    """The moment 4 pi int r^a (1 + h r)^-2 dr from the textbook primitive
    h^-(a+1) G(h r), G(x) = x/(1 + x), log(1 + x) - x/(1 + x) or
    atan y - y/(1 + y^2), y = sqrt x, evaluated at 400 digits, where no
    difference of two primitives loses the value; an mpf, of any exponent."""
    a, part = _NORM_WEIGHTS_MP[name]
    scale, half = frame.power(-2.0), 0.5 * frame.power(2.0)
    kap = params.kappa * scale
    lam = params.lam if math.isinf(params.lam) else params.lam * scale
    lo, hi = (kap, min(lam, 1.0)) if part == "ir" else (max(kap, 1.0), lam)
    if not lo < hi:
        return mpmath.mpf(0)
    with mpmath.workdps(400):
        h = mpmath.mpf(half)

        def primitive(r):
            if a == 0:
                return 1 / h if r == mpmath.inf else r / (1 + h * r)
            if a == 1:
                return mpmath.inf if r == mpmath.inf else (mpmath.log1p(h * r) - h * r / (1 + h * r)) / h ** 2
            y = mpmath.sqrt(h * r)
            return h ** -1.5 * (mpmath.pi / 2 if r == mpmath.inf else mpmath.atan(y) - y / (1 + y * y))

        return 4 * mpmath.pi * (primitive(mpmath.mpf(hi)) - primitive(mpmath.mpf(lo)))


_NORM_WEIGHTS_MP = {"f_ir_l2": (1, "ir"), "f_ir_over_sqrt_omega": (0, "ir"),
                    "f_uv_over_sqrt_omega": (0, "uv"), "f_uv_over_quarter_omega": (0.5, "uv")}


@pytest.mark.parametrize("tau, rho", [(50.0, 0.00716), (-50.0, 0.00716), (5.0, 7162.0),
                                      (-5.0, 8e-16), (20.0, 7162.0)])
def test_shell_norms_at_the_ends_of_the_float_range(tau, rho):
    """Frames whose factor h = rho^(2 tau)/2 is near 1e+-200 or 1e+-40: every
    norm whose moment is a normal float is within 1e-13 of the 400-digit closed
    form, where h^-(a+1) times a primitive near 0 (an underflow times an
    overflow) or a difference of two primitives near pi/2 gave nan, 0 or a
    cancelled value; a moment past the float range raises DomainError."""
    frame = ScaleFrame(tau, rho)
    checked = 0
    for kappa, lam in ((0.0, math.inf), (0.1, 10.0)):
        params = make_params(0.3, 1.0, kappa=kappa, lam=lam)
        for name in _NAMES:
            moment = _mp_closed_moment(params, frame, name)
            if moment > 1.7e308:
                with pytest.raises(DomainError):
                    qd.f_tau_norm(params, frame, name)
            elif moment > 1e-300 or moment == 0:
                ref = float(mpmath.sqrt(moment / (2 * (2 * mpmath.pi) ** 3)))
                got = qd.f_tau_norm(params, frame, name)
                assert abs(got - ref) <= 1e-13 * ref, (kappa, lam, name, got, ref)
                checked += 1
    assert checked >= 4


@pytest.mark.parametrize("lam", ["inf", "1e6"])
def test_quarter_omega_norm_in_the_atomic_frame(capsys, lam):
    """integrals --e 0.3 --Z 1 --tau 1 --kappa 0: the quarter-omega norm is
    553.48 (lambda inf) and 552.98 (lambda 1e6) to 1e-12 of mpmath, and
    xi.self prints; adaptive QUADPACK gave 535.49 and a negative moment."""
    argv = ["integrals", "--e", "0.3", "--Z", "1", "--tau", "1", "--kappa", "0",
            "--lambda", lam, "--format", "json"]
    assert main(argv) == 0
    rows = {r["name"]: r for r in json.loads(capsys.readouterr().out)["rows"]}
    params = make_params(0.3, 1.0, kappa=0.0, lam=float(lam))
    frame = frame_for(params, 1.0, 1.0)
    ref = _mp_norm(params, frame, "f_uv_over_quarter_omega")
    assert abs(rows["norm.f_uv_over_quarter_omega"]["value"] - ref) <= 1e-12 * ref
    assert ref == pytest.approx(553.482 if lam == "inf" else 552.984, abs=1e-3)
    bundle = cf.NormBundle(*(_mp_norm(params, frame, name) for name in _NAMES))
    xi = cf.xi_bound(bundle, bundle)
    assert abs(rows["xi.self"]["value"] - xi) <= 1e-12 * xi
    assert rows["xi.self"]["margin"] > 0.0


def test_cin_matches_mpmath_up_to_1e8():
    """cin(x) = gamma + log x - Ci(x) to 1e-12 absolute from 1/2 to 1e8, on
    both sides of the panel/asymptotic switch at 1e3."""
    xs = [*np.geomspace(0.5, 1e8, 41), 999.999, 1e3, 1000.001, 2.0 ** 0.5 * 1e5]
    with mpmath.workdps(30):
        for x in xs:
            ref = float(mpmath.euler + mpmath.log(x) - mpmath.ci(x))
            assert abs(qd.cin(x) - ref) <= 1e-12, x


def _banded_resolvent(alphaZ, shift):
    """The radial matrix element by scipy's banded LAPACK solve of the same system."""
    dr, off, diag, rhs = _radial_pieces()
    ab = np.array([np.full_like(diag, off), diag + shift / alphaZ**2, np.full_like(diag, off)])
    return 4.0 * math.pi * float(rhs @ solve_banded((1, 1), ab, rhs)) * dr


def test_radial_sweep_matches_banded_lapack():
    """The vectorised sweep equals the banded solve to 1e-12 relative at
    shifts from 1e-6 to 1e6, and an array of shifts gives what each shift
    gives alone, bit for bit."""
    shifts = np.geomspace(1e-6, 1e6, 25)
    values = radial_resolvent_l1(0.7, shifts)
    for s, v in zip(shifts, values):
        ref = _banded_resolvent(0.7, s)
        assert abs(v - ref) <= 1e-12 * ref, s
        assert radial_resolvent_l1(0.7, float(s)) == v


@pytest.mark.parametrize("e, Z", [(0.01, 1.0), (0.05, 3.0), (0.3, 1.0), (2.0, 100.0),
                                  (100.0, 1e6)])
def test_resolvent_shift_matches_a_split_quadpack_reference(e, Z):
    """shift.resolvent within 1e-10 of QUADPACK with no absolute floor,
    split in s = log r at (alpha Z)^2 and 1 (the integrand's two scales), on
    the banded LAPACK matrix element: at e 0.01 an epsabs = 1e-14 floor had
    stopped early on a value near 1e-17, 1.7e-9 off.  At alpha Z = 8e8 the
    tail past r = alpha Z, which falls like (alpha Z / r)^2, still counts."""
    aZ = e * e / (4.0 * math.pi) * Z

    def integrand(s):
        r = math.exp(s)
        shift = r + 0.5 * r * r
        return r ** 4 * _banded_resolvent(aZ, shift) / shift ** 2

    cuts = sorted((-50.0, 2.0 * math.log(aZ), 0.0, 30.0 + max(0.0, math.log(aZ))))
    total = sum(quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=1000)[0]
                for a, b in zip(cuts, cuts[1:]))
    ref = -(e * e / (12.0 * math.pi ** 2)) * total
    got = qd.binding_second_order(e, Z, resolvent=lambda s: radial_resolvent_l1(aZ, s))
    assert abs(got - ref) <= 1e-10 * abs(ref)
