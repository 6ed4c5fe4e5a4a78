import math

import pytest

from nelsonlab.model import (
    FOUR_PI,
    DomainError,
    ParameterError,
    ScaleFrame,
    base_frame,
    frame_for,
    make_params,
)


def test_make_params_basic():
    p = make_params(0.3, 1.0)
    assert p.e == 0.3
    assert p.Z == 1.0
    assert p.m == 1.0
    assert p.kappa == 0.1
    assert p.lam == 10.0
    assert math.isclose(p.alpha, 0.09 / (4.0 * math.pi), rel_tol=1e-15)
    assert math.isclose(p.alphaZ, p.alpha, rel_tol=1e-15)


def test_make_params_validation():
    with pytest.raises(ParameterError):
        make_params(0.3, -1.0)
    with pytest.raises(ParameterError):
        make_params(0.3, 1.0, m=0.0)
    with pytest.raises(ParameterError):
        make_params(0.3, 1.0, kappa=-0.1)
    with pytest.raises(ParameterError):
        make_params(0.3, 1.0, kappa=11.0, lam=10.0)
    with pytest.raises(ParameterError):
        make_params(math.nan, 1.0)
    # massless infrared end is allowed
    p = make_params(0.3, 1.0, kappa=0.0)
    assert p.kappa == 0.0


def test_zero_charge_degenerates_gracefully():
    p = make_params(0.0, 1.0)
    assert p.alpha == 0.0 and p.alphaZ == 0.0
    with pytest.raises(ParameterError):
        frame_for(p, 0.9, 1.0)
    # tau = 0 frame still fine
    f = frame_for(p, 0.0, 1.0)
    assert f.rho == 1.0


def test_base_frame_is_identity():
    f = base_frame()
    assert f.tau == 0.0
    assert f.power(2.0) == 1.0
    assert f.power(-2.0) == f.power(1.0) == 1.0


def test_frame_power_is_one_at_tau_zero():
    # x ** 0.0 is 1.0 for every float x, so rho never matters at tau = 0
    for rho in (-1.0, 0.0, math.nan, math.inf, 2.0):
        frame = ScaleFrame(0.0, rho)
        for c in (-3.0, -2.0, -1.5, -1.0, 1.0, 2.0):
            assert frame.power(c) == 1.0
    # frame_for returns the base frame at tau = 0 before it reads lambda1
    for e in (0.0, 0.3):
        p = make_params(e, 1.0)
        for lambda1 in (1.0, -1.0, math.nan):
            assert frame_for(p, 0.0, lambda1) == base_frame()


def test_frame_scaling_roundtrip():
    p = make_params(0.5, 2.0)
    f = frame_for(p, 0.9, 1.0)
    assert math.isclose(f.rho, p.alphaZ, rel_tol=1e-15)
    # energies carry rho^(-2 tau), lengths rho^tau, and the two undo each other
    assert math.isclose(f.power(-2.0), f.rho ** (-1.8), rel_tol=1e-14)
    assert math.isclose(f.power(1.0), f.rho**0.9, rel_tol=1e-14)
    assert math.isclose(f.power(-2.0) * f.power(2.0), 1.0, rel_tol=1e-14)


def test_charge_frame_uses_e_squared():
    p = make_params(0.4, 3.0)
    f = frame_for(p, 0.9, FOUR_PI / p.Z)
    # alphaZ * (4 pi / Z) = e^2
    assert math.isclose(f.rho, 0.4**2, rel_tol=1e-14)


def test_coulomb_coefficient_and_atomic_energy():
    p = make_params(0.3, 1.0)
    f = frame_for(p, 1.0, 1.0)
    # the bare level -(alphaZ)^2/2 is -1/2 in this frame's energy unit
    assert math.isclose(-0.5 * p.alphaZ**2 * f.power(-2.0), -0.5, rel_tol=1e-14)


def test_scale_frame_validation():
    with pytest.raises(ParameterError):
        ScaleFrame(tau=0.9, rho=0.0)
    with pytest.raises(ParameterError):
        ScaleFrame(tau=0.9, rho=math.inf)
    f = ScaleFrame(tau=0.9, rho=2.0)
    assert math.isclose(f.power(-2.0), 2.0 ** (-1.8), rel_tol=1e-15)
    assert f.power(0.0) == 1.0
