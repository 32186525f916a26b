import math

import numpy as np
import pytest

from fewatom.trap import (TrapConfig, depth_from_cos, depth_minimum,
                          effective_volume, saturation_parameter)


def test_saturation_parameter_default():
    s = saturation_parameter(TrapConfig())
    assert s == pytest.approx(0.8320291606410586, rel=1e-12)


def test_saturation_parameter_scaling():
    base = TrapConfig()
    s0 = saturation_parameter(base)
    # linear in intensity
    assert saturation_parameter(TrapConfig(intensity=840.0)) == pytest.approx(2 * s0)
    # on resonance the Lorentzian factor drops out
    res = TrapConfig(detuning=0.0, intensity=11.0)
    assert saturation_parameter(res) == pytest.approx(1.0, rel=1e-12)


def test_effective_volume():
    v = effective_volume(10e-6)
    assert v == pytest.approx(1.9687012432153028e-15, rel=1e-12)
    assert v == pytest.approx((math.pi / 2.0) ** 1.5 * 1e-15, rel=1e-14)
    assert effective_volume(20e-6) == pytest.approx(8.0 * v, rel=1e-12)
    with pytest.raises(ValueError):
        effective_volume(0.0)


def test_depth_minimum_default():
    # force-model estimate at the default operating point
    d = depth_minimum(TrapConfig())
    assert d == pytest.approx(0.14492300282222922, rel=1e-12)


def test_depth_minimum_override():
    assert depth_minimum(TrapConfig(depth_min=0.045)) == 0.045


def test_depth_reference_point():
    # KAPPA_GEOM was calibrated so the reference point gives 0.15 K
    cfg = TrapConfig(intensity=420.0 * 0.87 / saturation_parameter(TrapConfig()))
    assert saturation_parameter(cfg) == pytest.approx(0.87, rel=1e-12)
    assert depth_minimum(cfg) == pytest.approx(0.15, rel=1e-3)


def test_trap_depth_anisotropy():
    cfg = TrapConfig(depth_anisotropy=4.0)
    d_min = depth_from_cos(cfg, math.cos(math.pi / 2.0))
    d_max = depth_from_cos(cfg, math.cos(0.0))
    assert d_min == pytest.approx(depth_minimum(cfg), rel=1e-12)
    assert d_max / d_min == pytest.approx(4.0, rel=1e-12)
    # symmetric under theta -> pi - theta
    th = np.linspace(0.0, math.pi / 2.0, 7)
    np.testing.assert_allclose(depth_from_cos(cfg, np.cos(th)),
                               depth_from_cos(cfg, np.cos(math.pi - th)), rtol=1e-12)


def test_trap_config_validation():
    with pytest.raises(ValueError):
        TrapConfig(intensity=-1.0)
    with pytest.raises(ValueError):
        TrapConfig(r0=1e-7)
    with pytest.raises(ValueError):
        TrapConfig(depth_anisotropy=0.5)
    with pytest.raises(ValueError):
        TrapConfig(bg_lifetime=0.0)


@pytest.mark.parametrize("name", ["detuning", "intensity", "repump_sat", "gradient", "r0",
                                  "temperature", "depth_min", "depth_anisotropy",
                                  "load_rate", "bg_lifetime"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_trap_config_refuses_non_finite(name, value):
    # a nan or infinite depth, anisotropy or intensity used to read as a
    # trap every fcc collision stays in
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        TrapConfig(**{name: value})
