import math

import pytest

from fewatom.constants import (CESIUM, CM3_PER_M3, CS_MASS, HBAR, KB,
                               PhysConstants, c3_atomic_to_si)


def test_doppler_temperature():
    # hbar * gamma / (2 kB), frozen against a hand calculation
    assert CESIUM.doppler_temp == pytest.approx(124.78031983106645e-6, rel=1e-12)
    assert CESIUM.doppler_temp == pytest.approx(
        HBAR * CESIUM.gamma / (2.0 * KB), rel=1e-14)


def test_c3_conversion():
    # E_h * a0^3 per atomic unit
    assert c3_atomic_to_si(1.0) == pytest.approx(6.460475137525437e-49, rel=1e-12)
    assert c3_atomic_to_si(12.0) == pytest.approx(12.0 * c3_atomic_to_si(1.0), rel=1e-14)


def test_recoil_speed():
    v = CESIUM.recoil_speed()
    assert v == pytest.approx(3.52246080675107e-3, rel=1e-12)
    k = 2.0 * math.pi / CESIUM.wavelength
    assert v == pytest.approx(HBAR * k / CS_MASS, rel=1e-14)


def test_volume_unit_factor():
    assert CM3_PER_M3 == 1e6


def test_constants_validation():
    with pytest.raises(ValueError):
        PhysConstants(gamma=-1.0)
    with pytest.raises(ValueError):
        PhysConstants(wavelength=0.0)
    with pytest.raises(ValueError):
        PhysConstants(i_sat=-CESIUM.i_sat)
