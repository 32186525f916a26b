import math

import pytest

from fewatom.constants import (CM3_PER_M3, CS_MASS, DOPPLER_TEMP, GAMMA, HBAR,
                               KB, RECOIL_SPEED, WAVELENGTH, c3_atomic_to_si)


def test_doppler_temperature():
    # hbar * gamma / (2 kB), frozen against a hand calculation
    assert DOPPLER_TEMP == pytest.approx(124.78031983106645e-6, rel=1e-12)
    assert DOPPLER_TEMP == pytest.approx(HBAR * GAMMA / (2.0 * KB), rel=1e-14)


def test_c3_conversion():
    # E_h * a0^3 per atomic unit
    assert c3_atomic_to_si(1.0) == pytest.approx(6.460475137525437e-49, rel=1e-12)
    assert c3_atomic_to_si(12.0) == pytest.approx(12.0 * c3_atomic_to_si(1.0), rel=1e-14)


def test_recoil_speed():
    assert RECOIL_SPEED == pytest.approx(3.52246080675107e-3, rel=1e-12)
    k = 2.0 * math.pi / WAVELENGTH
    assert RECOIL_SPEED == pytest.approx(HBAR * k / CS_MASS, rel=1e-14)


def test_volume_unit_factor():
    assert CM3_PER_M3 == 1e6
