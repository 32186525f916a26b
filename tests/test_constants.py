import pytest

from fewatom.constants import CM3_PER_M3, DOPPLER_TEMP, GAMMA, HBAR, KB


def test_doppler_temperature():
    # hbar * gamma / (2 kB), frozen against a hand calculation
    assert DOPPLER_TEMP == pytest.approx(124.78031983106645e-6, rel=1e-12)
    assert DOPPLER_TEMP == pytest.approx(HBAR * GAMMA / (2.0 * KB), rel=1e-14)


def test_volume_unit_factor():
    assert CM3_PER_M3 == 1e6
