import math
import re
from dataclasses import replace

import numpy as np
import pytest

from fewatom.trap import (DEPTH_ANISOTROPY, TrapConfig, depth_from_cos,
                         effective_volume)


def test_effective_volume():
    v = effective_volume(10e-6)
    assert v == pytest.approx(1.9687012432153028e-15, rel=1e-12)
    assert v == pytest.approx((math.pi / 2.0) ** 1.5 * 1e-15, rel=1e-14)
    assert effective_volume(20e-6) == pytest.approx(8.0 * v, rel=1e-12)
    for bad in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^r0 must be positive and finite$"):
            effective_volume(bad)


def test_depth_min_default():
    # the value the retired scattering-force model gave at the default
    # operating point, bit for bit, so a run with no depth key keeps its bits
    assert TrapConfig().depth_min == 0.14492300282222922


def test_depth_min_is_the_shallow_axis_depth():
    assert depth_from_cos(TrapConfig(depth_min=0.045), 0.0) == 0.045


def test_intensity_is_accepted_and_ignored():
    # the benchmark's repump scan builds its trap this way, then replaces
    # repump_sat at each scan point
    trap = TrapConfig(depth_min=0.045, intensity=420.0)
    point = replace(trap, repump_sat=2.0)
    assert point == TrapConfig(depth_min=0.045, repump_sat=2.0)
    assert TrapConfig(intensity=1.0) == TrapConfig()


def test_trap_depth_anisotropy():
    assert DEPTH_ANISOTROPY == 4.0
    cfg = TrapConfig()
    d_min = depth_from_cos(cfg, math.cos(math.pi / 2.0))
    d_max = depth_from_cos(cfg, math.cos(0.0))
    assert d_min == cfg.depth_min
    assert d_max / d_min == pytest.approx(DEPTH_ANISOTROPY, rel=1e-12)
    # symmetric under theta -> pi - theta
    th = np.linspace(0.0, math.pi / 2.0, 7)
    np.testing.assert_allclose(depth_from_cos(cfg, np.cos(th)),
                               depth_from_cos(cfg, np.cos(math.pi - th)), rtol=1e-12)


@pytest.mark.parametrize("name, value, message", [
    ("repump_sat", -1.0, "repump_sat must be non-negative"),
    ("r0", 1e-7, "r0 = 1e-07 m outside the sane band [1 um, 1 mm]"),
    ("r0", 2e-3, "r0 = 0.002 m outside the sane band [1 um, 1 mm]"),
    ("temperature", 0.0, "temperature must be positive"),
    ("temperature", -316e-6, "temperature must be positive"),
    # 1e300 K overflowed (kB T)**2 in suppression_ratio with an OverflowError
    ("temperature", 1.5, "temperature = 1.5 K above 1 K, far hotter than any trap holds"),
    ("depth_min", 0.0, "depth_min must be positive"),
    ("depth_min", -0.045, "depth_min must be positive"),
    ("load_rate", -0.1, "load_rate >= 0 and bg_lifetime > 0 required"),
    ("bg_lifetime", 0.0, "load_rate >= 0 and bg_lifetime > 0 required"),
    ("bg_lifetime", -60.0, "load_rate >= 0 and bg_lifetime > 0 required")])
def test_trap_config_refuses_out_of_range(name, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TrapConfig(**{name: value})


@pytest.mark.parametrize("name, value", [
    ("repump_sat", 0.0), ("r0", 1e-6), ("r0", 1e-3),
    ("load_rate", 0.0), ("depth_min", 5e-324), ("temperature", 1.0)])
def test_trap_config_accepts_range_edges(name, value):
    # depth_min is a plain field: any positive depth stands as given
    assert getattr(TrapConfig(**{name: value}), name) == value


@pytest.mark.parametrize("name", ["repump_sat", "r0", "temperature", "depth_min",
                                  "load_rate", "bg_lifetime"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_trap_config_refuses_non_finite(name, value):
    # a nan or infinite depth used to read as a
    # trap every fcc collision stays in
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        TrapConfig(**{name: value})
