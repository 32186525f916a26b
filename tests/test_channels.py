import math

import numpy as np
import pytest

from fewatom.channels import (ChannelSet, ShieldingParams, condon_radius,
                              effective_betas, outcome_probabilities,
                              scaling_constant, suppression_ratio)
from fewatom.trap import TrapConfig, depth_from_cos


def test_condon_radius_default():
    rc = condon_radius(ShieldingParams())
    assert rc == pytest.approx(1.091396078253693e-8, rel=1e-12)
    # 90..120 angstrom window for the default C3 and 9 GHz detuning
    assert 90e-10 < rc < 120e-10


def test_condon_radius_c3_scaling():
    rc1 = condon_radius(ShieldingParams())
    rc2 = condon_radius(ShieldingParams(c3=2.0 * ShieldingParams().c3))
    assert rc2 / rc1 == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-12)
    # doubling C3 moves the crossing by under 26%
    assert rc2 / rc1 - 1.0 < 0.26


def test_scaling_constant():
    assert scaling_constant(0.0) == pytest.approx(1.0)
    assert scaling_constant(125e-6) == pytest.approx(1.5017620851315905, rel=1e-12)
    assert scaling_constant(316e-6) == pytest.approx(4.206653105465604, rel=1e-12)
    assert scaling_constant(705e-6) == pytest.approx(16.960851223201836, rel=1e-12)
    with pytest.raises(ValueError):
        scaling_constant(-1e-6)


def test_suppression_ratio():
    a = scaling_constant(316e-6)
    s0 = np.array([0.0, 2.0, 4.0, 50.0])
    np.testing.assert_allclose(suppression_ratio(s0, 316e-6), np.exp(-s0 / a),
                               rtol=1e-12)
    assert suppression_ratio(0.0, 316e-6) == 1.0
    assert suppression_ratio(4.0, 316e-6) == pytest.approx(0.38640288987361304,
                                                           rel=1e-12)


def test_outcome_probabilities_normalized():
    rng = np.random.default_rng(1)
    trap = TrapConfig()
    cs = ChannelSet()
    for channel in ("hcc", "re", "fcc"):
        p0, p1, p2 = outcome_probabilities(channel, trap, cs, rng, n_samples=20_000)
        assert p0 + p1 + p2 == pytest.approx(1.0)
        assert min(p0, p1, p2) >= 0.0
    with pytest.raises(ValueError):
        outcome_probabilities("bogus", trap, cs, rng, n_samples=10)


def test_fcc_always_ejects_both():
    # 400 K per atom against sub-kelvin depths
    rng = np.random.default_rng(2)
    p0, p1, p2 = outcome_probabilities("fcc", TrapConfig(), ChannelSet(), rng,
                                       n_samples=50_000)
    assert p2 == 1.0


def test_hcc_shallow_trap_ejects_both():
    # 0.22 K per atom released against a 45 mK threshold
    rng = np.random.default_rng(3)
    trap = TrapConfig(depth_min=0.045)
    p0, p1, p2 = outcome_probabilities("hcc", trap, ChannelSet(), rng,
                                       n_samples=50_000)
    assert p2 == 1.0


def test_hcc_deep_trap_is_mixed():
    # the derived default depth (about 0.145 K) straddles the 0.22 K release
    rng = np.random.default_rng(4)
    p0, p1, p2 = outcome_probabilities("hcc", TrapConfig(), ChannelSet(), rng,
                                       n_samples=50_000)
    assert p0 > 0.1 and p1 > 0.02 and p2 > 0.1


def test_re_outcome_follows_exponential_energy():
    # back-to-back atoms at one fixed depth share the RE energy: both or neither
    # escape, with P2 = <exp(-dU(c)/e0)> over the isotropic cos(theta) = c
    n = 200_000
    trap = TrapConfig(depth_min=0.1)
    cs = ChannelSet(angular_spread=0.0, depth_jitter=0.0)
    rng = np.random.default_rng(6)
    _, p1, p2 = outcome_probabilities("re", trap, cs, rng, n_samples=n)
    assert p1 == 0.0
    c = np.linspace(-1.0, 1.0, 200_001)
    expect = np.exp(-depth_from_cos(trap, c) / cs.re_energy_scale).mean()
    assert abs(p2 - expect) < 4.0 * math.sqrt(expect * (1.0 - expect) / n)


def test_effective_betas_default_point():
    e1, e2 = effective_betas(TrapConfig(), ChannelSet())
    assert e2 > e1 > 0.0
    # frozen at seed 7070, 2e5 samples
    assert e1 == pytest.approx(1.881042106120234e-12, rel=1e-9)
    assert e2 == pytest.approx(2.0364812826494383e-11, rel=1e-9)
    # one-atom share of loss-producing two-body events stays modest
    frac = e1 / (e1 + e2)
    assert 0.05 < frac < 0.20


def test_effective_betas_shielding_suppresses():
    trap = TrapConfig(depth_min=0.045)
    cs = ChannelSet()
    e1_on, e2_on = effective_betas(trap, cs, ShieldingParams())
    trap_off = TrapConfig(depth_min=0.045, repump_sat=0.0)
    e1_off, e2_off = effective_betas(trap_off, cs, ShieldingParams())
    # with s0 = 4 of repump dressing the ground channel is partly shut
    assert e2_on < e2_off


def test_channel_set_validation():
    with pytest.raises(ValueError):
        ChannelSet(beta_hcc=-1e-12)
    with pytest.raises(ValueError):
        ChannelSet(re_energy_scale=0.0)
    with pytest.raises(ValueError):
        ChannelSet(depth_jitter=0.5)
    with pytest.raises(ValueError):
        ShieldingParams(repump_detuning=0.0)
    with pytest.raises(ValueError):
        ShieldingParams(c3=-1.0)
