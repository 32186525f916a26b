import math

import numpy as np
import pytest

from fewatom.channels import (CHANNELS, ChannelSet, ShieldingParams,
                              effective_betas, outcome_probabilities,
                              scaling_constant, suppression_ratio)
from fewatom.constants import E_FCC_PER_ATOM, E_HCC_PER_ATOM
from fewatom.trap import TrapConfig, depth_from_cos


def test_scaling_constant():
    assert scaling_constant(0.0) == pytest.approx(1.0)
    assert scaling_constant(125e-6) == pytest.approx(1.5017620851315905, rel=1e-12)
    assert scaling_constant(316e-6) == pytest.approx(4.206653105465604, rel=1e-12)
    assert scaling_constant(705e-6) == pytest.approx(16.960851223201836, rel=1e-12)
    for bad in (-1e-6, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="temperature must be non-negative and finite"):
            scaling_constant(bad)
        with pytest.raises(ValueError, match="temperature must be non-negative and finite"):
            scaling_constant(np.array([316e-6, bad]))


def test_suppression_ratio():
    a = scaling_constant(316e-6)
    s0 = np.array([0.0, 2.0, 4.0, 50.0])
    np.testing.assert_allclose(suppression_ratio(s0, 316e-6), np.exp(-s0 / a),
                               rtol=1e-12)
    assert suppression_ratio(0.0, 316e-6) == 1.0
    assert suppression_ratio(4.0, 316e-6) == pytest.approx(0.38640288987361304,
                                                           rel=1e-12)
    for bad in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="s0 must be non-negative and finite"):
            suppression_ratio(bad, 316e-6)
        with pytest.raises(ValueError, match="s0 must be non-negative and finite"):
            suppression_ratio(np.array([4.0, bad]), 316e-6)
        with pytest.raises(ValueError, match="temperature must be non-negative and finite"):
            suppression_ratio(4.0, bad * 1e-6)


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
    # the default depth (about 0.145 K) straddles the 0.22 K release
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


@pytest.mark.parametrize("rabi_coeff", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_shielding_params_validation(rabi_coeff):
    # a nan coefficient once made effective_betas return (nan, nan)
    with pytest.raises(ValueError, match="rabi_coeff must be positive and finite"):
        ShieldingParams(rabi_coeff=rabi_coeff)


def _straight_mc(channel, trap, cs, rng, n_samples):
    """The classifier as a straight Monte Carlo: atom 2's direction and both
    depths for every sample; the reference the bounded version must match."""
    c1 = rng.uniform(-1.0, 1.0, n_samples)
    if cs.angular_spread > 0:
        alpha = np.abs(rng.normal(0.0, cs.angular_spread, n_samples))
        phi = rng.uniform(0.0, 2.0 * math.pi, n_samples)
        s1 = np.sqrt(1.0 - c1**2)
        c2 = -c1 * np.cos(alpha) + s1 * np.sin(alpha) * np.cos(phi)
    else:
        c2 = -c1
    d1 = depth_from_cos(trap, c1)
    d2 = depth_from_cos(trap, c2)
    if cs.depth_jitter > 0:
        d1 = d1 * (1.0 + rng.normal(0.0, cs.depth_jitter, n_samples))
        d2 = d2 * (1.0 + rng.normal(0.0, cs.depth_jitter, n_samples))
    if channel == "hcc":
        energy = E_HCC_PER_ATOM
    elif channel == "fcc":
        energy = E_FCC_PER_ATOM
    else:
        energy = rng.exponential(cs.re_energy_scale, n_samples)
    escaped = (energy > d1).astype(np.int64) + (energy > d2)
    return tuple(np.bincount(escaped, minlength=3) / n_samples)


def _jitter_seed(cs, n_samples):
    """First seed in 0-99 whose draws include a depth jitter factor <= 0."""
    for seed in range(100):
        rng = np.random.default_rng(seed)
        rng.uniform(-1.0, 1.0, n_samples)
        rng.normal(0.0, cs.angular_spread, n_samples)
        rng.uniform(0.0, 2.0 * math.pi, n_samples)
        f1 = 1.0 + rng.normal(0.0, cs.depth_jitter, n_samples)
        f2 = 1.0 + rng.normal(0.0, cs.depth_jitter, n_samples)
        if min(f1.min(), f2.min()) <= 0.0:
            return seed
    return None


@pytest.mark.parametrize("cs", [
    ChannelSet(), ChannelSet(angular_spread=0.0), ChannelSet(depth_jitter=0.0),
    ChannelSet(depth_jitter=0.199)], ids=["default", "no-spread", "no-jitter", "jitter-0.199"])
@pytest.mark.parametrize("trap", [
    TrapConfig(depth_min=0.045), TrapConfig(), TrapConfig(depth_min=0.01),
    TrapConfig(depth_anisotropy=1.0)], ids=["repump", "derived", "10mK", "isotropic"])
def test_outcome_probabilities_match_straight_mc(trap, cs):
    # computing atom 2's direction only between the depth bounds changes no
    # share and no draw; a channel decided before sampling draws nothing
    n = 200_000
    seed = 5
    if cs.depth_jitter == 0.199:
        seed = _jitter_seed(cs, n)
        assert seed is not None
    # the pre-draw rule, with JITTER_SIGMAS written out
    deep = depth_from_cos(trap, 1.0) * (1.0 + 40.0 * cs.depth_jitter)
    for channel in CHANNELS:
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        shares = outcome_probabilities(channel, trap, cs, rng, n)
        assert shares == _straight_mc(channel, trap, cs, ref, n)
        energy = {"hcc": E_HCC_PER_ATOM, "fcc": E_FCC_PER_ATOM}.get(channel)
        if energy is not None and energy > deep:
            assert shares == (0.0, 0.0, 1.0)
            ref = np.random.default_rng(seed)
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("channel", ["fcc", "re"])
@pytest.mark.parametrize("n_samples", [0, -1])
def test_outcome_probabilities_refuses_no_samples(channel, n_samples):
    # fcc is decided before sampling at this trap; the count is checked first
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError, match="n_samples"):
        outcome_probabilities(channel, TrapConfig(), ChannelSet(), rng, n_samples)
    with pytest.raises(ValueError, match="n_samples"):
        effective_betas(TrapConfig(), ChannelSet(), n_samples=n_samples)


@pytest.mark.parametrize("name", ["beta_hcc", "beta_re", "beta_fcc", "re_energy_scale",
                                  "depth_jitter", "angular_spread"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_channel_set_refuses_non_finite(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        ChannelSet(**{name: value})
