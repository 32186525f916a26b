import re
from fractions import Fraction
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fewatom.config import (_KEYS, PRESETS, ConfigError, RunConfig,
                            build_config, load_config, parse_pairs)
from fewatom.trap import TrapConfig


def test_defaults():
    cfg = load_config()
    assert cfg.bin_width == 0.1
    assert cfg.per_atom_rate == 10_000.0
    assert cfg.b1 is None and cfg.b2 is None
    assert cfg.trap.r0 == 10e-6


def test_parse_pairs():
    text = """
    # comment line
    trap.r0_um = 12   # trailing comment
    sim.seed = 9
    """
    pairs = parse_pairs(text)
    assert pairs == {"trap.r0_um": "12", "sim.seed": "9"}


def test_parse_pairs_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_pairs("not a pair")
    with pytest.raises(ConfigError):
        parse_pairs("key = ")
    with pytest.raises(ConfigError):
        parse_pairs("a = 1\na = 2")


def test_unknown_key_hints_prefix():
    with pytest.raises(ConfigError) as err:
        build_config({"trap.bogus": "1"})
    assert "trap.r0_um" in str(err.value)


@pytest.mark.parametrize("key", [
    "shielding.repump_detuning_ghz", "shielding.c3_au", "shielding.rabi_coeff",
    "shield.temperatures_uk", "shield.s0_min", "shield.s0_max",
    "shield.s0_points"])
def test_removed_keys_rejected(key):
    # the first two set a crossing-radius model that no run read; the shielding
    # calibration and the shield scan's grid are module constants. With no
    # shielding.* or shield.* key left, the messages have no prefix hint
    with pytest.raises(ConfigError) as err:
        build_config({key: "9"})
    assert str(err.value) == f"unknown config key {key!r}"


def test_out_dir_key_removed():
    # the output directory is set by the CLI's --out-dir alone, and with no
    # io.* key left the message has no prefix hint
    key = "io." + "out_dir"
    with pytest.raises(ConfigError) as err:
        build_config({key: "runs"})
    assert str(err.value) == f"unknown config key {key!r}"


def test_single_value_keys_removed():
    # sim.ensemble only ever held 1 and detect.min_snr only its default;
    # with no detect.* key left, that message has no prefix hint
    with pytest.raises(ConfigError) as err:
        load_config(overrides={"sim.ensemble": "2"})
    hint = str(err.value).split("known keys with this prefix")[1]
    assert "sim.seed" in hint and "sim.ensemble" not in hint
    with pytest.raises(ConfigError) as err:
        load_config(overrides={"detect.min_snr": "3"})
    assert str(err.value) == "unknown config key 'detect.min_snr'"


@pytest.mark.parametrize("key", [
    "constants.gamma_mhz", "constants.lambda_nm", "constants.i_sat_mw_cm2",
    "constants.e_hcc_k", "constants.e_fcc_k", "constants.c3_au",
    "trap.kappa_geom", "trap.mu_eff_bohr", "trap.detuning_gamma",
    "trap.intensity_mw_cm2", "trap.gradient_g_cm", "trap.depth_anisotropy",
    "channels.re_energy_k", "channels.depth_jitter", "channels.angular_spread_rad"])
def test_atom_constant_keys_removed(key):
    # the Cs values are module constants, and the trap depth is set by
    # trap.depth_min_k alone, with no force model left to take a detuning,
    # intensity or gradient; the depth anisotropy and the outcome
    # classifier's RE energy scale, depth jitter and angular spread are
    # module constants too. With no constants.* key left, those messages
    # have no prefix hint
    with pytest.raises(ConfigError) as err:
        load_config(overrides={key: "3"})
    prefix = key.split(".")[0] + "."
    if prefix == "constants.":
        assert str(err.value) == f"unknown config key {key!r}"
    else:
        known = ", ".join(sorted(k for k in _KEYS if k.startswith(prefix)))
        assert known.startswith(prefix)
        assert str(err.value) == (f"unknown config key {key!r} "
                                  f"(known keys with this prefix: {known})")


def test_unit_conversions():
    cfg = build_config({
        "trap.temperature_uk": "316",
        "trap.r0_um": "10",
    })
    assert cfg.trap.temperature == pytest.approx(316e-6)
    assert cfg.trap.r0 == pytest.approx(10e-6)


# each key's RunConfig field and the factor from the key's unit to the field's
_UNITS = {
    "trap.repump_sat": ("trap.repump_sat", 1.0),
    "trap.r0_um": ("trap.r0", 1e-6),
    "trap.temperature_uk": ("trap.temperature", 1e-6),
    "trap.depth_min_k": ("trap.depth_min", 1.0),
    "trap.load_rate_per_s": ("trap.load_rate", 1.0),
    "trap.bg_lifetime_s": ("trap.bg_lifetime", 1.0),
    "channels.beta_hcc_cm3_s": ("channels.beta_hcc", 1.0),
    "channels.beta_re_cm3_s": ("channels.beta_re", 1.0),
    "channels.beta_fcc_cm3_s": ("channels.beta_fcc", 1.0),
    "sim.duration_s": ("duration", 1.0),
    "sim.n0": ("n0", 1.0),
    "sim.seed": ("seed", 1.0),
    "rates.b1_per_s": ("b1", 1.0),
    "rates.b2_per_s": ("b2", 1.0),
    "trace.per_atom_rate_hz": ("per_atom_rate", 1.0),
    "trace.bg_rate_hz": ("trace_bg_rate", 1.0),
    "trace.bin_width_s": ("bin_width", 1.0),
}


def test_units_cover_every_key():
    assert sorted(_UNITS) == sorted(_KEYS)


@pytest.mark.parametrize("key", sorted(_UNITS))
def test_key_sets_its_field(key):
    field, factor = _UNITS[key]
    default = attrgetter(field)(build_config({}))
    got = attrgetter(field)(build_config({key: "3"}))
    assert got != default
    np.testing.assert_allclose(got, 3.0 * factor, rtol=1e-15, atol=0)


# numpy's own refusal of a negative seed, and simulate's of a negative n0,
# would not name the key; an n0 of 2**63 overflowed the log's int64 atom
# numbers with an OverflowError. Both integer keys take the int64 counts.
@pytest.mark.parametrize("key", ["sim.seed", "sim.n0"])
@pytest.mark.parametrize("raw, why", [
    ("ten", "invalid literal for int() with base 10: 'ten'"),
    ("-5", "must be non-negative"),
    (str(2**63), "must be below 2**63")])
def test_bad_value_reports_key(key, raw, why):
    with pytest.raises(ConfigError) as err:
        build_config({key: raw})
    assert str(err.value) == f"bad value for {key}: {raw!r} ({why})"


@pytest.mark.parametrize("key, name", [("sim.seed", "seed"), ("sim.n0", "n0")])
def test_integer_keys_take_every_int64_count(key, name):
    for value in (0, 2**63 - 1):
        assert getattr(build_config({key: str(value)}), name) == value


# every key but the two integer ones converts to a float
@pytest.mark.parametrize("key", sorted(set(_KEYS) - {"sim.n0", "sim.seed"}))
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_non_finite_value_rejected(key, raw):
    # a nan or infinite duration or rate would keep simulate's loop going
    with pytest.raises(ConfigError) as err:
        load_config(preset="fig2", overrides={key: raw})
    assert str(err.value) == f"bad value for {key}: {raw!r} (must be finite)"


# the depth anisotropy and the outcome classifier's three parameters are
# module constants: a non-finite value, or the 0 that once skipped the spread
# and jitter draws, is refused as an unknown key before it is converted
@pytest.mark.parametrize("key", ["trap.depth_anisotropy", "channels.re_energy_k",
                                 "channels.depth_jitter", "channels.angular_spread_rad"])
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "0"])
def test_classifier_constant_key_refused_whatever_its_value(key, raw):
    with pytest.raises(ConfigError) as err:
        load_config(preset="fig2", overrides={key: raw})
    assert str(err.value).startswith(f"unknown config key {key!r} (known keys with this prefix: ")


def test_fig2_preset_rate_model():
    cfg = load_config(preset="fig2")
    model = cfg.rate_model()
    assert model.load_rate == pytest.approx(0.1403)
    assert model.bg_rate == pytest.approx(1.0 / 60.0)
    assert model.b1 == pytest.approx(0.004)
    assert model.b2 == pytest.approx(0.006)


def test_fig4_presets():
    # bit for bit: times 1e-6, '10' um once read as 9.999999999999999e-06 m
    # and '506' uK as 0.0005059999999999999 K, not the values the library
    # uses; shield tabulates at these temperatures
    for name, t in zip(("fig4a", "fig4b", "fig4c"), (316e-6, 506e-6, 705e-6)):
        cfg = load_config(preset=name)
        assert cfg.trap.temperature == t
        assert cfg.trap.r0 == 10e-6 == TrapConfig().r0
        assert cfg.trap.depth_min == pytest.approx(0.045)
    with pytest.raises(ConfigError):
        load_config(preset="fig9")


@pytest.mark.parametrize("preset, depth", [
    (None, 0.14492300282222922), ("fig2", 0.045), ("fig4a", 0.045),
    ("fig4b", 0.045), ("fig4c", 0.045)])
def test_preset_depth_min_is_exact(preset, depth):
    # a run takes its depth from the preset's trap.depth_min_k, or with no
    # preset from the default, bit for bit
    assert load_config(preset=preset).trap.depth_min == depth


@pytest.mark.parametrize("key, field, power", [
    ("trap.r0_um", "r0", 10**6), ("trap.temperature_uk", "temperature", 10**6)])
def test_power_of_ten_units_are_exact(key, field, power):
    # an integer in the key's unit reads as the double nearest its exact value
    for raw in range(1, 1000):
        got = getattr(build_config({key: str(raw)}).trap, field)
        assert got == float(Fraction(raw, power)), raw


def test_precedence_preset_file_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("trap.bg_lifetime_s = 45\nsim.seed = 3\n")
    cfg = load_config(path, preset="fig2", overrides={"sim.seed": "7"})
    # file beats preset, explicit override beats file
    assert cfg.trap.bg_lifetime == 45.0
    assert cfg.seed == 7
    assert cfg.trap.load_rate == pytest.approx(0.1403)  # untouched preset key
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")


# a value drawn for each key a layer may set: the fig2 preset keys, plus
# two the preset leaves alone
_POSITIVE = st.floats(1e-3, 1e3).map(repr)
_LAYER_VALUES = {**{key: _POSITIVE for key in PRESETS["fig2"]},
                 "trace.bin_width_s": _POSITIVE,
                 "sim.seed": st.integers(0, 2**31).map(str)}
_LAYERS = st.lists(st.sampled_from(sorted(_LAYER_VALUES)), unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({k: _LAYER_VALUES[k] for k in keys}))


@settings(max_examples=100, deadline=None)
@given(_LAYERS, _LAYERS)
def test_layering_is_preset_file_override(tmp_path_factory, file_pairs, overrides):
    path = tmp_path_factory.mktemp("layers") / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in file_pairs.items()))
    want = build_config({**PRESETS["fig2"], **file_pairs, **overrides})
    assert load_config(path, "fig2", overrides) == want


def test_volume_cm3():
    cfg = load_config(preset="fig4a")
    assert cfg.volume_cm3() == pytest.approx(1.968701243215303e-9, rel=1e-12)


def test_composed_rate_model_uses_channels():
    # without explicit rates the model composes the channel Monte Carlo
    cfg = load_config(preset="fig4a")
    model = cfg.rate_model()
    assert model.load_rate == cfg.trap.load_rate
    assert model.b1 > 0.0
    assert model.b2 > 0.0
    v = cfg.volume_cm3()
    # betas divided by volume, pair channel halved per event
    assert model.b2 * 2.0 * v < 1e-9


@pytest.mark.parametrize("key, raw, rule", [
    ("sim.duration_s", "-1", "non-negative"),
    ("trace.bin_width_s", "0", "positive"), ("trace.bin_width_s", "-0.1", "positive"),
    ("trace.per_atom_rate_hz", "0", "positive"),
    ("trace.bg_rate_hz", "-1", "non-negative"),
    ("rates.b1_per_s", "-1", "non-negative"), ("rates.b2_per_s", "-1", "non-negative")])
def test_run_validation(key, raw, rule):
    # the trace and rate checks once said "trace parameters must be positive
    # (bg may be zero)" and "explicit rates must be non-negative", naming no key
    with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be {rule}$"):
        build_config({key: raw})


@pytest.mark.parametrize("key, b2", [
    ("channels.beta_re_cm3_s", "inf"), ("channels.beta_fcc_cm3_s", "inf"),
    ("channels.beta_hcc_cm3_s", r"9\.81e\+307")])
def test_composed_rate_that_overflows_names_the_channel_keys(key, b2):
    # b2 = beta / (2 V) overflowed with a RuntimeWarning, and RateModel then
    # refused "b2 must be finite and non-negative", naming no key; a finite
    # b2 whose pair rate 2 * b2 overflows was taken, and simulate's log of
    # it broke its own validate()
    cfg = load_config(preset="fig4a", overrides={key: "1e300"})
    with pytest.raises(ConfigError, match=(
            r"^channels\.beta_hcc_cm3_s, channels\.beta_re_cm3_s and "
            r"channels\.beta_fcc_cm3_s over the trap\.r0_um volume compose to "
            rf"b1 = \S+, b2 = {b2} per s, whose pair rate 2 \* \(b1 \+ b2\) is not finite$")):
        cfg.rate_model()
