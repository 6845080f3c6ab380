import dataclasses
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest
import yaml

from hibsim import engine, mobility
from hibsim.cli import main as cli_main
from hibsim.channel import NtnParams, RmaParams
from hibsim.config import (
    CarrierConfig,
    ChannelConfig,
    ConfigError,
    HibsConfig,
    MobilityConfig,
    ScenarioConfig,
    UeConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    validate_band,
    validate_config,
)
from hibsim.geometry import ring_radius_for_isd
from hibsim.network import RateParams


def test_default_values(default_cfg):
    assert default_cfg.carrier.frequency_hz == 2.0e9
    assert default_cfg.carrier.bandwidth_hz == 20e6
    assert default_cfg.hibs.altitude_m == 20_000.0
    assert default_cfg.hibs.footprint_diameter_m == 10_000.0
    assert default_cfg.hibs.n_rings == 2
    assert default_cfg.hibs.service_area_km2 == 4_000.0
    assert default_cfg.hibs.tx_power_dbm == 49.0
    assert default_cfg.hibs.peak_gain_dbi == 16.5
    assert default_cfg.hibs.pattern_sidelobes == "floor"
    assert default_cfg.hibs.noise_figure_db == 5.0
    assert default_cfg.terrestrial.n_sites == 12
    assert default_cfg.terrestrial.isd_m == 9_000.0
    assert default_cfg.terrestrial.site_height_m == 30.0
    assert default_cfg.terrestrial.sector_rotation_deg == 60.0
    assert default_cfg.terrestrial.downtilt_deg == 3.0
    assert default_cfg.terrestrial.peak_gain_dbi == 17.0
    assert default_cfg.ue.height_m == 1.5
    assert default_cfg.ue.tx_power_dbm == 23.0
    assert default_cfg.ue.antenna_gain_dbi == 0.0
    assert default_cfg.ue.noise_figure_db == 9.0
    assert default_cfg.channel.shadowing is True
    assert default_cfg.scheduler.ul_interference == "full_load"
    assert default_cfg.scheduler.overlay_cochannel_beams is True
    assert default_cfg.mobility.decision_signal == "longterm"
    assert default_cfg.mobility.time_to_trigger_s == 0.64
    assert default_cfg.mobility.measurement_period_s == 0.2
    assert default_cfg.band_check.enabled is True
    assert default_cfg.band_check.region == "R1"
    validate_config(default_cfg)  # defaults validate cleanly


def test_from_dict_empty_is_default(default_cfg):
    assert config_from_dict({}) == default_cfg
    assert config_from_dict(None) == default_cfg


def test_roundtrip_default(default_cfg):
    assert config_from_dict(config_to_dict(default_cfg)) == default_cfg


def test_roundtrip_customized():
    cfg = config_from_dict(
        {
            "carrier": {"frequency_hz": 2.14e9, "bandwidth_hz": 10e6},
            "hibs": {"pattern_sidelobes": "bessel", "n_rings": 1},
            "terrestrial": {"sector_rotation_deg": 30.0, "n_sites": 6},
            "ue": {"height_m": 2.0},
            "channel": {
                "shadowing": False,
                "ntn": {
                    "p_los_table": {10: 0.3, 50: 0.8, 90: 1.0},
                    "sigma_los_db": 5.0,
                    "los_only": True,
                },
                "rma": {"building_height_m": 10.0},
            },
            "rate": {"alpha": 0.75},
            "scheduler": {
                "ul_interference": "coscheduled",
                "overlay_cochannel_beams": False,
            },
            "mobility": {"decision_signal": "shadowed", "n_inbound": 10},
            "band_check": {"enabled": False, "region": "R2"},
        }
    )
    assert cfg.channel.ntn.p_los_table == ((10.0, 0.3), (50.0, 0.8), (90.0, 1.0))
    assert cfg.channel.ntn.los_only is True
    assert cfg.hibs.pattern_sidelobes == "bessel"
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_yaml_file_roundtrip(tmp_path, default_cfg):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(config_to_dict(default_cfg), sort_keys=False))
    assert load_config(str(path)) == default_cfg


def _load_text(tmp_path, text: str):
    path = tmp_path / "scenario.yaml"
    path.write_text(text)
    return load_config(str(path))


def test_yaml_reads_an_unsigned_exponent_as_a_number(tmp_path):
    # YAML 1.1 wants a dot and a signed exponent, so PyYAML reads 2.14e9 as
    # a string; a scenario file reads it as the number it means
    cfg = _load_text(tmp_path, "carrier:\n  frequency_hz: 2.14e9\n  bandwidth_hz: 20e6\n")
    assert (cfg.carrier.frequency_hz, cfg.carrier.bandwidth_hz) == (2.14e9, 20e6)
    assert type(cfg.carrier.bandwidth_hz) is float
    with pytest.raises(ConfigError) as exc:
        _load_text(tmp_path, "terrestrial:\n  n_sites: 1.2e1\n")
    assert str(exc.value) == "scenario.terrestrial.n_sites: expected an integer, got 12.0"
    with pytest.raises(ConfigError) as exc:
        _load_text(tmp_path, "ue:\n  tx_power_dbm: 1e400\n")
    assert str(exc.value) == "scenario.ue.tx_power_dbm: must be finite, got inf"
    # plain integers stay integers, and PyYAML's own loader is left as it was
    assert _load_text(tmp_path, "terrestrial:\n  n_sites: 6\n").terrestrial.n_sites == 6
    assert yaml.safe_load("f: 2.0e9") == {"f": "2.0e9"}


def _leaves(tree: dict, prefix: str = "") -> dict:
    """Dotted key -> value of each leaf of a config mapping; the LOS table
    is one leaf."""
    leaves = {}
    for key, value in tree.items():
        if isinstance(value, dict) and key != "p_los_table":
            leaves.update(_leaves(value, f"{prefix}{key}."))
        else:
            leaves[prefix + key] = value
    return leaves


def test_readme_configuration_block_states_the_defaults(tmp_path):
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Configuration", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    defaults = _leaves(config_to_dict(ScenarioConfig()))
    assert _leaves(yaml.safe_load(block)).keys() == defaults.keys()
    loaded = _leaves(config_to_dict(_load_text(tmp_path, block)))
    for key, value in defaults.items():
        # the README rounds the 30 km/h speed to 8.3333 m/s
        assert loaded[key] == pytest.approx(value, rel=1e-4), key


def test_empty_yaml_file_gives_defaults(tmp_path, default_cfg):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    assert load_config(str(path)) == default_cfg


def test_p_los_table_accepts_list_of_pairs():
    cfg = config_from_dict(
        {"channel": {"ntn": {"p_los_table": [[90, 1.0], [10, 0.25]]}}}
    )
    # pairs get sorted by elevation
    assert cfg.channel.ntn.p_los_table == ((10.0, 0.25), (90.0, 1.0))


def test_p_los_table_rejects_scalar():
    with pytest.raises(ConfigError, match="p_los_table"):
        config_from_dict({"channel": {"ntn": {"p_los_table": 0.5}}})
    # a list of scalars, not pairs, once crashed the loader with a TypeError
    with pytest.raises(ConfigError, match=r"channel\.ntn\.p_los_table: "):
        config_from_dict({"channel": {"ntn": {"p_los_table": [10, 90]}}})


def test_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key 'scenario.carier'"):
        config_from_dict({"carier": {"frequency_hz": 2e9}})
    with pytest.raises(ConfigError, match="scenario.hibs.altitude"):
        config_from_dict({"hibs": {"altitude": 20e3}})


def _python_built(data: dict, node=None):
    """The config a YAML mapping describes, built in Python: no loader check
    runs, and a LOS table keeps its pairs in the mapping's order."""
    node = ScenarioConfig() if node is None else node
    changes = {}
    for name, value in data.items():
        current = getattr(node, name)
        if dataclasses.is_dataclass(current):
            value = _python_built(value, current)
        elif name == "p_los_table":
            value = tuple(value.items())
        changes[name] = value
    return dataclasses.replace(node, **changes)


# The cases of a table are named by their own `id`, so a row inserted
# anywhere renames no other case; the ids of the first rows keep the names
# their position once gave them.
@pytest.mark.parametrize(
    "data, key",
    [
        pytest.param(
            {"carrier": {"bandwidth_hz": -1.0}},
            "carrier.bandwidth_hz",
            id="data0-carrier.bandwidth_hz",
        ),
        pytest.param(
            {"carrier": {"frequency_hz": 0.0}},
            "carrier.frequency_hz",
            id="data1-carrier.frequency_hz",
        ),
        pytest.param({"hibs": {"n_rings": -1}}, "hibs.n_rings", id="data2-hibs.n_rings"),
        pytest.param(
            {"hibs": {"pattern_sidelobes": "airy"}},
            "hibs.pattern_sidelobes",
            id="data3-hibs.pattern_sidelobes",
        ),
        pytest.param(
            {"hibs": {"footprint_diameter_m": 100e3}},
            "hibs.footprint_diameter_m",
            id="data4-hibs.footprint_diameter_m",
        ),
        pytest.param(
            {"terrestrial": {"n_sites": 1}},
            "terrestrial.n_sites",
            id="data5-terrestrial.n_sites",
        ),
        pytest.param({"ue": {"height_m": 40.0}}, "ue.height_m", id="data6-ue.height_m"),
        pytest.param(
            {"scheduler": {"ul_interference": "mute"}},
            "scheduler.ul_interference",
            id="data7-scheduler.ul_interference",
        ),
        pytest.param(
            {"mobility": {"decision_signal": "raw"}},
            "mobility.decision_signal",
            id="data8-mobility.decision_signal",
        ),
        pytest.param(
            {"mobility": {"tn_spawn_near": 0.9}},
            "mobility.tn_spawn_near",
            id="data9-mobility.tn_spawn_near",
        ),
        pytest.param(
            {"mobility": {"tn_spawn_near": 1.4, "tn_spawn_far": 1.2}},
            "mobility.tn_spawn_far",
            id="data10-mobility.tn_spawn_far",
        ),
        pytest.param(
            {"mobility": {"measurement_period_s": 0.0}},
            "mobility.measurement_period_s",
            id="data11-mobility.measurement_period_s",
        ),
        pytest.param(
            {"mobility": {"time_to_trigger_s": 0.1}},
            "mobility.time_to_trigger_s",
            id="data12-mobility.time_to_trigger_s",
        ),
        pytest.param(
            {"band_check": {"region": "R4"}},
            "band_check.region",
            id="data13-band_check.region",
        ),
        pytest.param(
            {"ue": {"tx_power_dbm": math.nan}},
            "ue.tx_power_dbm",
            id="data14-ue.tx_power_dbm",
        ),
        pytest.param(
            {"hibs": {"tx_power_dbm": math.nan}},
            "hibs.tx_power_dbm",
            id="data15-hibs.tx_power_dbm",
        ),
        pytest.param(
            {"hibs": {"peak_gain_dbi": math.nan}},
            "hibs.peak_gain_dbi",
            id="data16-hibs.peak_gain_dbi",
        ),
        pytest.param(
            {"carrier": {"frequency_hz": math.inf}},
            "carrier.frequency_hz",
            id="data17-carrier.frequency_hz",
        ),
        pytest.param(
            {"ue": {"antenna_gain_dbi": 10**400}},
            "ue.antenna_gain_dbi",
            id="data18-ue.antenna_gain_dbi",
        ),
        pytest.param(
            {"rate": {"sinr_min_db": -math.inf}},
            "rate.sinr_min_db",
            id="data19-rate.sinr_min_db",
        ),
        pytest.param(
            {"channel": {"ntn": {"p_los_table": {math.nan: 0.5, 90.0: 1.0}}}},
            "channel.ntn.p_los_table",
            id="data20-channel.ntn.p_los_table",
        ),
        # outside the RMa antenna-height ranges of TR 38.901 table 7.4.1-1
        pytest.param(
            {"terrestrial": {"site_height_m": 9.0}},
            "terrestrial.site_height_m",
            id="data21-terrestrial.site_height_m",
        ),
        pytest.param(
            {"terrestrial": {"site_height_m": 151.0}},
            "terrestrial.site_height_m",
            id="data22-terrestrial.site_height_m",
        ),
        pytest.param({"ue": {"height_m": 0.5}}, "ue.height_m", id="data23-ue.height_m"),
        pytest.param({"ue": {"height_m": 10.5}}, "ue.height_m", id="data24-ue.height_m"),
        # np.interp would hold p_los at the table's end values past them
        pytest.param(
            {"channel": {"ntn": {"p_los_table": {40.0: 0.8, 90.0: 1.0}}}},
            "channel.ntn.p_los_table",
            id="data25-channel.ntn.p_los_table",
        ),
        pytest.param(
            {"channel": {"ntn": {"p_los_table": {10.0: 0.25, 80.0: 0.99}}}},
            "channel.ntn.p_los_table",
            id="data26-channel.ntn.p_los_table",
        ),
        pytest.param(
            {"channel": {"ntn": {"p_los_table": {}}}},
            "channel.ntn.p_los_table",
            id="data27-channel.ntn.p_los_table",
        ),
        # an elevation beyond the float range once crashed the loader
        pytest.param(
            {"channel": {"ntn": {"p_los_table": {10**400: 0.5, 90.0: 1.0}}}},
            "channel.ntn.p_los_table",
            id="data28-channel.ntn.p_los_table",
        ),
        # the channel and rate rules, once checked as each class was built
        pytest.param(
            {"channel": {"ntn": {"p_los_table": {30.0: 0.7, 10.0: 0.25}}}},
            "channel.ntn.p_los_table",
            id="data29-channel.ntn.p_los_table",
        ),
        pytest.param(
            {"channel": {"ntn": {"p_los_table": {10.0: 1.25, 90.0: 1.0}}}},
            "channel.ntn.p_los_table",
            id="data30-channel.ntn.p_los_table",
        ),
        pytest.param(
            {"channel": {"ntn": {"p_los_table": {10.0: -0.1, 90.0: 1.0}}}},
            "channel.ntn.p_los_table",
            id="data31-channel.ntn.p_los_table",
        ),
        pytest.param(
            {"channel": {"ntn": {"sigma_los_db": -1.0}}},
            "channel.ntn.sigma_los_db",
            id="data32-channel.ntn.sigma_los_db",
        ),
        pytest.param(
            {"channel": {"ntn": {"sigma_nlos_db": -1.0}}},
            "channel.ntn.sigma_nlos_db",
            id="data33-channel.ntn.sigma_nlos_db",
        ),
        # outside the RMa street and building ranges of TR 38.901 table 7.4.1-1
        pytest.param(
            {"channel": {"rma": {"building_height_m": 3.0}}},
            "channel.rma.building_height_m",
            id="data34-channel.rma.building_height_m",
        ),
        pytest.param(
            {"channel": {"rma": {"building_height_m": 60.0}}},
            "channel.rma.building_height_m",
            id="data35-channel.rma.building_height_m",
        ),
        pytest.param(
            {"channel": {"rma": {"street_width_m": 1.0}}},
            "channel.rma.street_width_m",
            id="data36-channel.rma.street_width_m",
        ),
        pytest.param(
            {"channel": {"rma": {"street_width_m": 51.0}}},
            "channel.rma.street_width_m",
            id="data37-channel.rma.street_width_m",
        ),
        pytest.param(
            {"channel": {"rma": {"min_d2d_m": 0.0}}},
            "channel.rma.min_d2d_m",
            id="data38-channel.rma.min_d2d_m",
        ),
        pytest.param(
            {"channel": {"rma": {"min_d2d_m": 100.0, "max_d2d_m": 50.0}}},
            "channel.rma.max_d2d_m",
            id="data39-channel.rma.max_d2d_m",
        ),
        pytest.param({"rate": {"alpha": 0.0}}, "rate.alpha", id="data40-rate.alpha"),
        pytest.param(
            {"rate": {"se_max_bpshz": -1.0}},
            "rate.se_max_bpshz",
            id="data41-rate.se_max_bpshz",
        ),
        # the sector beamwidths the antenna divides by
        pytest.param(
            {"terrestrial": {"h_hpbw_deg": 0.0}},
            "terrestrial.h_hpbw_deg",
            id="data42-terrestrial.h_hpbw_deg",
        ),
        pytest.param(
            {"terrestrial": {"v_hpbw_deg": -1.0}},
            "terrestrial.v_hpbw_deg",
            id="data43-terrestrial.v_hpbw_deg",
        ),
    ],
)
def test_validation_errors_name_the_key(data, key):
    # the message opens with the full key, from YAML and from Python alike
    opening = rf"^(scenario\.)?{re.escape(key)}: "
    with pytest.raises(ConfigError, match=opening):
        config_from_dict(data)
    cfg = _python_built(data)  # builds without a word: the checks come next
    with pytest.raises(ConfigError, match=opening):
        validate_config(cfg)


_POSITIVE, _AT_LEAST_0 = "must be positive", "must be >= 0"
_RMA_RANGE = "m, the range the RMa model covers"


# one case per key that has a window of its own, with the window's message
_WINDOWS = [
    ({"carrier": {"frequency_hz": 0.0}}, f"carrier.frequency_hz: {_POSITIVE}"),
    ({"carrier": {"bandwidth_hz": -1.0}}, f"carrier.bandwidth_hz: {_POSITIVE}"),
    ({"hibs": {"altitude_m": -1.0}}, f"hibs.altitude_m: {_POSITIVE}"),
    ({"hibs": {"footprint_diameter_m": 0.0}}, f"hibs.footprint_diameter_m: {_POSITIVE}"),
    ({"hibs": {"n_rings": -1}}, f"hibs.n_rings: {_AT_LEAST_0}"),
    ({"hibs": {"service_area_km2": 0.0}}, f"hibs.service_area_km2: {_POSITIVE}"),
    ({"hibs": {"pattern_floor_db": 0.0}}, f"hibs.pattern_floor_db: {_POSITIVE}"),
    ({"hibs": {"noise_figure_db": -1.0}}, f"hibs.noise_figure_db: {_AT_LEAST_0}"),
    ({"terrestrial": {"n_sites": 1}}, "terrestrial.n_sites: must be >= 2"),
    ({"terrestrial": {"isd_m": 0.0}}, f"terrestrial.isd_m: {_POSITIVE}"),
    (
        {"terrestrial": {"site_height_m": 9.0}},
        f"terrestrial.site_height_m: must lie in [10, 150] {_RMA_RANGE}",
    ),
    ({"terrestrial": {"h_hpbw_deg": 0.0}}, f"terrestrial.h_hpbw_deg: {_POSITIVE}"),
    ({"terrestrial": {"v_hpbw_deg": -1.0}}, f"terrestrial.v_hpbw_deg: {_POSITIVE}"),
    ({"terrestrial": {"front_back_db": -1.0}}, f"terrestrial.front_back_db: {_AT_LEAST_0}"),
    ({"terrestrial": {"sla_db": -1.0}}, f"terrestrial.sla_db: {_AT_LEAST_0}"),
    ({"ue": {"height_m": 0.5}}, f"ue.height_m: must lie in [1, 10] {_RMA_RANGE}"),
    ({"ue": {"noise_figure_db": -1.0}}, f"ue.noise_figure_db: {_AT_LEAST_0}"),
    (
        {"channel": {"ntn": {"sigma_los_db": -1.0}}},
        f"channel.ntn.sigma_los_db: {_AT_LEAST_0}",
    ),
    (
        {"channel": {"ntn": {"sigma_nlos_db": -1.0}}},
        f"channel.ntn.sigma_nlos_db: {_AT_LEAST_0}",
    ),
    (
        {"channel": {"rma": {"building_height_m": 3.0}}},
        f"channel.rma.building_height_m: must lie in [5, 50] {_RMA_RANGE}",
    ),
    (
        {"channel": {"rma": {"street_width_m": 1.0}}},
        f"channel.rma.street_width_m: must lie in [5, 50] {_RMA_RANGE}",
    ),
    ({"channel": {"rma": {"min_d2d_m": 0.0}}}, f"channel.rma.min_d2d_m: {_POSITIVE}"),
    ({"rate": {"alpha": 0.0}}, f"rate.alpha: {_POSITIVE}"),
    ({"rate": {"se_max_bpshz": -1.0}}, f"rate.se_max_bpshz: {_POSITIVE}"),
    ({"mobility": {"speed_mps": 0.0}}, f"mobility.speed_mps: {_POSITIVE}"),
    (
        {"mobility": {"measurement_period_s": 0.0}},
        f"mobility.measurement_period_s: {_POSITIVE}",
    ),
    ({"mobility": {"sim_duration_s": 0.0}}, f"mobility.sim_duration_s: {_POSITIVE}"),
    (
        {"mobility": {"shadow_decorrelation_m": 0.0}},
        f"mobility.shadow_decorrelation_m: {_POSITIVE}",
    ),
    ({"mobility": {"tn_spawn_near": 0.9}}, "mobility.tn_spawn_near: must be >= 1.0"),
    (
        {"mobility": {"hibs_spawn_radius_m": 0.0}},
        f"mobility.hibs_spawn_radius_m: {_POSITIVE}",
    ),
    (
        {"mobility": {"outbound_stop_margin_m": -1.0}},
        f"mobility.outbound_stop_margin_m: {_AT_LEAST_0}",
    ),
    ({"mobility": {"n_inbound": -1}}, f"mobility.n_inbound: {_AT_LEAST_0}"),
    ({"mobility": {"n_outbound": -1}}, f"mobility.n_outbound: {_AT_LEAST_0}"),
]


@pytest.mark.parametrize(
    "data, message", [pytest.param(d, m, id=m.partition(":")[0]) for d, m in _WINDOWS]
)
def test_single_key_windows_keep_their_messages(data, message):
    # the whole message, read through config_from_dict and from a config
    # built in Python alike
    with pytest.raises(ConfigError) as exc:
        config_from_dict(data)
    assert str(exc.value) == message
    with pytest.raises(ConfigError) as exc:
        validate_config(_python_built(data))
    assert str(exc.value) == message


def _with_ntn(**ntn):
    return ScenarioConfig(channel=ChannelConfig(ntn=NtnParams(**ntn)))


@pytest.mark.parametrize(
    "cfg, message",
    [
        (
            ScenarioConfig(ue=UeConfig(tx_power_dbm=math.nan)),
            "ue.tx_power_dbm: must be finite, got nan",
        ),
        (
            ScenarioConfig(hibs=HibsConfig(tx_power_dbm=math.nan)),
            "hibs.tx_power_dbm: must be finite",
        ),
        (
            ScenarioConfig(ue=UeConfig(antenna_gain_dbi=10**400)),
            "ue.antenna_gain_dbi: must be finite, got inf",
        ),
        (
            ScenarioConfig(carrier=CarrierConfig(frequency_hz=math.inf)),
            "carrier.frequency_hz: must be finite",
        ),
        (
            ScenarioConfig(rate=RateParams(sinr_min_db=-math.inf)),
            "rate.sinr_min_db: must be finite",
        ),
        (
            ScenarioConfig(mobility=MobilityConfig(a3_offset_db=math.nan)),
            "mobility.a3_offset_db: must be finite",
        ),
        (
            ScenarioConfig(channel=ChannelConfig(rma=RmaParams(max_d2d_m=math.inf))),
            "channel.rma.max_d2d_m: must be finite",
        ),
        (
            _with_ntn(p_los_table=((30.0, 0.7), (90.0, 1.0))),
            "channel.ntn.p_los_table: must span [10, 90] deg",
        ),
        (
            _with_ntn(p_los_table=((10.0, 0.25), (80.0, 0.99))),
            "channel.ntn.p_los_table: must span [10, 90] deg",
        ),
        (
            _with_ntn(p_los_table=((math.nan, 0.5), (10.0, 0.25), (90.0, 1.0))),
            "channel.ntn.p_los_table: elevations and probabilities must be finite",
        ),
        (
            _with_ntn(p_los_table=((10**400, 0.5), (90.0, 1.0))),
            "channel.ntn.p_los_table: int too large to convert to float",
        ),
        (
            _with_ntn(p_los_table=((30.0, 0.7), (10.0, 0.25))),
            "channel.ntn.p_los_table: elevations must be ascending",
        ),
        (
            _with_ntn(p_los_table=((10.0, 1.25), (90.0, 1.0))),
            "channel.ntn.p_los_table: p_los must lie in [0, 1], got 1.25 at 10 deg",
        ),
    ],
    ids=[
        "ue-nan",
        "hibs-nan",
        "int-beyond-float-range",
        "carrier-inf",
        "rate-minus-inf",
        "a3-nan",
        "rma-inf",
        "table-from-30",
        "table-to-80",
        "table-nan-elevation",
        "table-int-beyond-float-range",
        "table-descending",
        "table-p-above-one",
    ],
)
def test_python_built_config_meets_the_yaml_number_checks(cfg, message):
    # validate_config, not only the YAML loader, rejects these
    with pytest.raises(ConfigError) as exc:
        validate_config(cfg)
    assert str(exc.value).startswith(message)


def test_mobility_time_step_key_is_gone():
    # the measurement period is the only clock of a track
    with pytest.raises(ConfigError, match="unknown config key 'scenario.mobility.time_step_s'"):
        config_from_dict({"mobility": {"time_step_s": 0.1}})


# 8 rings of 4 km beams: the outermost footprints reach 34 km, farther than
# any drop disk or track; at 5 km altitude that is 8.4 deg
WIDE_BEAM_GRID = {
    "altitude_m": 5_000.0,
    "service_area_km2": 100.0,
    "n_rings": 8,
    "footprint_diameter_m": 4_000.0,
}


@pytest.mark.parametrize(
    "data, where",
    [
        pytest.param(
            {"hibs": {"altitude_m": 5_000.0}},
            "platform service disk",
            id="data0-platform service disk",
        ),
        pytest.param({"hibs": WIDE_BEAM_GRID}, "uplink phantoms", id="data1-uplink phantoms"),
        pytest.param(
            {"terrestrial": {"isd_m": 60_000.0}},
            "inbound mobility spawn band",
            id="data2-inbound mobility spawn band",
        ),
        pytest.param(
            {"mobility": {"outbound_stop_margin_m": 120_000.0}},
            "outbound mobility stop",
            id="data3-outbound mobility stop",
        ),
        pytest.param(
            {"mobility": {"hibs_spawn_radius_m": 150_000.0}},
            "outbound mobility spawn disk",
            id="data4-outbound mobility spawn disk",
        ),
    ],
)
def test_platform_elevation_floor_names_the_altitude(data, where):
    # the farthest receiver any command places must see the platform at
    # 10 deg or more, the low end of the platform channel model
    with pytest.raises(ConfigError, match=r"hibs\.altitude_m: .*" + where):
        config_from_dict(data)


def test_platform_elevation_floor_skips_absent_phantoms():
    # without full-load phantoms the farthest receiver is the inbound spawn
    # band at 22.6 km, which sees the platform at 12.5 deg
    cfg = config_from_dict(
        {"hibs": WIDE_BEAM_GRID, "scheduler": {"ul_interference": "none"}}
    )
    assert cfg.hibs.n_rings == 8


def test_platform_elevation_floor_edge():
    # farthest receiver: the default 35.68 km service disk; 10 deg there needs
    # altitude 1.5 m + 35682.48 m * tan(10 deg) = 6293.3 m
    edge = 1.5 + 35_682.482323055425 * math.tan(math.radians(10.0))
    config_from_dict({"hibs": {"altitude_m": edge + 0.01}})
    with pytest.raises(ConfigError, match=r"hibs\.altitude_m"):
        config_from_dict({"hibs": {"altitude_m": edge - 0.01}})


def test_ue_height_must_be_below_site_height():
    # a key's own window is checked before any rule relating it to another
    # key, so a UE above the site is reported outside the RMa range
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"ue": {"height_m": 31.0}})
    assert str(exc.value) == "ue.height_m: must lie in [1, 10] m, the range the RMa model covers"
    # within both windows, only equal heights of 10 m break the rule
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"ue": {"height_m": 10.0}, "terrestrial": {"site_height_m": 10.0}})
    assert str(exc.value) == "ue.height_m: must be below the site height"


@pytest.mark.parametrize("isd_m, reach_km", [(12_000.0, "23.2"), (30_000.0, "58.0")])
def test_rma_window_names_the_isd(isd_m, reach_km):
    # the receiver farthest from its nearest site is the center, one ring
    # radius from every site: 23.2 km at 12 km isd, past RMa's 21 km
    with pytest.raises(ConfigError, match=rf"terrestrial\.isd_m: .* {reach_km} km"):
        config_from_dict({"terrestrial": {"isd_m": isd_m}})


def test_rma_window_edge():
    # defaults: the farthest overlay receiver, the inbound spawn band at 1.3
    # ring radii, is 7.3 km from its nearest site; the center is 17.4 km
    # from all of them. The ring radius alone decides, so a max_d2d_m just
    # below it rejects the defaults
    ring_m = ring_radius_for_isd(9_000.0, 12)
    config_from_dict({"channel": {"rma": {"max_d2d_m": ring_m + 0.01}}})
    with pytest.raises(ConfigError, match=r"terrestrial\.isd_m: .* 17\.4 km"):
        config_from_dict({"channel": {"rma": {"max_d2d_m": ring_m - 0.01}}})
    # with 4 sites (ring 9 km) the edge of the 15.4 km drop disk midway
    # between two sites lies 11.0 km from both, farther than the center
    cfg = {"terrestrial": {"n_sites": 4, "isd_m": 9_000.0 * math.sqrt(2.0)}}
    config_from_dict({**cfg, "channel": {"rma": {"max_d2d_m": 11_100.0}}})
    with pytest.raises(ConfigError, match=r"terrestrial\.isd_m: .* 11\.0 km"):
        config_from_dict({**cfg, "channel": {"rma": {"max_d2d_m": 10_900.0}}})


@pytest.mark.parametrize(
    "data, fragment",
    [
        pytest.param(
            {"carrier": {"frequency_hz": "fast"}},
            "expected a number",
            id="data0-expected a number",
        ),
        pytest.param(
            {"hibs": {"n_rings": 2.5}},
            "expected an integer",
            id="data1-expected an integer",
        ),
        pytest.param(
            {"channel": {"shadowing": "yes"}},
            "expected true/false",
            id="data2-expected true/false",
        ),
        pytest.param(
            {"hibs": {"pattern_sidelobes": 3}},
            "expected a string",
            id="data3-expected a string",
        ),
        pytest.param(
            {"carrier": "wideband"},
            "expected a mapping",
            id="data4-expected a mapping",
        ),
    ],
)
def test_type_errors(data, fragment):
    with pytest.raises(ConfigError, match=fragment):
        config_from_dict(data)


def test_yaml_parse_error_reports_line(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("carrier:\n  frequency_hz: [1, 2\n")
    with pytest.raises(ConfigError, match="YAML parse error"):
        load_config(str(path))


def test_yaml_top_level_must_be_mapping(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- a\n- b\n")
    with pytest.raises(ConfigError, match="top level must be a mapping"):
        load_config(str(path))


def test_missing_file():
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config("/nonexistent/scenario.yaml")


def test_import_leaves_yaml_unloaded():
    # PyYAML loads with the first YAML file read, not with the package
    src = os.path.dirname(os.path.dirname(engine.__file__))
    probe = (
        "import sys, hibsim, hibsim.cli, hibsim.output\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'yaml'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.splitlines()[-1] == "[]"


def test_validate_band_inside_dl_identification():
    assert validate_band(2.14e9, "R1", "DL") is None
    assert validate_band(2.17e9, "R3", "DL") is None
    assert validate_band(1.9e9, "R1", "UL") is None
    assert validate_band(2.02e9, "R1", "UL") is None
    # lowercase region accepted
    assert validate_band(2.14e9, "r1", "dl") is None


def test_validate_band_region_differences():
    # 2165 MHz: inside the R1/R3 downlink range, above the R2 one
    assert validate_band(2.165e9, "R1", "DL") is None
    msg = validate_band(2.165e9, "R2", "DL")
    assert msg is not None and "2110-2160" in msg
    # 2010-2025 MHz uplink exists in R1/R3 only
    assert validate_band(2.02e9, "R2", "UL") is not None


def test_validate_band_candidate_band_warning():
    msg = validate_band(700e6, "R1", "DL")
    assert msg is not None and "WRC-23" in msg and "694-960" in msg


def test_validate_band_default_carrier_warns_with_nearest():
    msg = validate_band(2.0e9, "R1", "DL")
    assert msg is not None
    assert "2000 MHz" in msg
    assert "2110-2170" in msg


def test_validate_band_bad_inputs():
    with pytest.raises(ConfigError, match="band_check.region"):
        validate_band(2.14e9, "R9", "DL")
    with pytest.raises(ValueError, match="direction"):
        validate_band(2.14e9, "R1", "sideways")


def _nested(settings: dict) -> dict:
    """Config mapping from dotted keys."""
    out: dict = {}
    for key, value in settings.items():
        *parents, leaf = key.split(".")
        node = out
        for name in parents:
            node = node.setdefault(name, {})
        node[leaf] = value
    return out


def _leaf_keys(tree: dict, prefix: str = "") -> list[str]:
    keys = []
    for name, value in tree.items():
        if isinstance(value, dict) and name != "p_los_table":
            keys += _leaf_keys(value, f"{prefix}{name}.")
        else:
            keys.append(prefix + name)
    return keys


# Tiny runs: four full-length tracks (the outbound tracks reach their stop
# only late in sim_duration_s), two drops at one density.
TINY_TRACKS = {"mobility.n_inbound": 2, "mobility.n_outbound": 2}
SHADOWED = {"mobility.decision_signal": "shadowed"}


def _result(command: str, settings: dict):
    cfg = config_from_dict(_nested({**TINY_TRACKS, **settings}))
    if command == "coupling-loss":
        res = engine.run_coupling_loss(cfg, n_drops=2, users_per_drop=20)
        return {ring: s.tolist() for ring, s in res.samples_by_ring.items()}
    if command == "sinr-sweep":
        res = engine.run_sinr_sweep(cfg, n_drops=2, densities=(1.0,))
        samples = (*res.dl_by_density.values(), *res.ul_by_density.values())
        return [s.tolist() for s in samples]
    if command == "throughput-sweep":
        res = engine.run_throughput_sweep(cfg, n_drops=2, densities=(2.0,))
        return [dataclasses.astuple(p) for p in res.points]
    res = mobility.run_mobility(cfg)
    return [dataclasses.astuple(e) for e in res.events]


# key: (perturbed value, command whose results it changes, and the settings
# that take the run into the corner where the key bites)
LIVE_KEYS = {
    "carrier.frequency_hz": (2.1e9, "coupling-loss"),
    "carrier.bandwidth_hz": (10e6, "sinr-sweep"),
    "hibs.altitude_m": (18e3, "coupling-loss"),
    "hibs.footprint_diameter_m": (9e3, "coupling-loss"),
    "hibs.n_rings": (1, "coupling-loss"),
    "hibs.service_area_km2": (3e3, "coupling-loss"),
    "hibs.peak_gain_dbi": (15.0, "coupling-loss"),
    "hibs.pattern_floor_db": (20.0, "sinr-sweep"),
    "hibs.pattern_sidelobes": ("bessel", "sinr-sweep"),
    "hibs.tx_power_dbm": (46.0, "sinr-sweep"),
    "hibs.noise_figure_db": (7.0, "sinr-sweep"),
    "terrestrial.n_sites": (10, "throughput-sweep"),
    "terrestrial.isd_m": (8e3, "throughput-sweep"),
    "terrestrial.site_height_m": (35.0, "throughput-sweep"),
    "terrestrial.sector_rotation_deg": (30.0, "throughput-sweep"),
    "terrestrial.peak_gain_dbi": (15.0, "throughput-sweep"),
    "terrestrial.h_hpbw_deg": (70.0, "throughput-sweep"),
    "terrestrial.v_hpbw_deg": (8.0, "throughput-sweep"),
    "terrestrial.front_back_db": (25.0, "throughput-sweep"),
    # dead while >= front_back_db; below it, it caps the vertical
    # attenuation, which at the default 3 deg tilt passes 20 dB only within
    # about 100 m of a mast, but at a 15 deg tilt on every far link
    "terrestrial.sla_db": (
        20.0,
        "throughput-sweep",
        {"terrestrial.downtilt_deg": 15.0},
    ),
    "terrestrial.downtilt_deg": (6.0, "throughput-sweep"),
    "terrestrial.tx_power_dbm": (46.0, "throughput-sweep"),
    "ue.height_m": (2.0, "coupling-loss"),
    "ue.tx_power_dbm": (20.0, "sinr-sweep"),
    "ue.antenna_gain_dbi": (2.0, "coupling-loss"),
    "ue.noise_figure_db": (7.0, "sinr-sweep"),
    "channel.shadowing": (False, "coupling-loss"),
    "channel.ntn.p_los_table": ({10.0: 0.5, 90.0: 1.0}, "coupling-loss"),
    # serving platform links are nearly all LOS: NLOS shows in interference
    "channel.ntn.clutter_low_db": (25.0, "sinr-sweep"),
    "channel.ntn.clutter_high_db": (15.0, "sinr-sweep"),
    "channel.ntn.sigma_los_db": (3.0, "coupling-loss"),
    "channel.ntn.sigma_nlos_db": (6.0, "sinr-sweep"),
    "channel.ntn.los_only": (True, "coupling-loss"),
    "channel.rma.street_width_m": (30.0, "throughput-sweep"),
    "channel.rma.building_height_m": (10.0, "throughput-sweep"),
    "channel.rma.sigma_los_near_db": (3.0, "throughput-sweep"),
    "channel.rma.sigma_los_far_db": (5.0, "throughput-sweep"),
    "channel.rma.sigma_nlos_db": (6.0, "throughput-sweep"),
    # the default 10 m clamps only links right at a mast
    "channel.rma.min_d2d_m": (2_000.0, "throughput-sweep"),
    "channel.rma.max_d2d_m": (30_000.0, "throughput-sweep"),
    "rate.alpha": (0.5, "throughput-sweep"),
    # each rate threshold moves past every served user, so it bites on any
    # draw: no user reaches a 60 dB cutoff, and every user above the -10 dB
    # default cutoff gets at least 0.6 * log2(1.1) = 0.083 bps/Hz, above a
    # 0.05 bps/Hz cap
    "rate.sinr_min_db": (60.0, "throughput-sweep"),
    "rate.se_max_bpshz": (0.05, "throughput-sweep"),
    "scheduler.ul_interference": ("none", "sinr-sweep"),
    "scheduler.overlay_cochannel_beams": (False, "throughput-sweep"),
    "mobility.speed_mps": (10.0, "mobility"),
    "mobility.measurement_period_s": (0.4, "mobility"),
    "mobility.a3_offset_db": (5.0, "mobility"),
    "mobility.time_to_trigger_s": (1.0, "mobility"),
    "mobility.sim_duration_s": (600.0, "mobility"),
    "mobility.decision_signal": ("shadowed", "mobility"),
    "mobility.shadow_decorrelation_m": (100.0, "mobility", SHADOWED),
    "mobility.tn_spawn_near": (1.1, "mobility"),
    "mobility.tn_spawn_far": (1.2, "mobility"),
    "mobility.hibs_spawn_radius_m": (3_000.0, "mobility"),
    # the long-term signal hands over well inside the stop; a longer track
    # draws more shadow innovations per cell, so the shadowed signal changes
    "mobility.outbound_stop_margin_m": (3_000.0, "mobility", SHADOWED),
    "mobility.n_inbound": (3, "mobility"),
    "mobility.n_outbound": (0, "mobility"),
}
BAND_CHECK = {"band_check.enabled": False, "band_check.region": "R2"}


def _cli_warnings(tmp_path, capsys, settings: dict) -> str:
    path = tmp_path / "band.yaml"
    path.write_text(yaml.safe_dump(_nested(settings)))
    argv = ["coupling-loss", "--drops", "1", "--users-per-drop", "1"]
    assert cli_main([*argv, "--config", str(path), "--out", str(tmp_path / "run")]) == 0
    return capsys.readouterr().err


def test_every_config_key_changes_a_result(tmp_path, capsys):
    # a key that changes no result is dead code a user can set to no effect
    leaves = _leaf_keys(config_to_dict(ScenarioConfig()))
    assert sorted(leaves) == sorted([*LIVE_KEYS, *BAND_CHECK])
    baselines = {}
    dead = []
    for key, (value, command, *corner) in LIVE_KEYS.items():
        corner = corner[0] if corner else {}
        base = (command, tuple(corner.items()))
        if base not in baselines:
            baselines[base] = _result(command, corner)
        if _result(command, {**corner, key: value}) == baselines[base]:
            dead.append(key)
    assert dead == []
    # the band check changes no result, only the warnings the CLI prints
    default = _cli_warnings(tmp_path, capsys, {})
    assert "warning:" in default
    for key, value in BAND_CHECK.items():
        assert _cli_warnings(tmp_path, capsys, {key: value}) != default, key
