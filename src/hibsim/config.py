"""Scenario configuration: every section of the config tree, its defaults,
YAML round-trip, and validation.

The YAML mirrors the dataclass tree one-to-one; unknown keys are hard errors
(silent typos in simulation configs are how wrong plots get published).
Each key's own window is stated on its field's type as a `_Rule`;
`validate_config` checks those, then the rules that relate keys.
Spectrum sanity checks against the ITU RR identifications for platform base
stations live here too, since they are pure config concerns.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import re
import typing
from dataclasses import dataclass, field
from typing import Annotated

import numpy as np
import yaml

from .geometry import beamwidth_3db_deg, ring_radius_for_isd, service_disk_radius_m


class ConfigError(Exception):
    """Bad configuration input; message names the offending key."""


class _Rule(typing.NamedTuple):
    """A key's own window, stated on its field's type as `Annotated`
    metadata: `holds(value)` must be true, else the key fails with
    `message`."""

    holds: typing.Callable[[typing.Any], bool]
    message: str


def _at_least(least) -> _Rule:
    return _Rule(lambda v: v >= least, f"must be >= {least!r}")


def _rma_range(lo: float, hi: float) -> _Rule:
    """An antenna height, street or building range of TR 38.901 table 7.4.1-1."""
    return _Rule(
        lambda v: lo <= v <= hi,
        f"must lie in [{lo:g}, {hi:g}] m, the range the RMa model covers",
    )


_Positive = Annotated[float, _Rule(lambda v: v > 0, "must be positive")]
_NonNegative = Annotated[float, _at_least(0)]
_Count = Annotated[int, _at_least(0)]

# The platform channel covers elevations from here up to zenith; a config
# that places receivers lower is rejected before any run.
MIN_ELEVATION_DEG = 10.0

# Elevation-binned LOS probability for a rural platform-to-ground path,
# TR 38.811 table 6.6.1-1 flavor: (elevation_deg, p_los).
DEFAULT_P_LOS_TABLE = (
    (10.0, 0.25),
    (20.0, 0.55),
    (30.0, 0.70),
    (40.0, 0.80),
    (50.0, 0.85),
    (60.0, 0.90),
    (70.0, 0.95),
    (80.0, 0.99),
    (90.0, 1.00),
)


@dataclass(frozen=True)
class CarrierConfig:
    frequency_hz: _Positive = 2.0e9
    bandwidth_hz: _Positive = 20e6


@dataclass(frozen=True)
class HibsConfig:
    """Platform segment: one stratospheric platform over the area center."""

    altitude_m: _Positive = 20_000.0
    footprint_diameter_m: _Positive = 10_000.0  # innermost beam, sets the beamwidth
    n_rings: _Count = 2  # 2 hex rings -> 19 beams
    service_area_km2: _Positive = 4_000.0
    peak_gain_dbi: float = 16.5
    pattern_floor_db: _Positive = 30.0
    # "floor" = main lobe only, "bessel" = Airy rings
    pattern_sidelobes: typing.Literal["floor", "bessel"] = "floor"
    tx_power_dbm: float = 49.0  # per beam
    noise_figure_db: _NonNegative = 5.0


@dataclass(frozen=True)
class TerrestrialConfig:
    """Macro segment: one ring of 3-sector sites around the same area.

    Rotation 60 points one sector of each site at the central hole the ring
    encloses and splays the other two over the annulus; the gentle 3-degree
    tilt keeps usable gain out to the multi-kilometre edges of these large
    rural cells.

    The six sector keys, `peak_gain_dbi` through `downtilt_deg`, are the
    sector pattern (TR 36.873 table 7.1-1): every macro site carries this
    section as its pattern, and `antenna.sector_gain_dbi` reads them from
    it. `geometry.build_tn_ring_layout` reads the ring keys.
    """

    n_sites: Annotated[int, _at_least(2)] = 12
    isd_m: _Positive = 9_000.0
    site_height_m: Annotated[float, _rma_range(10.0, 150.0)] = 30.0
    sector_rotation_deg: float = 60.0
    peak_gain_dbi: float = 17.0
    h_hpbw_deg: _Positive = 65.0
    v_hpbw_deg: _Positive = 10.0
    front_back_db: _NonNegative = 30.0
    sla_db: _NonNegative = 30.0
    downtilt_deg: float = 3.0
    tx_power_dbm: float = 49.0


@dataclass(frozen=True)
class UeConfig:
    height_m: Annotated[float, _rma_range(1.0, 10.0)] = 1.5
    tx_power_dbm: float = 23.0
    antenna_gain_dbi: float = 0.0
    noise_figure_db: _NonNegative = 9.0


@dataclass(frozen=True)
class NtnParams:
    """Platform-to-ground rural channel knobs.

    Pathloss is free space at the slant range in both LOS and NLOS; NLOS adds
    an elevation-dependent clutter loss, linear from `clutter_low_db` at 10
    deg elevation down to `clutter_high_db` at zenith. `los_only` forces the
    LOS branch everywhere (clean-sky variant). The LOS table must span
    [MIN_ELEVATION_DEG, 90] deg, its probabilities in [0, 1].
    """

    p_los_table: tuple = DEFAULT_P_LOS_TABLE
    clutter_low_db: float = 19.0  # at 10 deg elevation
    clutter_high_db: float = 10.0  # at 90 deg elevation
    sigma_los_db: _NonNegative = 4.0
    sigma_nlos_db: _NonNegative = 8.0
    los_only: bool = False

    def p_los(self, elevation_deg):
        e = np.asarray(elevation_deg, dtype=float)
        xs = np.array([x for x, _ in self.p_los_table])
        ps = np.array([p for _, p in self.p_los_table])
        return np.interp(e, xs, ps)

    def clutter_db(self, elevation_deg):
        e = np.asarray(elevation_deg, dtype=float)
        return np.interp(e, [10.0, 90.0], [self.clutter_low_db, self.clutter_high_db])


@dataclass(frozen=True)
class RmaParams:
    """TR 38.901 RMa scenario constants (table 7.4.1-1 row RMa), held to the
    model's validity window."""

    street_width_m: Annotated[float, _rma_range(5.0, 50.0)] = 20.0
    building_height_m: Annotated[float, _rma_range(5.0, 50.0)] = 5.0
    sigma_los_near_db: float = 4.0  # before the breakpoint
    sigma_los_far_db: float = 6.0  # beyond the breakpoint
    sigma_nlos_db: float = 8.0
    min_d2d_m: _Positive = 10.0
    max_d2d_m: float = 21_000.0  # above min_d2d_m


@dataclass(frozen=True)
class ChannelConfig:
    shadowing: bool = True
    ntn: NtnParams = field(default_factory=NtnParams)
    rma: RmaParams = field(default_factory=RmaParams)


@dataclass(frozen=True)
class MobilityConfig:
    """Straight-line trajectories through the area center.

    Inbound users spawn in the outer terrestrial annulus, between
    `tn_spawn_near` and `tn_spawn_far` site-ring radii, and park on reaching
    the center. Outbound users spawn within `hibs_spawn_radius_m` of the
    center and park `outbound_stop_margin_m` beyond the site ring, so no
    track leaves the modeled coverage and re-triggers at its rim.

    `decision_signal` picks what the A3 rule compares: "longterm" uses the
    distance/pattern/LOS-state received power (cell-selection grade, the
    default), "shadowed" adds the per-measurement correlated shadowing —
    which lets shadow swings several times the hysteresis drive the
    handovers, burying the geometric crossing pattern in ping-pong.
    """

    speed_mps: _Positive = 30.0 / 3.6
    measurement_period_s: _Positive = 0.2
    a3_offset_db: float = 3.0
    time_to_trigger_s: float = 0.64
    sim_duration_s: _Positive = 2_400.0
    decision_signal: typing.Literal["longterm", "shadowed"] = "longterm"
    shadow_decorrelation_m: _Positive = 50.0
    # inbound spawn band, in site-ring radii
    tn_spawn_near: Annotated[float, _at_least(1.0)] = 1.05
    tn_spawn_far: float = 1.30
    hibs_spawn_radius_m: _Positive = 2_000.0  # outbound users start near the center
    outbound_stop_margin_m: _NonNegative = 1_000.0
    n_inbound: _Count = 120
    n_outbound: _Count = 120


@dataclass(frozen=True)
class SchedulerConfig:
    """Round-robin TDM is fixed; what varies is the interference environment.

    `ul_interference` picks what a scheduled uplink user competes against:

    - "full_load": one full-power UE per other beam, uniform in that beam's
      footprint (busy-system assumption; uplink statistics independent of
      the dropped-user density by construction)
    - "coscheduled": the actual round-robin co-scheduled users of the other
      active cells (interference scales with load)
    - "none": pure uplink SNR

    `overlay_cochannel_beams` is the downlink mirror of "full_load" for the
    overlay scenario: the platform's non-center beams stay on the air as
    co-channel interferers even though only the center beam serves there.
    Disable for a platform that truly powers down to a single beam.
    """

    ul_interference: typing.Literal["full_load", "coscheduled", "none"] = "full_load"
    overlay_cochannel_beams: bool = True


@dataclass(frozen=True)
class RateParams:
    """Truncated Shannon link-to-rate mapping."""

    alpha: _Positive = 0.6  # implementation-loss scaling on log2(1 + sinr)
    sinr_min_db: float = -10.0  # below this the link gets nothing
    se_max_bpshz: _Positive = 4.8  # highest MCS ceiling


@dataclass(frozen=True)
class BandCheckConfig:
    enabled: bool = True
    region: str = "R1"


@dataclass(frozen=True)
class ScenarioConfig:
    carrier: CarrierConfig = field(default_factory=CarrierConfig)
    hibs: HibsConfig = field(default_factory=HibsConfig)
    terrestrial: TerrestrialConfig = field(default_factory=TerrestrialConfig)
    ue: UeConfig = field(default_factory=UeConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    rate: RateParams = field(default_factory=RateParams)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    mobility: MobilityConfig = field(default_factory=MobilityConfig)
    band_check: BandCheckConfig = field(default_factory=BandCheckConfig)


def _coerce_scalar(value, ftype, path: str):
    if ftype is bool:
        if isinstance(value, bool):
            return value
        raise ConfigError(f"{path}: expected true/false, got {value!r}")
    if ftype is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                number = float(value)
            except OverflowError:  # an integer beyond the float range
                number = math.inf
            if not math.isfinite(number):
                raise ConfigError(f"{path}: must be finite, got {number!r}")
            return number
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if ftype is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if ftype is str or typing.get_origin(ftype) is typing.Literal:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        choices = typing.get_args(ftype)  # none for a plain string
        if choices and value not in choices:
            raise ConfigError(f"{path}: must be one of {list(choices)}")
        return value
    raise ConfigError(f"{path}: unsupported value {value!r}")


def _coerce_p_los_table(value, path: str):
    if isinstance(value, dict):
        value = value.items()
    elif not isinstance(value, (list, tuple)):
        raise ConfigError(f"{path}: expected a mapping of elevation_deg: p_los")
    return tuple(sorted(_float_pairs(value, path)))


def _float_pairs(pairs, key: str) -> list[tuple[float, float]]:
    """A LOS table's (elevation, p_los) pairs as floats."""
    try:
        return [(float(e), float(p)) for e, p in pairs]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key}: {exc}") from None


@functools.cache
def _hints(cls, include_extras: bool = False) -> dict:
    """A config class's field types, read once per class: the hints of a
    frozen module-level class never change, and reading them compiles
    every annotation string anew."""
    return typing.get_type_hints(cls, include_extras=include_extras)


def _build_dataclass(cls, data, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping")
    hints = _hints(cls)
    known = {f.name: hints[f.name] for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"unknown config key '{path}.{key}'")
        ftype = known[key]
        sub_path = f"{path}.{key}"
        if dataclasses.is_dataclass(ftype):
            kwargs[key] = _build_dataclass(ftype, value, sub_path)
        elif key == "p_los_table":
            kwargs[key] = _coerce_p_los_table(value, sub_path)
        else:
            kwargs[key] = _coerce_scalar(value, ftype, sub_path)
    return cls(**kwargs)


def config_from_dict(data: dict | None) -> ScenarioConfig:
    cfg = _build_dataclass(ScenarioConfig, data or {}, "scenario")
    validate_config(cfg)
    return cfg


def config_to_dict(cfg: ScenarioConfig) -> dict:
    out = dataclasses.asdict(cfg)
    out["channel"]["ntn"]["p_los_table"] = {
        float(e): float(p) for e, p in cfg.channel.ntn.p_los_table
    }
    return out


class _ScenarioLoader(yaml.SafeLoader):
    """SafeLoader that also reads `2.0e9` and `20e6` as floats: PyYAML
    follows YAML 1.1, whose floats need a dot and a signed exponent."""


_ScenarioLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    # a dot or an exponent, either sign optional; plain integers stay integers
    re.compile(
        r"^(?=.*[.eE])[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9][0-9_]*)(?:[eE][-+]?[0-9]+)?$"
    ),
    list("-+0123456789."),
)


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    try:
        data = yaml.load(text, Loader=_ScenarioLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError(f"{path}: YAML parse error{where}: {exc}") from None
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return config_from_dict(data)


def _require(ok: bool, key: str, msg: str):
    if not ok:
        raise ConfigError(f"{key}: {msg}")


def _check_p_los_table(pairs, key: str):
    """The LOS table rule of YAML and Python configs alike."""
    pairs = _float_pairs(pairs, key)
    if not all(math.isfinite(v) for pair in pairs for v in pair):
        raise ConfigError(f"{key}: elevations and probabilities must be finite")
    elevations = [e for e, _ in pairs]
    if elevations != sorted(elevations):
        raise ConfigError(f"{key}: elevations must be ascending")
    for e, p in pairs:
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"{key}: p_los must lie in [0, 1], got {p:g} at {e:g} deg")
    # np.interp holds the end values outside the table, so a table must
    # cover every elevation a platform link can take
    if not pairs or pairs[0][0] > MIN_ELEVATION_DEG or pairs[-1][0] < 90.0:
        raise ConfigError(f"{key}: must span [{MIN_ELEVATION_DEG:g}, 90] deg elevation")


def _check_numbers(node, prefix: str):
    """The type and window checks of every leaf, walking the dataclass tree,
    so a config built in Python meets them too: each scalar leaf of its
    field's type (a bool, an integer, a string, one of a `Literal`'s choices
    or a finite number), then within each window that type annotates, and
    the LOS table by its rule."""
    hints = _hints(type(node), include_extras=True)
    for f in dataclasses.fields(node):
        value, key, hint = getattr(node, f.name), prefix + f.name, hints[f.name]
        if dataclasses.is_dataclass(value):
            _check_numbers(value, key + ".")
        elif f.name == "p_los_table":
            _check_p_los_table(value, key)
        else:
            annotated = typing.get_origin(hint) is Annotated
            ftype, *rules = typing.get_args(hint) if annotated else (hint,)
            _coerce_scalar(value, ftype, key)
            for holds, message in rules:
                _require(holds(value), key, message)


def validate_config(cfg: ScenarioConfig) -> None:
    """Every rule on a scenario config, whether read from YAML or built in
    Python; a violation raises ConfigError naming its full dotted key. Each
    key's own window is stated on its field; the rules here relate keys."""
    _check_numbers(cfg, "")
    h, t, m, rma = cfg.hibs, cfg.terrestrial, cfg.mobility, cfg.channel.rma
    bw_deg = beamwidth_3db_deg(h.footprint_diameter_m, h.altitude_m)
    _require(
        1.0 <= bw_deg <= 90.0,
        "hibs.footprint_diameter_m",
        f"implies a 3 dB beamwidth of {bw_deg:.2f} deg, outside [1, 90]",
    )
    _require(cfg.ue.height_m < t.site_height_m, "ue.height_m", "must be below the site height")
    _require(rma.max_d2d_m > rma.min_d2d_m, "channel.rma.max_d2d_m", "must be > min_d2d_m")
    _require(
        m.measurement_period_s <= m.time_to_trigger_s,
        "mobility.time_to_trigger_s",
        "must be >= measurement_period_s",
    )
    _require(
        m.tn_spawn_far >= m.tn_spawn_near,
        "mobility.tn_spawn_far",
        "must be >= tn_spawn_near",
    )
    _require(
        cfg.band_check.region in HIBS_DL_BANDS_MHZ,
        "band_check.region",
        f"must be one of {sorted(HIBS_DL_BANDS_MHZ)}",
    )
    _check_platform_elevation(cfg)
    _check_rma_reach(cfg)


def _overlay_extents_m(cfg: ScenarioConfig) -> dict[str, float]:
    """Farthest horizontal distance from the area center at which the overlay
    commands place receivers, by what places them."""
    t, m = cfg.terrestrial, cfg.mobility
    ring_m = ring_radius_for_isd(t.isd_m, t.n_sites)
    return {
        "the overlay drop disk": ring_m + 0.5 * t.isd_m,
        "the inbound mobility spawn band": ring_m * m.tn_spawn_far,
        "the outbound mobility spawn disk": m.hibs_spawn_radius_m,
        # a track parks at its first sample past the stop radius
        "the outbound mobility stop": ring_m
        + m.outbound_stop_margin_m
        + m.speed_mps * m.measurement_period_s,
    }


def _receiver_extents_m(cfg: ScenarioConfig) -> dict[str, float]:
    """Farthest horizontal distance from the platform's nadir at which the
    commands place receivers, by what places them."""
    h = cfg.hibs
    extents = {
        "the platform service disk": service_disk_radius_m(h.service_area_km2),
        **_overlay_extents_m(cfg),
    }
    if cfg.scheduler.ul_interference == "full_load":
        # one phantom uplink user uniform in each beam footprint; the
        # outermost beam centers sit n_rings footprint diameters out
        extents["the uplink phantoms"] = (h.n_rings + 0.5) * h.footprint_diameter_m
    return extents


def _check_platform_elevation(cfg: ScenarioConfig) -> None:
    height_m = cfg.hibs.altitude_m - cfg.ue.height_m
    where, reach_m = max(_receiver_extents_m(cfg).items(), key=lambda kv: kv[1])
    elev = math.degrees(math.atan2(height_m, reach_m))
    # same tolerance as the channel model's runtime check
    _require(
        elev >= MIN_ELEVATION_DEG - 1e-9,
        "hibs.altitude_m",
        f"the platform sits {elev:.2f} deg above the horizon at {reach_m / 1e3:.1f} km "
        f"from nadir ({where}), below the {MIN_ELEVATION_DEG:g} deg the platform "
        "channel model covers",
    )


def _check_rma_reach(cfg: ScenarioConfig) -> None:
    """Every overlay receiver must have a macro site within the RMa window.

    The receivers fill a disk of radius R about the center, inside or around
    the ring of n sites. The receiver farthest from its nearest site is
    either the center, or a point at R midway between two sites.
    """
    t = cfg.terrestrial
    ring_m = ring_radius_for_isd(t.isd_m, t.n_sites)
    r_m = max(_overlay_extents_m(cfg).values())
    midway_m = math.sqrt(
        r_m**2 + ring_m**2 - 2.0 * r_m * ring_m * math.cos(math.pi / t.n_sites)
    )
    reach_m = max(ring_m, midway_m)
    max_d2d_m = cfg.channel.rma.max_d2d_m
    _require(
        reach_m <= max_d2d_m,
        "terrestrial.isd_m",
        f"puts overlay receivers {reach_m / 1e3:.1f} km from their nearest site, "
        f"beyond the {max_d2d_m / 1e3:g} km (channel.rma.max_d2d_m) the RMa "
        "model covers",
    )


# ITU RR identifications for IMT base stations on high-altitude platforms
# (Res. 221): frequency ranges in MHz, per ITU region.
HIBS_UL_BANDS_MHZ = {
    "R1": ((1885.0, 1980.0), (2010.0, 2025.0)),
    "R2": ((1885.0, 1980.0),),
    "R3": ((1885.0, 1980.0), (2010.0, 2025.0)),
}
HIBS_DL_BANDS_MHZ = {
    "R1": ((2110.0, 2170.0),),
    "R2": ((2110.0, 2160.0),),
    "R3": ((2110.0, 2170.0),),
}
# Ranges under study for an expanded identification (WRC-23 agenda item 1.4).
WRC23_CANDIDATE_BANDS_MHZ = {
    "R1": ((694.0, 960.0), (1710.0, 1885.0), (2500.0, 2690.0)),
    "R2": ((694.0, 960.0), (1710.0, 1885.0), (2500.0, 2690.0)),
    "R3": ((694.0, 960.0), (1710.0, 1885.0), (2500.0, 2655.0)),
}


def validate_band(frequency_hz: float, region: str = "R1", direction: str = "DL") -> str | None:
    """Check a carrier against the platform-station identifications.

    Returns None when the frequency is permitted for the given link direction
    and region, otherwise a human-readable warning (never an exception: odd
    carriers are legal to simulate, just flagged).
    """
    region = region.upper()
    if region not in HIBS_DL_BANDS_MHZ:
        raise ConfigError(f"band_check.region: must be one of {sorted(HIBS_DL_BANDS_MHZ)}")
    direction = direction.upper()
    if direction not in ("DL", "UL"):
        raise ValueError("direction must be 'DL' or 'UL'")
    f_mhz = frequency_hz / 1e6
    permitted = (
        HIBS_DL_BANDS_MHZ[region] if direction == "DL" else HIBS_UL_BANDS_MHZ[region]
    )
    if any(lo <= f_mhz <= hi for lo, hi in permitted):
        return None
    for lo, hi in WRC23_CANDIDATE_BANDS_MHZ[region]:
        if lo <= f_mhz <= hi:
            return (
                f"{f_mhz:g} MHz is not identified for platform base stations in "
                f"{region} ({direction}); it falls in the WRC-23 AI 1.4 candidate "
                f"band {lo:g}-{hi:g} MHz"
            )
    nearest = min(permitted, key=lambda b: min(abs(f_mhz - b[0]), abs(f_mhz - b[1])))
    return (
        f"{f_mhz:g} MHz is outside the platform-station bands for {region} "
        f"({direction}); nearest permitted band is {nearest[0]:g}-{nearest[1]:g} MHz"
    )
