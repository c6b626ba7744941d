"""Scenario configuration: strict YAML schema, builders, fragment writer.

Units throughout: meters, seconds, radians, m/s, rad/s, 1/m.  Unknown keys
are rejected everywhere so typos fail loudly.
"""

from __future__ import annotations

import math
from importlib import resources
from pathlib import Path as FsPath

import yaml

from .exceptions import ConfigError
from .param_design import CoordParams, SpeedLimits, derived_defaults, design_coordination_set
from .paths import CirclePath, LinePath, SplinePath, waypoints_from_lonlat
from .simulator import Scenario, UavSpec

_NUM = (int, float)

TOP_KEYS = {"limits", "params", "coordination", "chi", "paths", "uavs",
            "run", "output", "escape"}
OUTPUT_DEFAULTS = {"dir": "out", "trace": "trace.csv", "metrics": "metrics.json",
                   "events": "events.csv", "long": "long.csv", "long_every": 10}


def bundled_config_path(name: str) -> FsPath:
    """Filesystem path of a packaged example config (e.g. 'circle6')."""
    return FsPath(str(resources.files("cpfsim") / "configs" / f"{name}.yaml"))


def _check_keys(d: dict, allowed: set[str], where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}; "
                          f"allowed: {sorted(allowed)}")


def _num(d: dict, key: str, where: str, default=None, required=False) -> float:
    if key not in d:
        if required:
            raise ConfigError(f"{where}: missing required key '{key}'")
        return default
    v = d[key]
    if not isinstance(v, _NUM) or isinstance(v, bool):
        raise ConfigError(f"{where}.{key}: expected a number, got {type(v).__name__}")
    return _finite(v, f"{where}.{key}")


def _finite(v, where: str) -> float:
    """v as a float; NaN, infinities and integers beyond float range are errors."""
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{where}: expected a finite number, got {v!r}")
    return x


def _pair(v, where: str) -> tuple[float, float]:
    if (not isinstance(v, (list, tuple)) or len(v) != 2
            or not all(isinstance(x, _NUM) and not isinstance(x, bool) for x in v)):
        raise ConfigError(f"{where}: expected [x, y] numbers")
    return _finite(v[0], where), _finite(v[1], where)


def _grid(d: dict, key: str, where: str, default: tuple[int, int]) -> tuple[int, int]:
    v = d.get(key, default)
    if (not isinstance(v, (list, tuple)) or len(v) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) and x > 0 for x in v)):
        raise ConfigError(f"{where}.{key}: expected [n, m] positive integers, got {v!r}")
    return v[0], v[1]


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    _check_keys(cfg, TOP_KEYS, str(path))
    return cfg


def build_limits(cfg: dict) -> SpeedLimits:
    block = cfg.get("limits")
    if not isinstance(block, dict):
        raise ConfigError("missing 'limits' section")
    _check_keys(block, {"v_min", "v_max", "omega_max", "kappa_bound"}, "limits")
    limits = SpeedLimits(
        v_min=_num(block, "v_min", "limits", required=True),
        v_max=_num(block, "v_max", "limits", required=True),
        omega_max=_num(block, "omega_max", "limits", required=True),
        kappa_bound=_num(block, "kappa_bound", "limits", required=True),
    )
    limits.validate()
    return limits

_PARAM_FIELDS = {"psi_max", "rho_max", "v_coord", "rho_universe", "alpha",
                 "k1", "k2", "k3", "eps_switch", "chi_blend", "chi_delta1", "sign_eps"}
_DESIGN_KEYS = {"speed_margin", "alpha"} | (_PARAM_FIELDS - {"psi_max", "rho_max", "v_coord"})


def resolve_params(cfg: dict) -> CoordParams:
    """Explicit parameter block, or run the designer on a design directive."""
    limits = build_limits(cfg)
    spacing = _num(cfg.get("coordination", {}), "spacing", "coordination", default=0.0)
    if spacing < 0.0:
        raise ConfigError(f"coordination.spacing: expected a number >= 0, got {spacing!r}")
    block = cfg.get("params")
    if not isinstance(block, dict):
        raise ConfigError("missing 'params' section ('design' or 'explicit')")
    _check_keys(block, {"design", "explicit"}, "params")
    if ("design" in block) == ("explicit" in block):
        raise ConfigError("params: give exactly one of 'design' or 'explicit'")

    if "design" in block:
        d = block["design"] or {}
        _check_keys(d, _DESIGN_KEYS, "params.design")
        kwargs = {k: _num(d, k, "params.design") for k in d if k not in ("speed_margin", "alpha")}
        if _num(d, "speed_margin", "params.design", default=1.0) <= 0.0:
            raise ConfigError("params.design.speed_margin must be > 0")
        return design_coordination_set(
            limits,
            speed_margin=_num(d, "speed_margin", "params.design", default=1.0),
            alpha=_num(d, "alpha", "params.design", default=0.01),
            spacing=spacing, **kwargs)

    e = block["explicit"] or {}
    _check_keys(e, _PARAM_FIELDS, "params.explicit")
    for key in ("psi_max", "rho_max", "v_coord"):
        if key not in e:
            raise ConfigError(f"params.explicit: missing required key '{key}'")
    fields = {k: _num(e, k, "params.explicit") for k in e}
    if not 0.0 < fields["psi_max"] < math.pi / 2.0:   # derived_defaults divides by it
        raise ConfigError(f"params.explicit.psi_max: need 0 < psi_max < pi/2, "
                          f"got {fields['psi_max']!r}")
    fields = {**derived_defaults(limits, fields["psi_max"], fields["rho_max"]), **fields}
    params = CoordParams(v_min=limits.v_min, v_max=limits.v_max,
                         omega_max=limits.omega_max, kappa_bound=limits.kappa_bound,
                         spacing=spacing, **fields)
    params.validate_basic()
    return params


def build_paths(cfg: dict, kappa_bound: float) -> list:
    block = cfg.get("paths")
    if not isinstance(block, list) or not block:
        raise ConfigError("'paths' must be a non-empty list")
    out = []
    for i, p in enumerate(block):
        where = f"paths[{i}]"
        if not isinstance(p, dict):
            raise ConfigError(f"{where}: expected a mapping")
        kind = p.get("kind")
        if kind == "circle":
            _check_keys(p, {"kind", "center", "radius", "direction"}, where)
            out.append(CirclePath(
                center=_pair(p.get("center", [0.0, 0.0]), f"{where}.center"),
                radius=_num(p, "radius", where, required=True),
                direction=p.get("direction", "ccw"),
                kappa_bound=kappa_bound))
        elif kind == "line":
            _check_keys(p, {"kind", "origin", "heading", "horizon"}, where)
            out.append(LinePath(
                origin=_pair(p.get("origin", [0.0, 0.0]), f"{where}.origin"),
                heading=_num(p, "heading", where, default=0.0),
                kappa_bound=kappa_bound,
                horizon=_num(p, "horizon", where, default=1.0e5)))
        elif kind == "bspline":
            _check_keys(p, {"kind", "waypoints", "lonlat", "lonlat_origin",
                            "offset", "lut_step"}, where)
            if ("waypoints" in p) == ("lonlat" in p):
                raise ConfigError(f"{where}: give exactly one of 'waypoints' or 'lonlat'")
            if "waypoints" in p:
                wps = [_pair(w, f"{where}.waypoints") for w in p["waypoints"]]
            else:
                if "lonlat_origin" not in p:
                    raise ConfigError(f"{where}: 'lonlat' requires 'lonlat_origin'")
                wps = waypoints_from_lonlat(
                    [_pair(w, f"{where}.lonlat") for w in p["lonlat"]],
                    _pair(p["lonlat_origin"], f"{where}.lonlat_origin"))
            if "offset" in p:
                ox, oy = _pair(p["offset"], f"{where}.offset")
                wps = [(x + ox, y + oy) for x, y in wps]
            out.append(SplinePath(wps, kappa_bound=kappa_bound,
                                  lut_step=_num(p, "lut_step", where, default=0.1)))
        else:
            raise ConfigError(f"{where}: unknown path kind {kind!r}")
    return out


def build_scenario(cfg: dict, *, duration=None, dt=None) -> Scenario:
    params = resolve_params(cfg)
    paths = build_paths(cfg, params.kappa_bound)

    coord = cfg.get("coordination", {})
    _check_keys(coord, {"spacing", "parents"}, "coordination")
    parents = coord.get("parents", {})
    if not isinstance(parents, dict):
        raise ConfigError("coordination.parents must be a mapping")
    for k, v in parents.items():
        if not isinstance(k, int) or not (v is None or isinstance(v, int)):
            raise ConfigError("coordination.parents must map int ids to int ids")

    chi = cfg.get("chi", {})
    _check_keys(chi, {"slope"}, "chi")
    chi_slope = _num(chi, "slope", "chi", default=None)
    if chi_slope is not None and params.spacing > 0.0:
        raise ConfigError("chi.slope: only a zero coordination.spacing (linear chi) takes a slope")
    if chi_slope is not None and chi_slope <= 0.0:
        raise ConfigError(f"chi.slope: expected a positive number, got {chi_slope!r}")

    uavs_block = cfg.get("uavs")
    if not isinstance(uavs_block, list) or not uavs_block:
        raise ConfigError("'uavs' must be a non-empty list")
    uavs = []
    for i, u in enumerate(uavs_block):
        where = f"uavs[{i}]"
        if not isinstance(u, dict):
            raise ConfigError(f"{where}: expected a mapping")
        _check_keys(u, {"id", "x", "y", "theta", "path", "spawn_time"}, where)
        if not isinstance(u.get("id"), int):
            raise ConfigError(f"{where}: integer 'id' required")
        uavs.append(UavSpec(
            id=u["id"],
            x=_num(u, "x", where, required=True),
            y=_num(u, "y", where, required=True),
            theta=_num(u, "theta", where, required=True),
            path_index=int(_num(u, "path", where, default=0)),
            spawn_time=_num(u, "spawn_time", where, default=0.0)))

    run = cfg.get("run", {})
    _check_keys(run, {"duration", "dt"}, "run")
    scenario = Scenario(
        params=params, paths=paths, uavs=uavs,
        duration=_num(run, "duration", "run", default=100.0) if duration is None else duration,
        dt=_num(run, "dt", "run", default=0.01) if dt is None else dt,
        parents=parents, chi_slope=chi_slope)
    scenario.validate()
    return scenario


def output_spec(cfg: dict) -> dict:
    block = cfg.get("output", {})
    if not isinstance(block, dict):
        raise ConfigError("output: expected a mapping")
    _check_keys(block, set(OUTPUT_DEFAULTS), "output")
    for key, v in block.items():
        if key == "long_every":
            if not isinstance(v, int) or isinstance(v, bool) or v <= 0:
                raise ConfigError(f"output.long_every: expected a positive integer, got {v!r}")
        elif not isinstance(v, str) or not v:
            raise ConfigError(f"output.{key}: expected a non-empty string, got {v!r}")
    return {**OUTPUT_DEFAULTS, **block}


def escape_spec(cfg: dict) -> dict:
    block = cfg.get("escape", {})
    _check_keys(block, {"eps0", "kappa", "state_grid", "control_grid", "dt"}, "escape")
    return {
        "eps0": _num(block, "eps0", "escape", default=None),
        "kappa": _num(block, "kappa", "escape", default=0.0),
        "state_grid": _grid(block, "state_grid", "escape", (20, 20)),
        "control_grid": _grid(block, "control_grid", "escape", (21, 21)),
        "dt": _num(block, "dt", "escape", default=0.01),
    }


def params_fragment(params: CoordParams) -> str:
    """YAML fragment pinning the designed parameters as an explicit block."""
    lines = ["params:", "  explicit:"]
    for key in sorted(_PARAM_FIELDS):
        lines.append(f"    {key}: {getattr(params, key)!r}")
    return "\n".join(lines) + "\n"
