"""Scenario configuration: strict YAML schema, builders, fragment writer.

Units throughout: meters, seconds, radians, m/s, rad/s, 1/m.  Unknown keys
are rejected everywhere so typos fail loudly.
"""

from __future__ import annotations

import functools
import math
from importlib import resources
from pathlib import Path as FsPath

import yaml

from .exceptions import ConfigError, CpfsimError
from .param_design import CoordParams, SpeedLimits, derived_defaults, design_coordination_set
from .paths import CirclePath, LinePath, SplinePath, waypoints_from_lonlat
from .simulator import Scenario, UavSpec

_NUM = (int, float)

TOP_KEYS = {"limits", "params", "coordination", "paths", "uavs", "run", "output"}
# libyaml's parser where PyYAML has it; both loaders build their dicts with
# the same SafeConstructor, and _loader adds _UniqueKeys to it.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
OUTPUT_DEFAULTS = {"dir": "out", "trace": "trace.csv", "metrics": "metrics.json",
                   "events": "events.csv", "long": "long.csv", "long_every": 10}


class _UniqueKeys:
    """Loader mixin: a key given twice in one mapping is an error; PyYAML keeps the last value."""

    def flatten_mapping(self, node):
        # the first call on a node sees its own keys; a later one (when the node is
        # merged) sees the merged keys too, which a key next to << may override
        checked = self.__dict__.setdefault("_checked", set())
        if node not in checked:
            checked.add(node)
            keys = set()
            for k, _ in node.value:
                if isinstance(k, yaml.ScalarNode) and k.tag != "tag:yaml.org,2002:merge":
                    key = k.value if k.tag == "tag:yaml.org,2002:str" else self.construct_object(k)
                    if key in keys:
                        raise yaml.constructor.ConstructorError(
                            None, None, f"duplicate key {key!r}", k.start_mark)
                    keys.add(key)
        super().flatten_mapping(node)


@functools.cache
def _loader(base):   # one class per base, so its method lookups stay cached
    return type("Loader", (_UniqueKeys, base), {})


def bundled_config_path(name: str) -> FsPath:
    """Filesystem path of a packaged example config (e.g. 'circle6')."""
    return FsPath(str(resources.files("cpfsim") / "configs" / f"{name}.yaml"))


def _check_keys(d: dict, allowed: set[str], where: str) -> None:
    unknown = set(d) - allowed
    if unknown:   # keys of mixed types sort by their text
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown, key=str)}; "
                          f"allowed: {sorted(allowed)}")


def _block(d: dict, where: str, allowed: set[str]) -> dict:
    """The mapping under the last key of ``where``, keys checked; absent or null reads as {}."""
    block = d.get(where.rpartition(".")[2])
    if block is None:
        return {}
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(block).__name__}")
    _check_keys(block, allowed, where)
    return block


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)   # isinstance(True, int) holds


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


def _pairs(d: dict, key: str, where: str) -> list[tuple[float, float]]:
    if not isinstance(d[key], list):
        raise ConfigError(f"{where}.{key}: expected a list of [x, y] numbers")
    return [_pair(v, f"{where}.{key}") for v in d[key]]


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = yaml.load(fh, Loader=_loader(_YAML_LOADER))
    except OSError as exc:   # missing, a directory, unreadable
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    _check_keys(cfg, TOP_KEYS, str(path))
    return cfg


def build_limits(cfg: dict) -> SpeedLimits:
    block = _block(cfg, "limits", {"v_min", "v_max", "omega_max", "kappa_bound"})
    limits = SpeedLimits(
        v_min=_num(block, "v_min", "limits", required=True),
        v_max=_num(block, "v_max", "limits", required=True),
        omega_max=_num(block, "omega_max", "limits", required=True),
        kappa_bound=_num(block, "kappa_bound", "limits", required=True),
    )
    try:
        limits.validate()
    except ValueError as exc:
        raise ConfigError(f"limits: {exc}") from None
    return limits

_PARAM_FIELDS = {"psi_max", "rho_max", "v_coord", "rho_universe", "alpha",
                 "k1", "k2", "k3", "eps_switch", "chi_blend", "chi_delta1", "sign_eps"}


def resolve_params(cfg: dict) -> CoordParams:
    """Explicit parameter block, or run the designer on a design directive."""
    limits = build_limits(cfg)
    coord = _block(cfg, "coordination", {"spacing", "parents"})
    spacing = _num(coord, "spacing", "coordination", default=0.0)
    if spacing < 0.0:
        raise ConfigError(f"coordination.spacing: expected a number >= 0, got {spacing!r}")
    block = _block(cfg, "params", {"design", "explicit"})
    if ("design" in block) == ("explicit" in block):
        raise ConfigError("params: give exactly one of 'design' or 'explicit'")

    if "design" in block:
        d = _block(block, "params.design", {"speed_margin", "alpha"})
        speed_margin = _num(d, "speed_margin", "params.design", default=1.0)
        if speed_margin <= 0.0:
            raise ConfigError("params.design.speed_margin must be > 0")
        alpha = _num(d, "alpha", "params.design", default=0.01)
        if not 0.0 < alpha < limits.omega_max:
            raise ConfigError(f"params.design.alpha: need 0 < alpha < limits.omega_max "
                              f"({limits.omega_max!r}), got {alpha!r}")
        return design_coordination_set(limits, speed_margin=speed_margin, alpha=alpha,
                                       spacing=spacing)

    e = _block(block, "params.explicit", _PARAM_FIELDS)
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
    if not 0.0 < params.alpha < limits.omega_max:   # else the turn budgets go negative
        raise ConfigError(f"params.explicit.alpha: need 0 < alpha < limits.omega_max "
                          f"({limits.omega_max!r}), got {params.alpha!r}")
    params.validate_basic()
    return params


def build_paths(cfg: dict, kappa_bound: float) -> list:
    block = cfg.get("paths")
    if not isinstance(block, list) or not block:
        raise ConfigError("'paths' must be a non-empty list")
    out = []
    shapes = {}   # one table per spline shape of this scenario
    for i, p in enumerate(block):
        where = f"paths[{i}]"
        if not isinstance(p, dict):
            raise ConfigError(f"{where}: expected a mapping")
        form = p.get("kind")
        if form == "circle":
            _check_keys(p, {"kind", "center", "radius", "direction"}, where)
            cls, kwargs = CirclePath, dict(
                center=_pair(p.get("center", [0.0, 0.0]), f"{where}.center"),
                radius=_num(p, "radius", where, required=True),
                direction=p.get("direction", "ccw"))
        elif form == "line":
            _check_keys(p, {"kind", "origin", "heading"}, where)
            cls, kwargs = LinePath, dict(
                origin=_pair(p.get("origin", [0.0, 0.0]), f"{where}.origin"),
                heading=_num(p, "heading", where, default=0.0))
        elif form == "bspline":
            _check_keys(p, {"kind", "waypoints", "lonlat", "lonlat_origin", "offset"}, where)
            if ("waypoints" in p) == ("lonlat" in p):
                raise ConfigError(f"{where}: give exactly one of 'waypoints' or 'lonlat'")
            if "waypoints" in p:
                wps = _pairs(p, "waypoints", where)
            else:
                if "lonlat_origin" not in p:
                    raise ConfigError(f"{where}: 'lonlat' requires 'lonlat_origin'")
                wps = waypoints_from_lonlat(_pairs(p, "lonlat", where),
                                            _pair(p["lonlat_origin"], f"{where}.lonlat_origin"))
            if "offset" in p:
                ox, oy = _pair(p["offset"], f"{where}.offset")
                wps = [(x + ox, y + oy) for x, y in wps]
            cls, kwargs = SplinePath, dict(waypoints=wps, _shapes=shapes)
        else:
            raise ConfigError(f"{where}: unknown path kind {form!r}")
        try:   # a shape the config asks for and the path rejects is a config error
            out.append(cls(kappa_bound=kappa_bound, **kwargs))
        except (ValueError, CpfsimError) as exc:
            raise ConfigError(f"{where}: {exc}") from None
    return out


def build_scenario(cfg: dict, *, duration=None, dt=None) -> Scenario:
    params = resolve_params(cfg)
    paths = build_paths(cfg, params.kappa_bound)

    parents = _block(cfg, "coordination", {"spacing", "parents"}).get("parents", {})
    if not isinstance(parents, dict):
        raise ConfigError("coordination.parents must be a mapping")
    for k, v in parents.items():
        if not _is_int(k) or not (v is None or _is_int(v)):
            raise ConfigError(f"coordination.parents: {k!r}: {v!r} must map an integer id "
                              f"to an integer id or null")

    uavs_block = cfg.get("uavs")
    if not isinstance(uavs_block, list) or not uavs_block:
        raise ConfigError("'uavs' must be a non-empty list")
    uavs = []
    for i, u in enumerate(uavs_block):
        where = f"uavs[{i}]"
        if not isinstance(u, dict):
            raise ConfigError(f"{where}: expected a mapping")
        _check_keys(u, {"id", "x", "y", "theta", "path", "spawn_time"}, where)
        if not _is_int(u.get("id")):
            raise ConfigError(f"{where}: integer 'id' required, got {u.get('id')!r}")
        if not _is_int(u.get("path", 0)):
            raise ConfigError(f"{where}.path: expected an integer path index, got {u['path']!r}")
        uavs.append(UavSpec(
            id=u["id"],
            x=_num(u, "x", where, required=True),
            y=_num(u, "y", where, required=True),
            theta=_num(u, "theta", where, required=True),
            path_index=u.get("path", 0),
            spawn_time=_num(u, "spawn_time", where, default=0.0)))

    run = _block(cfg, "run", {"duration", "dt"})
    scenario = Scenario(
        params=params, paths=paths, uavs=uavs,
        duration=_num(run, "duration", "run", default=100.0) if duration is None else duration,
        dt=_num(run, "dt", "run", default=0.01) if dt is None else dt,
        parents=parents)
    scenario.validate()
    return scenario


def output_spec(cfg: dict) -> dict:
    block = _block(cfg, "output", set(OUTPUT_DEFAULTS))
    for key, v in block.items():
        if key == "long_every":
            if not _is_int(v) or v <= 0:
                raise ConfigError(f"output.long_every: expected a positive integer, got {v!r}")
        elif not isinstance(v, str) or not v:
            raise ConfigError(f"output.{key}: expected a non-empty string, got {v!r}")
    return {**OUTPUT_DEFAULTS, **block}


def params_fragment(params: CoordParams) -> str:
    """YAML fragment pinning the designed parameters as an explicit block."""
    lines = ["params:", "  explicit:"]
    for key in sorted(_PARAM_FIELDS):
        lines.append(f"    {key}: {getattr(params, key)!r}")
    return "\n".join(lines) + "\n"
