"""YAML-driven configuration: keyword table, substitution, loop expansion.

A configuration document is a sequence of single-key maps.  Each key names
a keyword whose plugin consumes the entry's value and mutates the build
context (network, simulation, shared scope).  Each keyword but
``parameters`` takes a fixed set of keys; any other key is an error.
Strings may reference scope variables with single angle brackets —
``<name>`` or indexed ``<arr(<i>)>`` — resolved innermost-first; a literal
``<`` is written ``<<``.  A ``loop`` entry replicates its body over a
half-open integer range (start inclusive, stop exclusive).
"""

from __future__ import annotations

import math
import re
from functools import partial
from pathlib import Path

import yaml

from ..core import TimeSeries, parse_time
from ..network import Gen
from ..powerflow import PfOptions
from ..simlib import (
    AutoTapChanger,
    Battery,
    Building,
    Heartbeat,
    Inverter,
    PvInverter,
    SimNetwork,
    SolarPv,
    TimeSeriesTapChanger,
    TimeSeriesZip,
    VoltVarController,
    Weather,
)
from ..simulation import Simulation
from .matpower import load_network


class YamlConfigError(ValueError):
    def __init__(self, message, path=()):
        self.path = tuple(path)
        where = "/".join(str(p) for p in path)
        super().__init__(f"{where}: {message}" if where else message)


class UnknownKeywordError(YamlConfigError):
    pass


class UnboundVariableError(YamlConfigError):
    pass


class LoopSpecError(YamlConfigError):
    pass


class YamlScope:
    """Name -> value bindings visible to `<...>` substitutions."""

    def __init__(self, parent=None):
        self.parent = parent
        self.bindings: dict = {}

    def bind(self, name: str, value) -> None:
        self.bindings[name] = value

    def lookup(self, name: str):
        scope = self
        while scope is not None:
            if name in scope.bindings:
                return scope.bindings[name]
            scope = scope.parent
        raise KeyError(name)

    def child(self) -> "YamlScope":
        return YamlScope(parent=self)


_ESCAPE = "\x00"   # a literal "<", written "<<"
_LEFT = "\x01"     # the "<" of a token a non-strict pass leaves unbound
_TOKEN = re.compile(r"<([A-Za-z_]\w*)(?:\(([^<>()]*)\))?>")


def _resolve_token(match, scope, strict, path):
    name, index = match.group(1), match.group(2)
    try:
        value = scope.lookup(name)
    except KeyError:
        if strict:
            raise UnboundVariableError(f"unbound variable {name!r}", path) from None
        return None
    if index is not None:
        try:
            i = int(str(index).strip())
        except ValueError:
            raise YamlConfigError(
                f"index {index!r} into {name!r} is not an integer", path
            ) from None
        try:
            value = value[i]
        except (TypeError, IndexError, KeyError):
            raise YamlConfigError(f"cannot index {name!r} with {i}", path) from None
    return value


def substitute_string(text: str, scope: YamlScope, strict=True, path=()):
    """Resolve substitutions in one string, innermost tokens first.

    If the entire string is a single substitution the bound value is
    returned with its native type; otherwise pieces are joined as text.
    """
    work = text.replace("<<", _ESCAPE)
    for _ in range(50):
        full = _TOKEN.fullmatch(work)
        if full is not None:
            value = _resolve_token(full, scope, strict, path)
            if value is None and not strict:
                break
            if isinstance(value, str):
                work = value.replace("<<", _ESCAPE)
                continue
            return value
        replaced = False

        def repl(match):
            nonlocal replaced
            value = _resolve_token(match, scope, strict, path)
            if value is None and not strict:
                return match.group(0).replace("<", _LEFT)
            replaced = True
            return str(value)

        work = _TOKEN.sub(repl, work)
        if not replaced:
            break
    # a non-strict pass leaves its output to a strict one, so it keeps a
    # literal "<" escaped
    return work.replace(_ESCAPE, "<" if strict else "<<").replace(_LEFT, "<")


def substitute(node, scope: YamlScope, strict=True, path=()):
    """Recursive substitution over a parsed YAML node."""
    if isinstance(node, str):
        return substitute_string(node, scope, strict, path)
    if isinstance(node, dict):
        return {
            substitute(k, scope, strict, path): substitute(
                v, scope, strict, tuple(path) + (k,)
            )
            for k, v in node.items()
        }
    if isinstance(node, list):
        return [
            substitute(v, scope, strict, tuple(path) + (i,))
            for i, v in enumerate(node)
        ]
    return node


def loop_expand(node, scope: YamlScope, path=()):
    """Expand one loop entry into a flat list of entries.

    The loop specifier is ``loop_variable: [name, start, stop, step]``
    over the half-open range [start, stop); the body is replicated once
    per value with the variable bound in a child scope.  Nested loops are
    expanded when the produced entries are applied.
    """
    if not isinstance(node, dict) or "loop_variable" not in node \
            or "loop_body" not in node:
        raise LoopSpecError("loop needs loop_variable and loop_body", path)
    for key in node:
        if key not in ("loop_variable", "loop_body"):
            raise LoopSpecError(f"loop: unknown field {key!r}", path)
    spec = substitute(node["loop_variable"], scope, strict=True, path=path)
    if not isinstance(spec, list) or len(spec) != 4:
        raise LoopSpecError(
            "loop_variable must be [name, start, stop, step]", path
        )
    name, start, stop, step = spec
    if not isinstance(name, str):
        raise LoopSpecError("loop variable name must be a string", path)
    try:
        start, stop, step = int(start), int(stop), int(step)
    except (TypeError, ValueError):
        raise LoopSpecError("loop bounds must be integers", path) from None
    if step == 0:
        raise LoopSpecError("loop step must be nonzero", path)
    body = node["loop_body"]
    if not isinstance(body, list):
        raise LoopSpecError("loop_body must be a sequence", path)
    out = []
    for value in range(start, stop, step):
        child = scope.child()
        child.bind(name, value)
        for entry in body:
            out.append((substitute(entry, child, strict=False, path=path), child))
    return out


class YamlContext:
    """Mutable build state shared by plugins."""

    def __init__(self, base_dir=".", sim: Simulation | None = None):
        self.base_dir = Path(base_dir)
        self.sim = sim if sim is not None else Simulation(0.0, 0.0)
        self.sim_configured = sim is not None
        self.scope = YamlScope()
        self.series: dict[str, TimeSeries] = {}
        self.networks: dict[str, SimNetwork] = {}
        self.default_network_id: str | None = None

    def network(self, network_id=None) -> SimNetwork:
        nid = network_id or self.default_network_id
        if nid is None:
            raise YamlConfigError(
                "needs a network, but no `matpower` entry comes before it")
        if nid not in self.networks:
            raise YamlConfigError(f"no network component {nid!r}")
        return self.networks[nid]

    def resolve_path(self, p) -> Path:
        p = Path(p)
        return p if p.is_absolute() else self.base_dir / p


def yaml_apply(doc, registry: dict, ctx: YamlContext,
               scope: YamlScope | None = None, path=()) -> None:
    """Dispatch each document entry to its plugin in ``registry``, a map of
    keyword -> plugin(config, ctx, scope), in document order."""
    if not isinstance(doc, list):
        raise YamlConfigError("configuration must be a sequence of entries", path)
    scope = scope or ctx.scope
    for i, entry in enumerate(doc):
        _apply_entry(entry, registry, ctx, scope, tuple(path) + (i,))


def _apply_entry(entry, registry: dict, ctx: YamlContext,
                 scope: YamlScope, entry_path: tuple) -> None:
    """Apply one entry; an entry a loop produces has the path (loop's
    path, iteration, body index).  A plugin's error gets the entry's path
    and keyword unless it has a path."""
    if not isinstance(entry, dict) or len(entry) != 1:
        raise YamlConfigError("each entry must be a single-key map", entry_path)
    (keyword, config), = entry.items()
    if keyword == "loop":
        expanded = loop_expand(config, scope, entry_path)
        for k, (sub_entry, child) in enumerate(expanded):
            _apply_entry(sub_entry, registry, ctx, child,
                         entry_path + divmod(k, len(config["loop_body"])))
        return
    if keyword not in registry:
        raise UnknownKeywordError(
            f"unknown configuration keyword {keyword!r}", entry_path)
    config = substitute(config, scope, strict=True, path=entry_path)
    try:
        registry[keyword](config, ctx, scope)
    except YamlConfigError as exc:
        if exc.path:
            raise
        raise type(exc)(f"{keyword}: {exc}", entry_path) from exc
    except Exception as exc:
        raise YamlConfigError(f"{keyword}: {exc}", entry_path) from exc


def load_yaml_file(path) -> list:
    """Load a UTF-8 YAML file as :func:`yaml.safe_load` would.

    A file that is not UTF-8 or not valid YAML raises
    :class:`YamlConfigError` naming the file and the line and column of
    the fault, or its offset where the fault has no line.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise YamlConfigError(
            f"{path}: byte {exc.start}: not UTF-8: {exc.reason}") from None
    # libyaml's C parser under PyYAML's own safe constructor and resolver
    # builds the same objects as yaml.safe_load, about eight times faster
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        return yaml.load(text, Loader=loader)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        raise YamlConfigError(f"{path}: line {mark.line + 1}, column "
                              f"{mark.column + 1}: {exc.problem}") from None
    except yaml.reader.ReaderError as exc:
        raise YamlConfigError(
            f"{path}: offset {exc.position}: {exc.reason}") from None


def apply_yaml_file(path, registry=None, ctx=None) -> YamlContext:
    path = Path(path)
    registry = registry or default_registry()
    ctx = ctx or YamlContext(base_dir=path.parent)
    yaml_apply(load_yaml_file(path), registry, ctx)
    return ctx


# -- built-in keywords ------------------------------------------------------

_MODES = ("interpolation", "out_of_range")
# keyword -> (class, required keys, optional keys) of each component entry
_COMPONENTS = {
    "time_series_zip": (TimeSeriesZip, ("id", "zip"), (
        "network", "series", "input_file", *_MODES, "units", "scale",
        "resample_interval_s")),
    "weather": (Weather, ("id",), (
        "latitude_deg", "longitude_deg", "temperature_c", "cloud_cover",
        "cloud_exponent", "update_interval_s", "temperature_series",
        "cloud_series")),
    "solar_pv": (SolarPv, ("id", "weather", "efficiency", "area_m2"),
                 ("zenith_degrees", "azimuth_degrees")),
    "battery": (Battery, ("id", "capacity_kwh"), (
        "charge_kwh", "max_charge_kw", "max_discharge_kw", "eta_charge",
        "eta_discharge", "update_interval_s")),
    "inverter": (Inverter, ("id",), ("sources", "efficiency", "s_max_kva")),
    "pv_inverter": (PvInverter, ("id", "bus"), (
        "network", "gen", "sources", "q_mode", "efficiency", "s_max_kva",
        "power_factor", "q_setpoint_kvar", "update_interval_s")),
    "heartbeat": (Heartbeat, ("id", "interval_s"), ()),
    "auto_tap_changer": (AutoTapChanger, ("id", "branch", "monitored_bus"), (
        "network", "v_ref_pu", "deadband_pu", "tap_step", "tap_min",
        "tap_max", "delay_s")),
    "tap_changer_series": (TimeSeriesTapChanger, ("id", "branch"),
                           ("network", "series", "input_file", *_MODES)),
    "building": (Building, ("id", "weather", "r_deg_per_kw", "c_kwh_per_deg"), (
        "t_initial_c", "hvac_thermal_kw", "cop", "q_gain_kw", "t_set_c",
        "t_deadband_c", "update_interval_s", "zip", "network")),
    "volt_var_controller": (VoltVarController, ("id", "inverters"), (
        "network", "interval_s", "v_min_pu", "v_max_pu", "margin_pu",
        "slack_weight")),
}
# the constructor argument of each key whose name differs
_ARG = {"network": "network_id", "zip": "zip_id", "weather": "weather_id",
        "branch": "branch_id", "gen": "gen_id", "sources": "source_ids",
        "inverters": "inverter_ids"}


def _ids(values):
    if not isinstance(values, list):
        raise ValueError(f"expected a list of ids, got {values!r}")
    return tuple(map(str, values))


# the converter of each key whose value is no float
_CONVERT = {**dict.fromkeys(("id", "network", "zip", "weather", "gen", "branch",
                             "bus", "monitored_bus", "units", "q_mode"), str),
            "sources": _ids, "inverters": _ids}
_SERIES_IDS = ("series", "temperature_series", "cloud_series")
_DEVICE_KEYS = ("zip", "branch", "bus", "inverters")    # keys into a network


def _check_keys(config, required, optional=()):
    """Reject an entry that lacks a required key or sets any other."""
    if not isinstance(config, dict):
        raise YamlConfigError("expected a mapping")
    for key in required:
        if key not in config:
            raise YamlConfigError(f"missing required field {key!r}")
    for key in config:
        if key not in required and key not in optional:
            raise YamlConfigError(f"unknown field {key!r}")


def _field(key, convert, value):
    """``convert(value)``; an error that names ``key`` if it rejects it."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise YamlConfigError(f"field {key!r}: {exc}") from None


def _modes(config) -> dict:
    return {key: str(config[key]) for key in _MODES if key in config}


def _read_series(config, ctx) -> TimeSeries:
    if "input_file" not in config:
        raise YamlConfigError("needs `series` or `input_file`")
    return TimeSeries.from_csv(ctx.resolve_path(config["input_file"]),
                               **_modes(config))


def _arguments(config, ctx, required, optional) -> dict:
    """The constructor arguments of a component entry: each key checked,
    converted and renamed, the network and each series resolved.  An entry
    with ``input_file`` among its keys takes a ``series``, named or read."""
    _check_keys(config, required, optional)
    args = {}
    for key, value in config.items():
        if key in _SERIES_IDS:
            if str(value) not in ctx.series:
                raise YamlConfigError(f"unknown time series {value!r}")
            args[key] = ctx.series[str(value)]
        elif key != "input_file" and key not in _MODES:
            args[_ARG.get(key, key)] = _field(key, _CONVERT.get(key, float),
                                              value)
    if any(key in config for key in _DEVICE_KEYS):
        args["network_id"] = ctx.network(args.get("network_id")).id
    elif "network" in config:
        raise YamlConfigError("field 'network' needs " + " or ".join(
            repr(key) for key in _DEVICE_KEYS if key in optional))
    if "input_file" in optional and "series" not in args:
        args["series"] = _read_series(config, ctx)
    return args


def _add_component(cls, required, optional, config, ctx, scope):
    ctx.sim.add(cls(**_arguments(config, ctx, required, optional)))


def _time_value(value):
    """Seconds from a number or a timestamp.  NaN and infinity are
    rejected: a run that ends at either never stops."""
    t = float(value if isinstance(value, (int, float)) else parse_time(value))
    if not math.isfinite(t):
        raise ValueError(f"must be finite, got {value!r}")
    return t


def plugin_parameters(config, ctx, scope):
    if not isinstance(config, dict):
        raise YamlConfigError("expected a mapping")
    for name, value in config.items():
        scope.bind(str(name), value)


def plugin_simulation(config, ctx, scope):
    _check_keys(config, ("start_time", "end_time"))
    ctx.sim.start_time = _field("start_time", _time_value, config["start_time"])
    ctx.sim.end_time = _field("end_time", _time_value, config["end_time"])
    ctx.sim.current_time = ctx.sim.start_time
    ctx.sim_configured = True


def plugin_matpower(config, ctx, scope):
    _check_keys(config, ("input_file",), ("id", "tol_pu"))
    path = ctx.resolve_path(config["input_file"])
    try:
        net, _case = load_network(path)
    except ValueError as exc:       # name the case file, as `gridsim pf` does
        raise ValueError(f"{path}: {exc}") from exc
    comp_id = str(config.get("id", "network"))
    tol_pu = _field("tol_pu", float, config.get("tol_pu", PfOptions.tol_pu))
    comp = SimNetwork(comp_id, net, PfOptions(start="warm", tol_pu=tol_pu))
    ctx.sim.add(comp)
    ctx.networks[comp_id] = comp
    if ctx.default_network_id is None:
        ctx.default_network_id = comp_id


def plugin_time_series(config, ctx, scope):
    from_file = "input_file" in config
    _check_keys(config, ("id",) if from_file else ("id", "times", "values"),
                ("input_file", "times", "values", *_MODES))
    ctx.series[str(config["id"])] = (
        _read_series(config, ctx) if from_file
        else TimeSeries(config["times"], config["values"], **_modes(config)))


def plugin_pv_inverter(config, ctx, scope):
    """Add the inverter's generator, ``gen`` or else ``<id>_gen``, at
    ``bus`` unless the network has it, then the inverter."""
    cls, required, optional = _COMPONENTS["pv_inverter"]
    args = _arguments(config, ctx, required, optional)
    bus = args.pop("bus")
    gen_id = args.setdefault("gen_id", f"{args['id']}_gen")
    net = ctx.networks[args["network_id"]].network
    if net.gens.get(gen_id) is None:
        net.add_gen(Gen(gen_id, n_phase=1, s=0.0, cost=(0.0, 0.0, 0.0)),
                    bus=bus)
    ctx.sim.add(cls(**args))


def default_registry() -> dict:
    """Keyword -> plugin(config, ctx, scope) of every built-in keyword."""
    registry = {keyword: partial(_add_component, *spec)
                for keyword, spec in _COMPONENTS.items()}
    registry.update(parameters=plugin_parameters, simulation=plugin_simulation,
                    matpower=plugin_matpower, time_series=plugin_time_series,
                    pv_inverter=plugin_pv_inverter)
    return registry
