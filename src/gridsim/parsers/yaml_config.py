"""YAML-driven configuration: plugin registry, substitution, loop expansion.

A configuration document is a sequence of single-key maps.  Each key names
a registered plugin which consumes the entry's value and mutates the build
context (network, simulation, shared scope).  Strings may reference scope
variables with single angle brackets — ``<name>`` or indexed
``<arr(<i>)>`` — resolved innermost-first; a literal ``<`` is written
``<<``.  A ``loop`` entry replicates its body over a half-open integer
range (start inclusive, stop exclusive).
"""

from __future__ import annotations

import re
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


class ParserRegistry:
    """Keyword -> plugin mapping; unknown keywords are hard errors."""

    def __init__(self):
        self._plugins: dict[str, object] = {}

    def register(self, keyword: str, plugin) -> None:
        if keyword in self._plugins:
            raise YamlConfigError(f"keyword {keyword!r} already registered")
        self._plugins[keyword] = plugin

    def get(self, keyword: str, path=()):
        try:
            return self._plugins[keyword]
        except KeyError:
            raise UnknownKeywordError(
                f"unknown configuration keyword {keyword!r}", path
            ) from None

    def keywords(self):
        return sorted(self._plugins)


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

    def network(self, network_id=None, path=()) -> SimNetwork:
        nid = network_id or self.default_network_id
        if nid is None or nid not in self.networks:
            raise YamlConfigError(f"no network component {nid!r}", path)
        return self.networks[nid]

    def resolve_path(self, p) -> Path:
        p = Path(p)
        return p if p.is_absolute() else self.base_dir / p


def yaml_apply(doc, registry: ParserRegistry, ctx: YamlContext,
               scope: YamlScope | None = None, path=()) -> None:
    """Dispatch each document entry to its plugin, in document order."""
    if not isinstance(doc, list):
        raise YamlConfigError("configuration must be a sequence of entries", path)
    scope = scope or ctx.scope
    for i, entry in enumerate(doc):
        _apply_entry(entry, registry, ctx, scope, tuple(path) + (i,))


def _apply_entry(entry, registry: ParserRegistry, ctx: YamlContext,
                 scope: YamlScope, entry_path: tuple) -> None:
    """Apply one entry; an entry a loop produces has the path (loop's
    path, iteration, body index)."""
    if not isinstance(entry, dict) or len(entry) != 1:
        raise YamlConfigError("each entry must be a single-key map", entry_path)
    (keyword, config), = entry.items()
    if keyword == "loop":
        expanded = loop_expand(config, scope, entry_path)
        for k, (sub_entry, child) in enumerate(expanded):
            _apply_entry(sub_entry, registry, ctx, child,
                         entry_path + divmod(k, len(config["loop_body"])))
        return
    plugin = registry.get(keyword, entry_path)
    config = substitute(config, scope, strict=True, path=entry_path)
    try:
        plugin(config, ctx, scope)
    except YamlConfigError as exc:
        if exc.path:
            raise
        raise type(exc)(str(exc), entry_path) from exc
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


# -- built-in plugins -------------------------------------------------------


def _require(config, keys, keyword):
    for key in keys:
        if key not in config:
            raise YamlConfigError(f"{keyword}: missing required field {key!r}")


def _present(config, keys, convert=float) -> dict:
    """The ``keys`` that ``config`` sets, converted; the constructor they
    go to holds the default of every other."""
    return {key: convert(config[key]) for key in keys if key in config}


def _series_for(config, ctx, keyword, key="series"):
    """The time series ``config[key]`` names, or else the one read from
    ``config["input_file"]``."""
    if key in config:
        sid = config[key]
        if sid not in ctx.series:
            raise YamlConfigError(f"{keyword}: unknown time series {sid!r}")
        return ctx.series[sid]
    if "input_file" in config:
        return TimeSeries.from_csv(
            ctx.resolve_path(config["input_file"]),
            **_present(config, ("interpolation", "out_of_range"), str),
        )
    raise YamlConfigError(f"{keyword}: needs `{key}` or `input_file`")


def _time_value(value):
    if isinstance(value, (int, float)):
        return float(value)
    return float(parse_time(value))


def plugin_parameters(config, ctx, scope):
    if not isinstance(config, dict):
        raise YamlConfigError("parameters: expected a mapping")
    for name, value in config.items():
        scope.bind(str(name), value)


def plugin_simulation(config, ctx, scope):
    _require(config, ("start_time", "end_time"), "simulation")
    ctx.sim.start_time = _time_value(config["start_time"])
    ctx.sim.end_time = _time_value(config["end_time"])
    ctx.sim.current_time = ctx.sim.start_time
    ctx.sim_configured = True


def plugin_matpower(config, ctx, scope):
    _require(config, ("input_file",), "matpower")
    path = ctx.resolve_path(config["input_file"])
    try:
        net, _case = load_network(path)
    except ValueError as exc:       # name the case file, as `gridsim pf` does
        raise ValueError(f"{path}: {exc}") from exc
    comp_id = config.get("id", "network")
    comp = SimNetwork(comp_id, net,
                      PfOptions(start="warm", **_present(config, ("tol_pu",))))
    ctx.sim.add(comp)
    ctx.networks[comp_id] = comp
    if ctx.default_network_id is None:
        ctx.default_network_id = comp_id


def plugin_time_series(config, ctx, scope):
    _require(config, ("id",), "time_series")
    if "input_file" in config:
        series = _series_for(config, ctx, "time_series")
    else:
        _require(config, ("times", "values"), "time_series")
        series = TimeSeries(
            config["times"], config["values"],
            **_present(config, ("interpolation", "out_of_range"), str),
        )
    ctx.series[config["id"]] = series


def plugin_time_series_zip(config, ctx, scope):
    _require(config, ("id", "zip"), "time_series_zip")
    net = ctx.network(config.get("network"))
    ctx.sim.add(TimeSeriesZip(
        config["id"], net.id, config["zip"],
        _series_for(config, ctx, "time_series_zip"),
        **_present(config, ("units",), str),
        **_present(config, ("scale", "resample_interval_s")),
    ))


def plugin_weather(config, ctx, scope):
    _require(config, ("id",), "weather")
    kwargs = _present(config, ("latitude_deg", "longitude_deg", "temperature_c",
                               "cloud_cover", "cloud_exponent",
                               "update_interval_s"))
    for key in ("temperature_series", "cloud_series"):
        if key in config:
            kwargs[key] = _series_for(config, ctx, "weather", key)
    ctx.sim.add(Weather(config["id"], **kwargs))


def plugin_solar_pv(config, ctx, scope):
    _require(config, ("id", "weather", "efficiency", "area_m2"), "solar_pv")
    ctx.sim.add(SolarPv(
        config["id"], config["weather"],
        area_m2=float(config["area_m2"]),
        efficiency=float(config["efficiency"]),
        **_present(config, ("zenith_degrees", "azimuth_degrees")),
    ))


def plugin_battery(config, ctx, scope):
    _require(config, ("id", "capacity_kwh"), "battery")
    ctx.sim.add(Battery(
        config["id"], float(config["capacity_kwh"]),
        **_present(config, ("charge_kwh", "max_charge_kw", "max_discharge_kw",
                            "eta_charge", "eta_discharge", "update_interval_s")),
    ))


def plugin_inverter(config, ctx, scope):
    _require(config, ("id",), "inverter")
    ctx.sim.add(Inverter(
        config["id"], tuple(config.get("sources", ())),
        **_present(config, ("efficiency", "s_max_kva")),
    ))


def plugin_pv_inverter(config, ctx, scope):
    _require(config, ("id", "bus"), "pv_inverter")
    net = ctx.network(config.get("network"))
    gen_id = config.get("gen", f"{config['id']}_gen")
    if net.network.gens.get(gen_id) is None:
        net.network.add_gen(
            Gen(gen_id, n_phase=1, s=0.0, cost=(0.0, 0.0, 0.0)),
            bus=str(config["bus"]),
        )
    ctx.sim.add(PvInverter(
        config["id"], net.id, gen_id,
        source_ids=tuple(config.get("sources", ())),
        **_present(config, ("q_mode",), str),
        **_present(config, ("efficiency", "s_max_kva", "power_factor",
                            "q_setpoint_kvar", "update_interval_s")),
    ))


def plugin_heartbeat(config, ctx, scope):
    _require(config, ("id", "interval_s"), "heartbeat")
    ctx.sim.add(Heartbeat(config["id"], float(config["interval_s"])))


def plugin_auto_tap_changer(config, ctx, scope):
    _require(config, ("id", "branch", "monitored_bus"), "auto_tap_changer")
    net = ctx.network(config.get("network"))
    ctx.sim.add(AutoTapChanger(
        config["id"], net.id, str(config["branch"]),
        str(config["monitored_bus"]),
        **_present(config, ("v_ref_pu", "deadband_pu", "tap_step", "tap_min",
                            "tap_max", "delay_s")),
    ))


def plugin_tap_changer_series(config, ctx, scope):
    _require(config, ("id", "branch"), "tap_changer_series")
    net = ctx.network(config.get("network"))
    ctx.sim.add(TimeSeriesTapChanger(
        config["id"], net.id, str(config["branch"]),
        _series_for(config, ctx, "tap_changer_series"),
    ))


def plugin_building(config, ctx, scope):
    _require(config, ("id", "weather", "r_deg_per_kw", "c_kwh_per_deg"),
             "building")
    kwargs = _present(config, ("t_initial_c", "hvac_thermal_kw", "cop",
                               "q_gain_kw", "t_set_c", "t_deadband_c",
                               "update_interval_s"))
    if "zip" in config:
        net = ctx.network(config.get("network"))
        kwargs["network_id"] = net.id
        kwargs["zip_id"] = config["zip"]
    ctx.sim.add(Building(
        config["id"], config["weather"],
        r_deg_per_kw=float(config["r_deg_per_kw"]),
        c_kwh_per_deg=float(config["c_kwh_per_deg"]),
        **kwargs,
    ))


def plugin_volt_var_controller(config, ctx, scope):
    _require(config, ("id", "inverters"), "volt_var_controller")
    net = ctx.network(config.get("network"))
    ctx.sim.add(VoltVarController(
        config["id"], net.id, tuple(config["inverters"]),
        **_present(config, ("interval_s", "v_min_pu", "v_max_pu", "margin_pu",
                            "slack_weight")),
    ))


def default_registry() -> ParserRegistry:
    registry = ParserRegistry()
    registry.register("parameters", plugin_parameters)
    registry.register("simulation", plugin_simulation)
    registry.register("matpower", plugin_matpower)
    registry.register("time_series", plugin_time_series)
    registry.register("time_series_zip", plugin_time_series_zip)
    registry.register("weather", plugin_weather)
    registry.register("solar_pv", plugin_solar_pv)
    registry.register("battery", plugin_battery)
    registry.register("inverter", plugin_inverter)
    registry.register("pv_inverter", plugin_pv_inverter)
    registry.register("heartbeat", plugin_heartbeat)
    registry.register("auto_tap_changer", plugin_auto_tap_changer)
    registry.register("tap_changer_series", plugin_tap_changer_series)
    registry.register("building", plugin_building)
    registry.register("volt_var_controller", plugin_volt_var_controller)
    return registry
