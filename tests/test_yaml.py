import re
import textwrap

import numpy as np
import pytest
import yaml

from gridsim.cli import main
from gridsim.core import Event, TimeSeries
from gridsim.parsers import (
    LoopSpecError,
    UnboundVariableError,
    UnknownKeywordError,
    YamlConfigError,
    YamlContext,
    YamlScope,
    apply_yaml_file,
    default_registry,
    load_yaml_file,
    loop_expand,
    substitute,
    substitute_string,
    yaml_apply,
)
from gridsim.powerflow import PfOptions
from gridsim.simlib import (
    AutoTapChanger,
    Battery,
    Building,
    Heartbeat,
    Inverter,
    PvInverter,
    SolarPv,
    TimeSeriesTapChanger,
    TimeSeriesZip,
    VoltVarController,
    Weather,
)

from conftest import DATA, GOLDEN


def _scope(**bindings):
    scope = YamlScope()
    for k, v in bindings.items():
        scope.bind(k, v)
    return scope


def test_substitute_plain_and_embedded():
    scope = _scope(name="feeder", n=7)
    assert substitute_string("<name>", scope) == "feeder"
    assert substitute_string("load_<n>", scope) == "load_7"
    assert substitute_string("no tokens", scope) == "no tokens"


def test_substitute_native_types():
    scope = _scope(n=7, xs=[1, 2, 3], f=1.5)
    # a string that is exactly one token keeps the bound value's type
    assert substitute_string("<n>", scope) == 7
    assert substitute_string("<xs>", scope) == [1, 2, 3]
    assert substitute_string("<f>", scope) == 1.5
    # embedding stringifies
    assert substitute_string("v=<f>", scope) == "v=1.5"


def test_substitute_indexed():
    scope = _scope(buses=[4, 9, 12], i=2)
    assert substitute_string("<buses(1)>", scope) == 9
    # innermost-first: the index itself may be a substitution
    assert substitute_string("<buses(<i>)>", scope) == 12
    with pytest.raises(YamlConfigError):
        substitute_string("<buses(x)>", scope)
    with pytest.raises(YamlConfigError):
        substitute_string("<buses(9)>", scope)


def test_substitute_escape():
    scope = _scope(a=1)
    assert substitute_string("<<a>", scope) == "<a>"
    assert substitute_string("<<<a>", scope) == "<1"


def test_unbound_variable():
    with pytest.raises(UnboundVariableError):
        substitute_string("<missing>", _scope())
    # non-strict mode leaves the token untouched
    assert substitute_string("<missing>", _scope(), strict=False) == "<missing>"


def test_substitute_recurses_into_structures():
    scope = _scope(i=3)
    node = {"id": "ld_<i>", "vals": ["<i>", 1, {"k": "<i>"}], "plain": True}
    assert substitute(node, scope) == {
        "id": "ld_3",
        "vals": [3, 1, {"k": 3}],
        "plain": True,
    }


def test_scope_chain():
    parent = _scope(a=1, b=2)
    child = parent.child()
    child.bind("b", 20)
    assert substitute_string("<a> <b>", child) == "1 20"
    assert substitute_string("<b>", parent) == 2


def test_loop_expand_basic():
    scope = _scope()
    node = {
        "loop_variable": ["i", 0, 3, 1],
        "loop_body": [{"heartbeat": {"id": "hb_<i>", "interval_s": 10}}],
    }
    out = loop_expand(node, scope)
    assert [e["heartbeat"]["id"] for e, _ in out] == ["hb_0", "hb_1", "hb_2"]


def test_loop_expand_step_and_bounds_substitution():
    scope = _scope(n=6)
    node = {
        "loop_variable": ["k", 0, "<n>", 2],
        "loop_body": [{"x": "<k>"}],
    }
    out = loop_expand(node, scope)
    assert [e["x"] for e, _ in out] == [0, 2, 4]


def test_loop_spec_errors():
    scope = _scope()
    with pytest.raises(LoopSpecError):
        loop_expand({"loop_body": []}, scope)
    with pytest.raises(LoopSpecError):
        loop_expand({"loop_variable": ["i", 0, 3], "loop_body": []}, scope)
    with pytest.raises(LoopSpecError):
        loop_expand(
            {"loop_variable": ["i", 0, 3, 0], "loop_body": []}, scope
        )
    with pytest.raises(LoopSpecError):
        loop_expand(
            {"loop_variable": ["i", 0, 3, 1], "loop_body": {"a": 1}}, scope
        )
    with pytest.raises(LoopSpecError):
        loop_expand(
            {"loop_variable": [3, 0, 3, 1], "loop_body": []}, scope
        )


def test_loop_golden_expansion():
    # the distributed-generation demo's second loop must unroll exactly to
    # the frozen fragment
    doc = load_yaml_file(DATA / "pvdemo" / "pvdemo_ieee57.yaml")
    scope = YamlScope()
    params = next(e["parameters"] for e in doc if "parameters" in e)
    for k, v in params.items():
        scope.bind(k, v)
    loops = [e["loop"] for e in doc if "loop" in e]
    pv_loop = loops[1]
    expanded = [entry for entry, _ in loop_expand(pv_loop, scope)]
    golden = yaml.safe_load((GOLDEN / "pvdemo_loop_expanded.yaml").read_text())
    assert expanded == golden


def test_yaml_apply_dispatch_order_and_errors():
    seen = []
    registry = {"alpha": lambda cfg, ctx, scope: seen.append(("a", cfg)),
                "beta": lambda cfg, ctx, scope: seen.append(("b", cfg))}
    ctx = YamlContext()
    yaml_apply([{"alpha": 1}, {"beta": 2}, {"alpha": 3}], registry, ctx)
    assert seen == [("a", 1), ("b", 2), ("a", 3)]
    with pytest.raises(UnknownKeywordError):
        yaml_apply([{"gamma": 1}], registry, ctx)
    with pytest.raises(YamlConfigError):
        yaml_apply({"alpha": 1}, registry, ctx)  # not a sequence
    with pytest.raises(YamlConfigError):
        yaml_apply([{"alpha": 1, "beta": 2}], registry, ctx)  # two keys


def test_yaml_apply_loop_entries():
    seen = []
    registry = {"item": lambda cfg, ctx, scope: seen.append(cfg["id"])}
    doc = [
        {
            "loop": {
                "loop_variable": ["i", 0, 2, 1],
                "loop_body": [{"item": {"id": "x_<i>"}}],
            }
        }
    ]
    yaml_apply(doc, registry, YamlContext())
    assert seen == ["x_0", "x_1"]


@pytest.mark.parametrize("bindings", [{}, {"b": 5}], ids=["unbound", "bound"])
def test_a_literal_angle_bracket_reads_the_same_inside_a_loop(bindings):
    seen = []
    registry = {"item": lambda cfg, ctx, scope: seen.append(cfg["text"])}
    ctx = YamlContext()
    for name, value in bindings.items():
        ctx.scope.bind(name, value)
    entries = [{"item": {"text": "a<<b>"}}, {"item": {"text": "a<<b>_<i>"}}]
    loop = {"loop_variable": ["i", 0, 1, 1], "loop_body": entries}
    yaml_apply([entries[0], {"loop": loop}], registry, ctx)
    # "<<" is a literal "<" wherever it is written; "b" is never read
    assert seen == ["a<b>", "a<b>", "a<b>_0"]


def test_plugin_exceptions_are_wrapped():
    def boom(cfg, ctx, scope):
        raise RuntimeError("inner failure")

    with pytest.raises(YamlConfigError, match="inner failure"):
        yaml_apply([{"boom": {}}], {"boom": boom}, YamlContext())


SIM_DOC = textwrap.dedent(
    """
    - parameters:
        span: 3600
    - simulation:
        start_time: 0
        end_time: <span>
    - heartbeat:
        id: hb
        interval_s: 600
    """
)
NET_DOC = textwrap.dedent(
    f"""
    - simulation:
        start_time: 0
        end_time: 10
    - matpower:
        input_file: {DATA / 'cases' / 'case14.m'}
        id: grid
    """
)


def test_parameters_and_simulation_plugins(tmp_path):
    path = tmp_path / "sim.yaml"
    path.write_text(SIM_DOC)
    ctx = apply_yaml_file(path)
    assert ctx.sim.start_time == 0.0
    assert ctx.sim.end_time == 3600.0
    assert ctx.sim_configured
    assert ctx.sim.components.get("hb") is not None


def test_matpower_plugin_builds_network(tmp_path):
    path = tmp_path / "net.yaml"
    path.write_text(NET_DOC)
    ctx = apply_yaml_file(path)
    assert ctx.default_network_id == "grid"
    assert len(ctx.networks["grid"].network.buses) == 14


def test_registry_default_keywords_complete():
    kws = default_registry()
    for expected in (
        "parameters", "simulation", "matpower", "time_series",
        "time_series_zip", "weather", "solar_pv", "battery", "inverter",
        "pv_inverter", "heartbeat", "auto_tap_changer", "tap_changer_series",
        "building", "volt_var_controller",
    ):
        assert expected in kws


@pytest.mark.parametrize("entry", [
    {"weather": {"id": "w", "temperature_series": "nope"}},
    {"time_series_zip": {"id": "d", "zip": "load_3", "series": "nope"}},
    {"tap_changer_series": {"id": "t", "branch": "branch_0_1_2",
                            "series": "nope"}},
    {"loop": {"loop_variable": ["i", 0, 2, 1], "loop_body": [
        {"time_series": {"id": "s_<i>", "times": [0], "values": [1.0]}},
        {"weather": {"id": "w_<i>", "temperature_series": "nope"}},
    ]}},
])
def test_unknown_series_error_names_the_id_and_the_entry(entry):
    # in the loop, the second body entry fails on the first pass
    path = (2, 0, 1) if "loop" in entry else (2,)
    doc = [
        {"matpower": {"input_file": str(DATA / "cases" / "case3.m")}},
        {"time_series": {"id": "known", "times": [0], "values": [1.0]}},
        entry,
    ]
    with pytest.raises(YamlConfigError) as err:
        yaml_apply(doc, default_registry(), YamlContext())
    assert err.value.path == path
    assert str(err.value).startswith("/".join(map(str, path)) + ": ")
    assert "unknown time series 'nope'" in str(err.value)


@pytest.mark.parametrize("c_loader", [True, False], ids=["libyaml", "python"])
def test_load_yaml_file_reads_as_safe_load(tmp_path, monkeypatch, c_loader):
    # every document the repo ships or tests loads to the same objects, and
    # without libyaml a file still loads and a fault is still placed
    if not c_loader:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    paths = [DATA / "pvdemo" / "pvdemo_ieee57.yaml",
             GOLDEN / "pvdemo_loop_expanded.yaml"]
    for name, doc in (("sim.yaml", SIM_DOC), ("net.yaml", NET_DOC)):
        paths.append(tmp_path / name)
        paths[-1].write_text(doc)
    for path in paths:
        assert repr(load_yaml_file(path)) == repr(yaml.safe_load(path.read_text()))
    broken = tmp_path / "broken.yaml"
    broken.write_text("- simulation:\n    end_time: [1\n- heartbeat:\n    id: hb\n")
    with pytest.raises(YamlConfigError,
                       match=f"^{re.escape(str(broken))}: line 3, column 12: "):
        load_yaml_file(broken)


# -- every component keyword, every key ------------------------------------

LD_CSV = "# time,p,q\n0,1.0,0.5\n600,2.0,1.0\n"
CASE3 = str(DATA / "cases" / "case3.m")


def _prefix(tmp_path):
    """A network and two named series for the entries under test."""
    (tmp_path / "ld.csv").write_text(LD_CSV)
    return [
        {"matpower": {"input_file": CASE3, "id": "grid", "tol_pu": 1e-7}},
        {"time_series": {"id": "ld", "times": [0, 600],
                         "values": [[1.0, 0.5], [2.0, 1.0]],
                         "interpolation": "linear", "out_of_range": "error"}},
        {"time_series": {"id": "temp", "times": [0, 600],
                         "values": [10.0, 20.0]}},
    ]


# keyword, entry with every key set, and the direct constructor call it
# stands for; (ctx, csv) -> component.  The `series` form and the
# `input_file` form of a series between them set every series key.
EVERY_KEY = [
    ("time_series_zip",
     {"id": "z", "network": "grid", "zip": "load_3", "series": "ld",
      "units": "pu", "scale": 2, "resample_interval_s": 300},
     lambda ctx, csv: TimeSeriesZip("z", "grid", "load_3", ctx.series["ld"],
                                    units="pu", scale=2.0,
                                    resample_interval_s=300.0)),
    ("time_series_zip",
     {"id": "z", "network": "grid", "zip": "load_3", "input_file": "ld.csv",
      "interpolation": "linear", "out_of_range": "error", "units": "MW",
      "scale": 0.5, "resample_interval_s": 60},
     lambda ctx, csv: TimeSeriesZip(
         "z", "grid", "load_3", TimeSeries.from_csv(csv, "linear", "error"),
         units="MW", scale=0.5, resample_interval_s=60.0)),
    ("weather",
     {"id": "w", "latitude_deg": 35, "longitude_deg": 1.5,
      "temperature_c": 20, "cloud_cover": 0.1, "cloud_exponent": 2,
      "update_interval_s": 300, "temperature_series": "temp",
      "cloud_series": "temp"},
     lambda ctx, csv: Weather(
         "w", latitude_deg=35.0, longitude_deg=1.5, temperature_c=20.0,
         cloud_cover=0.1, cloud_exponent=2.0, update_interval_s=300.0,
         temperature_series=ctx.series["temp"],
         cloud_series=ctx.series["temp"])),
    ("solar_pv",
     {"id": "p", "weather": "w", "efficiency": 0.2, "area_m2": 100,
      "zenith_degrees": 10, "azimuth_degrees": 170},
     lambda ctx, csv: SolarPv("p", "w", area_m2=100.0, efficiency=0.2,
                              zenith_degrees=10.0, azimuth_degrees=170.0)),
    ("battery",
     {"id": "b", "capacity_kwh": 10, "charge_kwh": 4, "max_charge_kw": 3,
      "max_discharge_kw": 2, "eta_charge": 0.9, "eta_discharge": 0.8,
      "update_interval_s": 60},
     lambda ctx, csv: Battery("b", 10.0, charge_kwh=4.0, max_charge_kw=3.0,
                              max_discharge_kw=2.0, eta_charge=0.9,
                              eta_discharge=0.8, update_interval_s=60.0)),
    ("inverter",
     {"id": "i", "sources": ["p", "b"], "efficiency": 0.95, "s_max_kva": 5},
     lambda ctx, csv: Inverter("i", ("p", "b"), efficiency=0.95,
                               s_max_kva=5.0)),
    ("pv_inverter",
     {"id": "v", "network": "grid", "bus": 3, "gen": "g", "sources": ["p"],
      "q_mode": "setpoint", "efficiency": 0.97, "s_max_kva": 50,
      "power_factor": 0.9, "q_setpoint_kvar": 5, "update_interval_s": 300},
     lambda ctx, csv: PvInverter(
         "v", "grid", "g", source_ids=("p",), efficiency=0.97, s_max_kva=50.0,
         q_mode="setpoint", power_factor=0.9, q_setpoint_kvar=5.0,
         update_interval_s=300.0)),
    ("heartbeat",
     {"id": "h", "interval_s": 30},
     lambda ctx, csv: Heartbeat("h", 30.0)),
    ("auto_tap_changer",
     {"id": "a", "network": "grid", "branch": "branch_1_1_3",
      "monitored_bus": 3, "v_ref_pu": 1.01, "deadband_pu": 0.02,
      "tap_step": 0.01, "tap_min": 0.95, "tap_max": 1.05, "delay_s": 10},
     lambda ctx, csv: AutoTapChanger(
         "a", "grid", "branch_1_1_3", "3", v_ref_pu=1.01, deadband_pu=0.02,
         tap_step=0.01, tap_min=0.95, tap_max=1.05, delay_s=10.0)),
    ("tap_changer_series",
     {"id": "t", "network": "grid", "branch": "branch_1_1_3",
      "series": "temp"},
     lambda ctx, csv: TimeSeriesTapChanger("t", "grid", "branch_1_1_3",
                                           ctx.series["temp"])),
    ("tap_changer_series",
     {"id": "t", "network": "grid", "branch": "branch_1_1_3",
      "input_file": "ld.csv", "interpolation": "linear",
      "out_of_range": "clamp"},
     lambda ctx, csv: TimeSeriesTapChanger(
         "t", "grid", "branch_1_1_3",
         TimeSeries.from_csv(csv, "linear", "clamp"))),
    ("building",
     {"id": "bl", "weather": "w", "r_deg_per_kw": 2, "c_kwh_per_deg": 3,
      "t_initial_c": 18, "hvac_thermal_kw": 4, "cop": 2.5, "q_gain_kw": 0.5,
      "t_set_c": 21, "t_deadband_c": 2, "update_interval_s": 120,
      "zip": "load_3", "network": "grid"},
     lambda ctx, csv: Building(
         "bl", "w", r_deg_per_kw=2.0, c_kwh_per_deg=3.0, t_initial_c=18.0,
         hvac_thermal_kw=4.0, cop=2.5, q_gain_kw=0.5, t_set_c=21.0,
         t_deadband_c=2.0, network_id="grid", zip_id="load_3",
         update_interval_s=120.0)),
    ("volt_var_controller",
     {"id": "c", "network": "grid", "inverters": ["v", "u"],
      "interval_s": 300, "v_min_pu": 0.95, "v_max_pu": 1.05,
      "margin_pu": 0.001, "slack_weight": 100},
     lambda ctx, csv: VoltVarController(
         "c", "grid", ("v", "u"), interval_s=300.0, v_min_pu=0.95,
         v_max_pu=1.05, margin_pu=0.001, slack_weight=100.0)),
]


def _state(obj):
    """What a component holds once made, by value and type: events and the
    link to its simulation aside, a time series by its knots and modes."""
    out = {}
    for key, value in vars(obj).items():
        if isinstance(value, Event) or key == "_sim":
            continue
        if isinstance(value, TimeSeries):
            value = {k: v.tolist() if isinstance(v, np.ndarray) else v
                     for k, v in vars(value).items()}
        out[key] = (type(value).__name__, value)
    return out


@pytest.mark.parametrize("keyword, config, make", EVERY_KEY,
                         ids=[f"{kw}-{i}" for i, (kw, _, _) in
                              enumerate(EVERY_KEY)])
def test_every_key_reaches_the_constructor(tmp_path, keyword, config, make):
    ctx = YamlContext(base_dir=tmp_path)
    yaml_apply(_prefix(tmp_path) + [{keyword: config}], default_registry(),
               ctx)
    assert ctx.networks["grid"].pf_options == PfOptions(start="warm",
                                                       tol_pu=1e-7)
    built = ctx.sim.get(config["id"])
    assert _state(built) == _state(make(ctx, tmp_path / "ld.csv"))
    if keyword == "pv_inverter":
        gen = ctx.networks["grid"].network.gens.get("g")
        assert gen.terminal.bus_id == "3" and gen.cost == (0.0, 0.0, 0.0)


def test_a_scenario_with_integer_ids_runs(tmp_path):
    doc = [
        {"simulation": {"start_time": 0, "end_time": 1200}},
        {"matpower": {"input_file": CASE3, "id": 1}},
        {"weather": {"id": 2, "update_interval_s": 600}},
        {"solar_pv": {"id": 3, "weather": 2, "efficiency": 0.2,
                      "area_m2": 1000}},
        {"pv_inverter": {"id": 4, "network": 1, "bus": 3, "gen": 5,
                         "sources": [3], "q_mode": "opf-controlled"}},
        {"auto_tap_changer": {"id": 6, "network": 1, "branch": "branch_1_1_3",
                              "monitored_bus": 3}},
        {"building": {"id": 7, "weather": 2, "r_deg_per_kw": 2,
                      "c_kwh_per_deg": 3, "network": 1, "zip": "load_3"}},
        {"volt_var_controller": {"id": 8, "network": 1, "inverters": [4]}},
    ]
    ctx = YamlContext()
    yaml_apply(doc, default_registry(), ctx)
    ctx.sim.initialize()
    ctx.sim.run()
    assert ctx.sim.current_time == 1200
    assert sorted(str(comp.id) for comp in ctx.sim.components) == [
        "1", "2", "3", "4", "6", "7", "8"]


# -- each keyword takes a fixed set of keys --------------------------------

# a valid entry after _prefix for each keyword but parameters: the first of
# EVERY_KEY's, and a few more
VALID = {kw: config for kw, config, _ in reversed(EVERY_KEY)}
VALID.update({
    "simulation": {"start_time": 0, "end_time": 10},
    "matpower": {"input_file": CASE3, "id": "grid2"},
    "time_series": {"id": "s", "times": [0], "values": [1.0]},
    "loop": {"loop_variable": ["i", 0, 1, 1], "loop_body": []},
})
REQUIRED = {
    "simulation": ("start_time", "end_time"),
    "matpower": ("input_file",),
    "time_series": ("id", "times", "values"),
    "time_series_zip": ("id", "zip"),
    "weather": ("id",),
    "solar_pv": ("id", "weather", "efficiency", "area_m2"),
    "battery": ("id", "capacity_kwh"),
    "inverter": ("id",),
    "pv_inverter": ("id", "bus"),
    "heartbeat": ("id", "interval_s"),
    "auto_tap_changer": ("id", "branch", "monitored_bus"),
    "tap_changer_series": ("id", "branch"),
    "building": ("id", "weather", "r_deg_per_kw", "c_kwh_per_deg"),
    "volt_var_controller": ("id", "inverters"),
    "loop": ("loop_variable", "loop_body"),
}


def _apply_after_prefix(tmp_path, keyword, config):
    yaml_apply(_prefix(tmp_path) + [{keyword: config}], default_registry(),
               YamlContext(base_dir=tmp_path))


def test_every_keyword_is_covered():
    keywords = set(default_registry()) - {"parameters"} | {"loop"}
    assert set(VALID) == set(REQUIRED) == keywords


@pytest.mark.parametrize("keyword", sorted(VALID))
def test_an_unknown_key_names_the_entry_the_keyword_and_the_key(
        tmp_path, keyword):
    config = VALID[keyword]
    _apply_after_prefix(tmp_path, keyword, config)
    with pytest.raises(YamlConfigError) as err:
        _apply_after_prefix(tmp_path, keyword, {**config, "no_such_key": 1})
    assert str(err.value) == f"3: {keyword}: unknown field 'no_such_key'"


@pytest.mark.parametrize("keyword, key", [
    (keyword, key) for keyword in sorted(REQUIRED) for key in REQUIRED[keyword]])
def test_a_missing_required_key_is_named(tmp_path, keyword, key):
    config = {k: v for k, v in VALID[keyword].items() if k != key}
    with pytest.raises(YamlConfigError) as err:
        _apply_after_prefix(tmp_path, keyword, config)
    if keyword == "loop":
        assert str(err.value) == "3: loop needs loop_variable and loop_body"
    else:
        assert str(err.value) == f"3: {keyword}: missing required field {key!r}"


@pytest.mark.parametrize("keyword, key, value, message", [
    ("inverter", "sources", 7, "expected a list of ids, got 7"),
    ("pv_inverter", "sources", "p", "expected a list of ids, got 'p'"),
    ("solar_pv", "efficiency", "abc",
     "could not convert string to float: 'abc'"),
    ("matpower", "tol_pu", "x", "could not convert string to float: 'x'"),
    ("simulation", "start_time", float("-inf"), "must be finite, got -inf"),
    ("simulation", "end_time", "soon",
     "Invalid isoformat string: 'soon'"),
    ("time_series", "times", [0, "abc"],
     "invalid literal for int() with base 10: 'abc'"),
    ("time_series", "times", [0, 600.7], "non-integer timestamp: 600.7"),
    ("battery", "update_interval_s", float("inf"), "must be finite, got inf"),
])
def test_a_rejected_value_names_its_key(tmp_path, keyword, key, value,
                                        message):
    with pytest.raises(YamlConfigError) as err:
        _apply_after_prefix(tmp_path, keyword, {**VALID[keyword], key: value})
    assert str(err.value) == f"3: {keyword}: field {key!r}: {message}"


@pytest.mark.parametrize("text, message", [
    ("- simulation:\n    start_time: 0\n    end_time: .nan\n",
     "0: simulation: field 'end_time': must be finite, got nan"),
    ("- simulation:\n    start_time: 0\n    end_time: .inf\n",
     "0: simulation: field 'end_time': must be finite, got inf"),
    (f"- matpower:\n    input_file: {CASE3}\n- volt_var_controller:\n"
     "    id: vvc\n    inverters: inv_3\n",
     "1: volt_var_controller: field 'inverters': expected a list of ids, "
     "got 'inv_3'"),
    ("- simulation:\n    start_time: 0\n    end_time: 3600\n- heartbeat:\n"
     "    id: hb\n    interval_s: .nan\n",
     "1: heartbeat: field 'interval_s': must be finite, got nan"),
], ids=["nan-end", "inf-end", "bare-id", "nan-interval"])
def test_a_rejected_value_exits_1(tmp_path, capsys, text, message):
    # an end time of NaN or infinity would run forever; a bare id where a
    # list belongs was split into characters; a NaN interval was caught
    # only once scheduled, naming neither the entry nor the key
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    assert main(["sim", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_removed_key_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "capped.yaml"
    path.write_text("- simulation:\n    start_time: 0\n    end_time: 60\n"
                    "    contingent_round_cap: 10\n")
    assert main(["sim", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: 0: simulation: unknown field 'contingent_round_cap'\n")


@pytest.mark.parametrize("doc, message", [
    ([{"building": {"id": "b", "weather": "w", "r_deg_per_kw": 2,
                    "c_kwh_per_deg": 3, "network": "grid"}}],
     "1: building: field 'network' needs 'zip'"),
    ([{"time_series_zip": {"id": "z", "zip": "load_3", "series": "ld"}}],
     "1: time_series_zip: needs a network, but no `matpower` entry comes "
     "before it"),
    ([{"matpower": {"input_file": CASE3, "id": "grid"}},
      {"auto_tap_changer": {"id": "a", "network": "grod",
                            "branch": "branch_1_1_3", "monitored_bus": 3}}],
     "2: auto_tap_changer: no network component 'grod'"),
], ids=["network-without-device", "no-matpower", "unknown-network"])
def test_a_network_error_names_the_keyword(doc, message):
    series = {"time_series": {"id": "ld", "times": [0], "values": [[1.0, 0.5]]}}
    with pytest.raises(YamlConfigError) as err:
        yaml_apply([series] + doc, default_registry(), YamlContext())
    assert str(err.value) == message


def test_ids_read_as_strings():
    doc = [{"matpower": {"input_file": CASE3, "id": 1}},
           {"time_series": {"id": 2, "times": [0], "values": [20.0]}},
           {"weather": {"id": 3, "temperature_series": 2}},
           {"pv_inverter": {"id": 4, "network": 1, "bus": 3, "gen": 5,
                            "sources": [6]}}]
    ctx = YamlContext()
    yaml_apply(doc, default_registry(), ctx)
    assert sorted(comp.id for comp in ctx.sim.components) == ["1", "3", "4"]
    assert ctx.sim.get("3").temperature_series is ctx.series["2"]
    inverter = ctx.sim.get("4")
    assert (inverter.network_id, inverter.gen_id, inverter.source_ids) == (
        "1", "5", ("6",))
    assert ctx.networks["1"].network.gens.get("5").terminal.bus_id == "3"
