import re
import textwrap

import pytest
import yaml

from gridsim.parsers import (
    LoopSpecError,
    ParserRegistry,
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
    registry = ParserRegistry()
    seen = []
    registry.register("alpha", lambda cfg, ctx, scope: seen.append(("a", cfg)))
    registry.register("beta", lambda cfg, ctx, scope: seen.append(("b", cfg)))
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
    registry = ParserRegistry()
    seen = []
    registry.register("item", lambda cfg, ctx, scope: seen.append(cfg["id"]))
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
    registry = ParserRegistry()
    seen = []
    registry.register("item", lambda cfg, ctx, scope: seen.append(cfg["text"]))
    ctx = YamlContext()
    for name, value in bindings.items():
        ctx.scope.bind(name, value)
    entries = [{"item": {"text": "a<<b>"}}, {"item": {"text": "a<<b>_<i>"}}]
    loop = {"loop_variable": ["i", 0, 1, 1], "loop_body": entries}
    yaml_apply([entries[0], {"loop": loop}], registry, ctx)
    # "<<" is a literal "<" wherever it is written; "b" is never read
    assert seen == ["a<b>", "a<b>", "a<b>_0"]


def test_plugin_exceptions_are_wrapped():
    registry = ParserRegistry()

    def boom(cfg, ctx, scope):
        raise RuntimeError("inner failure")

    registry.register("boom", boom)
    with pytest.raises(YamlConfigError, match="inner failure"):
        yaml_apply([{"boom": {}}], registry, YamlContext())


def test_duplicate_keyword_registration_rejected():
    registry = ParserRegistry()
    registry.register("x", lambda *a: None)
    with pytest.raises(YamlConfigError):
        registry.register("x", lambda *a: None)
    assert "x" in registry.keywords()


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
    kws = default_registry().keywords()
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
