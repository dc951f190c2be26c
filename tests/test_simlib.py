import copy
import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from gridsim.core import TimeSeries
from gridsim.opf import kkt_residual, opf_build, voltage_slack_extension
from gridsim.network import Branch, Bus, CommonBranch, Gen, Network, Zip
from gridsim.parsers import apply_yaml_file, load_network
from gridsim.powerflow import PfOptions, model_build, solve_network
from gridsim.powerflow import solver as solver_mod
from gridsim.powerflow.pattern import FrozenCsc
from gridsim.simlib import (
    AutoTapChanger,
    Battery,
    Building,
    ChannelWriter,
    Heartbeat,
    Inverter,
    PowerFlowAbort,
    PvInverter,
    SimNetwork,
    SolarPv,
    TimeSeriesTapChanger,
    TimeSeriesZip,
    VoltVarController,
    Weather,
)
from gridsim.simlib.weather import (
    clear_sky_dni,
    cloud_attenuation,
    panel_incidence_cos,
    solar_position,
)
from gridsim.simlib import control as control_mod
from gridsim.simlib import network as simnet_mod
from gridsim.simulation import ComponentError, Simulation

from conftest import CASES, DATA
from test_powerflow import _assert_chord_steps_contract, _assert_same_model


NOON = 12 * 3600.0
MIDNIGHT = 0.0


def _grid():
    """Slack bus feeding a load bus over a tapped line."""
    net = Network(s_base_mva=100.0)
    net.add_bus(Bus("src", bus_type="SL"))
    net.add_bus(Bus("ld"))
    ys = 1.0 / (0.01 + 0.05j)
    net.add_branch(Branch("line", CommonBranch(ys, tap=1.0)), "src", "ld")
    net.add_gen(Gen("slack"), "src")
    z = Zip("load", n_phase=1)
    z.set_wye(0, s=0.4 + 0.1j)
    net.add_zip(z, "ld")
    return net


def test_heartbeat_ticks():
    sim = Simulation(0, 100)
    hb = sim.add(Heartbeat("hb", 25.0))
    sim.run()
    assert hb.tick_count == 5  # t = 0, 25, 50, 75, 100
    with pytest.raises(ValueError):
        Heartbeat("bad", 0.0)


def test_battery_charge_discharge_with_efficiency():
    bat = Battery("b", capacity_kwh=10.0, eta_charge=0.9, eta_discharge=0.8)
    got = bat.step(3600.0, 2.0)
    assert got == pytest.approx(2.0)
    assert bat.charge_kwh == pytest.approx(1.8)  # 2 kWh in, 90% stored
    got = bat.step(3600.0, -1.0)
    assert got == pytest.approx(-1.0)
    # delivering 1 kWh at 80% efficiency drains 1.25 kWh of charge
    assert bat.charge_kwh == pytest.approx(1.8 - 1.25)


def test_battery_saturation_and_events():
    bat = Battery("b", capacity_kwh=1.0, max_charge_kw=5.0)
    full_events = []
    bat.charge_full.register(lambda: full_events.append(1))
    got = bat.step(3600.0, 10.0)
    assert got == pytest.approx(1.0)  # clipped by headroom, not the 5 kW limit
    assert bat.charge_kwh == pytest.approx(1.0)
    assert full_events == [1]
    empty_events = []
    bat.charge_empty.register(lambda: empty_events.append(1))
    got = bat.step(3600.0, -10.0)
    assert got == pytest.approx(-1.0)
    assert bat.charge_kwh == pytest.approx(0.0)
    assert empty_events == [1]


def test_battery_power_limit():
    bat = Battery("b", capacity_kwh=100.0, max_charge_kw=3.0,
                  max_discharge_kw=2.0, charge_kwh=50.0)
    assert bat.step(60.0, 9.0) == pytest.approx(3.0)
    assert bat.step(60.0, -9.0) == pytest.approx(-2.0)


def test_battery_validation():
    with pytest.raises(ValueError):
        Battery("b", capacity_kwh=0.0)
    with pytest.raises(ValueError):
        Battery("b", capacity_kwh=1.0, eta_charge=1.5)
    with pytest.raises(ValueError):
        Battery("b", capacity_kwh=1.0, charge_kwh=2.0)
    with pytest.raises(ValueError):
        Battery("b", capacity_kwh=1.0).step(0.0, 1.0)


def test_battery_conservation_random_walk():
    rng = np.random.default_rng(17)
    bat = Battery("b", capacity_kwh=5.0, charge_kwh=2.0,
                  eta_charge=0.95, eta_discharge=0.9,
                  max_charge_kw=4.0, max_discharge_kw=4.0)
    energy = bat.charge_kwh
    for _ in range(2000):
        dt = float(rng.uniform(1.0, 900.0))
        p = bat.step(dt, float(rng.uniform(-6.0, 6.0)))
        dt_h = dt / 3600.0
        if p >= 0:
            energy += bat.eta_charge * p * dt_h
        else:
            energy -= (-p / bat.eta_discharge) * dt_h
        assert 0.0 - 1e-9 <= bat.charge_kwh <= bat.capacity_kwh + 1e-9
        assert bat.charge_kwh == pytest.approx(energy, abs=1e-9)


def test_solar_position_noon_overhead_at_equinox():
    # near an equinox at latitude 0 the noon sun is close to the zenith
    t_equinox = (31 + 28 + 21) * 86400.0 + NOON
    cos_z, _ = solar_position(t_equinox, 0.0, 0.0)
    assert cos_z > 0.99


def test_clear_sky_irradiance_shape():
    assert clear_sky_dni(0.0) == 0.0
    assert clear_sky_dni(-0.5) == 0.0
    overhead = clear_sky_dni(1.0)
    assert overhead == pytest.approx(1353.0 * 0.7)
    assert clear_sky_dni(0.5) < overhead


def test_cloud_attenuation_monotone():
    assert cloud_attenuation(0.0) == 1.0
    assert cloud_attenuation(1.0) == pytest.approx(0.25)
    values = [cloud_attenuation(c) for c in np.linspace(0, 1, 11)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_panel_incidence():
    # flat panel: incidence equals solar zenith projection
    assert panel_incidence_cos(0.8, 1.0, 0.0, 180.0) == pytest.approx(0.8)
    # vertical panel facing away from the sun sees nothing
    assert panel_incidence_cos(0.1, 0.0, 90.0, 180.0) == 0.0


def test_weather_day_night_cycle():
    w = Weather("wx", latitude_deg=35.0, cloud_cover=0.0)
    assert w.direct_normal(NOON) > 500.0
    assert w.direct_normal(MIDNIGHT) == 0.0
    cloudy = Weather("wx2", latitude_deg=35.0, cloud_cover=0.8)
    assert cloudy.direct_normal(NOON) < w.direct_normal(NOON)
    with pytest.raises(ValueError):
        Weather("bad", cloud_cover=1.5)


def test_weather_series_sources():
    temp = TimeSeries([0, 3600], [10.0, 20.0], interpolation="linear")
    cloud = TimeSeries([0, 3600], [0.0, 2.0], interpolation="linear")
    w = Weather("wx", temperature_series=temp, cloud_series=cloud)
    assert w.temperature(1800) == pytest.approx(15.0)
    assert w.cloud(3600) == 1.0  # clamped into [0, 1]


def test_solar_pv_output():
    sim = Simulation(0, 0)
    sim.add(Weather("wx", latitude_deg=35.0))
    pv = sim.add(SolarPv("pv", "wx", area_m2=10.0, efficiency=0.2))
    sim.initialize()
    p_noon = pv.dc_power_kw(NOON)
    # winter sun at 35 degrees latitude still yields most of the rated output
    assert 0.5 < p_noon < 10.0 * 0.2 * 1353.0 / 1000.0
    summer_noon = 171 * 86400.0 + NOON
    assert pv.dc_power_kw(summer_noon) > p_noon
    assert pv.dc_power_kw(MIDNIGHT) == 0.0
    # power scales linearly with area and efficiency
    pv2 = SolarPv("pv2", "wx", area_m2=20.0, efficiency=0.2)
    pv2.weather = pv.weather
    assert pv2.dc_power_kw(NOON) == pytest.approx(2 * p_noon)
    with pytest.raises(ValueError):
        SolarPv("bad", "wx", area_m2=10.0, efficiency=0.0)


def test_inverter_efficiency_and_ceiling():
    sim = Simulation(0, 0)
    sim.add(Weather("wx", latitude_deg=35.0))
    sim.add(SolarPv("pv", "wx", area_m2=100.0, efficiency=0.2))
    inv = sim.add(Inverter("inv", ("pv",), efficiency=0.95, s_max_kva=5.0))
    sim.initialize()
    assert inv.ac_power_kw(NOON) == pytest.approx(
        min(0.95 * sim.get("pv").dc_power_kw(NOON), 5.0)
    )
    assert inv.ac_power_kw(MIDNIGHT) == 0.0


def test_sim_network_with_time_series_zip():
    net = _grid()
    sim = Simulation(0, 1200)
    grid = sim.add(SimNetwork("grid", net, PfOptions(start="warm")))
    series = TimeSeries([0, 600, 1200], [[40.0, 10.0], [80.0, 20.0], [20.0, 5.0]])
    sim.add(TimeSeriesZip("ld_drive", "grid", "load", series))
    sim.run()
    # one solve per knot, driven by contingent updates
    assert grid.solve_count == 3
    # final state reflects the last knot (20 MW load)
    assert net.zips["load"].s_const[1, 0] == pytest.approx(0.20 + 0.05j)
    v_ld = abs(grid.node_voltage("ld"))
    assert 0.9 < v_ld < 1.0


def test_linear_time_series_zip_reaches_a_last_knot_off_its_grid():
    net = _grid()
    sim = Simulation(0, 3000)
    grid = sim.add(SimNetwork("grid", net))
    series = TimeSeries([0, 1000], [[10.0, 0.0], [20.0, 0.0]],
                        interpolation="linear")
    drive = sim.add(TimeSeriesZip("ld_drive", "grid", "load", series,
                                  resample_interval_s=600.0))
    times = []
    real = drive.update

    def update(t):
        times.append(t)
        real(t)

    drive.update = update
    sim.run()
    # resampled at 0 and 600 s, then once more at the last knot
    assert times == [0, 600, 1000]
    assert grid.solve_count == 3
    assert net.zips["load"].s_const[1, 0] == pytest.approx(0.20)


def test_sim_network_solve_failure_aborts():
    net = _grid()
    net.zips["load"].set_wye(0, s=500.0)
    sim = Simulation(0, 10)
    sim.add(SimNetwork("grid", net, PfOptions(max_iter=10)))
    with pytest.raises(PowerFlowAbort):
        sim.run()


def test_time_series_zip_dimension_check():
    net = _grid()
    sim = Simulation(0, 10)
    sim.add(SimNetwork("grid", net))
    sim.add(TimeSeriesZip("bad", "grid", "load", TimeSeries([0], [1.0])))
    with pytest.raises(Exception, match="dimension"):
        sim.initialize()


def test_time_series_tap_changer():
    net = _grid()
    sim = Simulation(0, 1200)
    grid = sim.add(SimNetwork("grid", net))
    taps = TimeSeries([0, 600], [1.0, 0.95])
    sim.add(TimeSeriesTapChanger("tap", "grid", "line", taps))
    sim.run()
    assert net.branches["line"].model.tap == pytest.approx(0.95)
    # lowering the tap raises the regulated-side voltage
    assert abs(grid.node_voltage("ld")) > 0.95


def test_auto_tap_changer_regulates_low_voltage():
    net = _grid()
    net.zips["load"].set_wye(0, s=1.5 + 0.8j)  # deep sag
    sim = Simulation(0, 600)
    grid = sim.add(SimNetwork("grid", net))
    atc = sim.add(AutoTapChanger(
        "atc", "grid", "line", "ld",
        v_ref_pu=1.0, deadband_pu=0.02, tap_step=0.0125, delay_s=30.0,
    ))
    sim.run()
    assert atc.move_count >= 1
    assert net.branches["line"].model.tap < 1.0
    # each move happened only after the delay elapsed
    assert abs(grid.node_voltage("ld")) > 0.9


def test_auto_tap_changer_respects_deadband():
    net = _grid()
    net.zips["load"].set_wye(0, s=0.05 + 0.01j)  # nearly unloaded
    sim = Simulation(0, 600)
    sim.add(SimNetwork("grid", net))
    atc = sim.add(AutoTapChanger("atc", "grid", "line", "ld",
                                 deadband_pu=0.05))
    sim.run()
    assert atc.move_count == 0
    assert net.branches["line"].model.tap == 1.0


def test_building_exponential_step_matches_closed_form():
    sim = Simulation(0, 0)
    sim.add(Weather("wx", temperature_c=0.0))
    bld = Building("house", "wx", r_deg_per_kw=5.0, c_kwh_per_deg=2.0,
                   t_initial_c=20.0)
    bld.q_hvac_kw = 0.0
    dt = 1800.0
    rc_s = 5.0 * 2.0 * 3600.0
    expect = 0.0 + (20.0 - 0.0) * math.exp(-dt / rc_s)
    bld.step(dt, 0.0)
    assert bld.t_int == pytest.approx(expect, abs=1e-12)
    # with internal gains the trajectory converges to T_ext + R*Q
    bld.q_gain_kw = 1.0
    for _ in range(1000):
        bld.step(36000.0, 0.0)
    assert bld.t_int == pytest.approx(5.0, abs=1e-9)


def test_building_thermostat_hysteresis():
    sim = Simulation(0, 0)
    sim.add(Weather("wx", temperature_c=-10.0))
    bld = Building("house", "wx", r_deg_per_kw=5.0, c_kwh_per_deg=0.5,
                   t_initial_c=18.0, hvac_thermal_kw=8.0, cop=4.0,
                   t_set_c=20.0, t_deadband_c=1.0)
    bld._thermostat()
    assert bld.q_hvac_kw == 8.0  # below band: heating
    assert bld.p_hvac_kw == pytest.approx(2.0)
    bld.t_int = 20.5  # inside band: hysteresis keeps heating
    bld._thermostat()
    assert bld.q_hvac_kw == 8.0
    bld.t_int = 21.5  # above band: cooling
    bld._thermostat()
    assert bld.q_hvac_kw == -8.0


def test_building_drives_zip_load():
    net = _grid()
    sim = Simulation(0, 1200)
    sim.add(SimNetwork("grid", net))
    sim.add(Weather("wx", temperature_c=-20.0))
    sim.add(Building(
        "house", "wx", r_deg_per_kw=2.0, c_kwh_per_deg=1.0,
        t_initial_c=10.0, hvac_thermal_kw=400.0, cop=4.0,
        network_id="grid", zip_id="load", update_interval_s=600.0,
    ))
    sim.run()
    # heating load of 100 kW appears on the ZIP (0.001 pu on 100 MVA)
    assert net.zips["load"].s_const[1, 0].real == pytest.approx(1e-3)


def test_pv_inverter_writes_gen_and_clips_q():
    net = _grid()
    net.add_gen(Gen("pv_gen", n_phase=1), "ld")
    sim = Simulation(0, 0)
    sim.add(SimNetwork("grid", net))
    sim.add(Weather("wx", latitude_deg=35.0))
    sim.add(SolarPv("pv", "wx", area_m2=5000.0, efficiency=0.2))
    inv = sim.add(PvInverter(
        "inv", "grid", "pv_gen", ("pv",), s_max_kva=500.0,
        q_mode="opf-controlled",
    ))
    sim.initialize()
    summer_noon = 171 * 86400.0 + NOON  # high sun so the DC side saturates
    assert inv.dc_input_kw(summer_noon) > 500.0
    inv.update(summer_noon)
    assert inv.p_ac_kw == pytest.approx(500.0)  # clipped at the ceiling
    assert inv.q_capability_kvar() == pytest.approx(0.0)
    inv.set_q_kvar(300.0)
    assert inv.q_ac_kvar == pytest.approx(0.0)  # no headroom at full P
    inv.p_ac_kw = 300.0
    assert inv.q_capability_kvar() == pytest.approx(400.0)
    inv.set_q_kvar(1000.0)
    assert inv.q_ac_kvar == pytest.approx(400.0)
    assert net.gens["pv_gen"].s[0] == pytest.approx((300.0 + 400.0j) / 1000.0)
    assert (net.gens["pv_gen"].q_min, net.gens["pv_gen"].q_max) == (-0.4, 0.4)
    with pytest.raises(ValueError):
        PvInverter("x", "grid", "g", q_mode="psychic")


def test_pv_inverter_q_box_states_what_its_mode_leaves_free():
    summer_noon = 171 * 86400.0 + NOON
    for mode in PvInverter.MODES:
        net = _grid()
        net.add_gen(Gen("pv_gen", n_phase=1), "ld")
        sim = Simulation(0, 0)
        sim.add(SimNetwork("grid", net))
        sim.add(Weather("wx", latitude_deg=35.0))
        sim.add(SolarPv("pv", "wx", area_m2=1000.0, efficiency=0.2))
        inv = sim.add(PvInverter(
            "inv", "grid", "pv_gen", ("pv",), s_max_kva=500.0, q_mode=mode,
            power_factor=0.95, q_setpoint_kvar=-80.0,
        ))
        sim.initialize()
        inv.update(summer_noon)
        gen = net.gens["pv_gen"]
        cap = inv.q_capability_kvar() / 1000.0
        assert 0.0 < cap < 0.5
        if mode == "opf-controlled":
            # a controller may move Q anywhere in the capability circle
            assert (gen.q_min, gen.q_max) == (-cap, cap)
        else:
            # the mode pins Q; the box says so
            assert inv.q_ac_kvar != 0.0
            assert gen.q_min == gen.q_max == gen.s[0].imag == inv.q_ac_kvar / 1000.0


def test_volt_var_controller_rejects_an_inverter_it_cannot_move():
    # only the last may be controlled: the others' Q is pinned by their mode
    # or, on the slack bus, set by the power flow
    cases = [(PvInverter, "fixed-pf", "ld"), (PvInverter, "setpoint", "ld"),
             (Inverter, None, "ld"), (PvInverter, "opf-controlled", "src"),
             (PvInverter, "opf-controlled", "ld")]
    for k, (kind, mode, bus) in enumerate(cases):
        net = _grid()
        net.add_gen(Gen("pv_gen", n_phase=1), bus)
        sim = Simulation(0, 0)
        sim.add(SimNetwork("grid", net))
        sim.add(Weather("wx"))
        sim.add(SolarPv("pv", "wx", area_m2=10.0, efficiency=0.2))
        if kind is Inverter:
            sim.add(Inverter("inv", ("pv",)))
        else:
            sim.add(PvInverter("inv", "grid", "pv_gen", ("pv",), q_mode=mode))
        sim.add(VoltVarController("vvc", "grid", ("inv",)))
        if k == len(cases) - 1:
            sim.initialize()
            continue
        with pytest.raises(ComponentError, match=(
                "'inv' is not an opf-controlled PvInverter on a PQ bus")):
            sim.initialize()


def test_pre_rank_feeders_vs_consumers():
    net = _grid()
    net.add_gen(Gen("pv_gen", n_phase=1), "ld")
    sim = Simulation(0, 0)
    grid = sim.add(SimNetwork("grid", net))
    sim.add(Weather("wx"))
    sim.add(SolarPv("pv", "wx", area_m2=10.0, efficiency=0.2))
    inv = sim.add(PvInverter("inv", "grid", "pv_gen", ("pv",)))
    vvc = sim.add(VoltVarController("vvc", "grid", ("inv",)))
    sim.rank_components()
    # the inverter feeds the network; the controller consumes its solution
    assert "inv" in grid.dependencies
    assert "vvc" not in grid.dependencies
    assert vvc.rank > grid.rank > inv.rank


def test_volt_var_controller_small_network():
    net = _grid()
    # stiffen the feeder load so the far bus sags below the band
    net.zips["load"].set_wye(0, s=1.1 + 0.45j)
    net.add_gen(Gen("pv_gen", n_phase=1), "ld")
    sim = Simulation(0, 0)
    grid = sim.add(SimNetwork("grid", net))
    sim.add(Weather("wx", latitude_deg=35.0))
    sim.add(SolarPv("pv", "wx", area_m2=1000.0, efficiency=0.2))
    sim.add(PvInverter(
        "inv", "grid", "pv_gen", ("pv",), s_max_kva=60_000.0,
        q_mode="opf-controlled",
    ))
    vvc = sim.add(VoltVarController(
        "vvc", "grid", ("inv",), v_min_pu=0.97, v_max_pu=1.03,
        slack_weight=1e4,
    ))
    sim.initialize()
    # without control the load bus is outside the band
    grid.solve(0.0)
    v_before = abs(grid.node_voltage("ld"))
    assert v_before < 0.97
    sim.do_timestep()
    assert vvc.solve_count == 1
    assert vvc.last_solution.status == "optimal"
    v_after = abs(grid.node_voltage("ld"))
    assert v_after > v_before
    if vvc.last_slack_total < 1e-6:
        assert 0.97 - 1e-3 <= v_after <= 1.03 + 1e-3


def test_channel_writer(tmp_path):
    net = _grid()
    sim = Simulation(0, 600)
    sim.add(SimNetwork("grid", net))
    series = TimeSeries([0, 600], [[40.0, 10.0], [60.0, 15.0]])
    sim.add(TimeSeriesZip("drive", "grid", "load", series))
    with ChannelWriter(sim, tmp_path):
        sim.run()
    content = (tmp_path / "network.csv").read_text().strip().split("\n")
    assert content[0] == "time,node,Vmag_pu"
    assert len(content) == 1 + 2 * 2  # 2 timesteps x 2 nodes
    assert content[1].startswith("0,src:BAL,1")


# -- the power-flow state a SimNetwork holds across solves --------------------


def _after_each_solve(monkeypatch, check):
    """Call ``check(before, sol, fresh)`` after every SimNetwork solve.

    ``before`` is a copy of the network as the solve found it and
    ``fresh`` a model built from it from scratch.
    """
    real = simnet_mod.solve_network

    def solve(net, *args, **kwargs):
        before = copy.deepcopy(net)
        fresh = model_build(before)
        sol = real(net, *args, **kwargs)
        check(before, sol, fresh)
        return sol

    monkeypatch.setattr(simnet_mod, "solve_network", solve)


def test_sim_network_applies_each_solution_once(monkeypatch):
    calls = []
    real = solver_mod.apply_solution
    for module in (solver_mod, simnet_mod):
        monkeypatch.setattr(module, "apply_solution",
                            lambda net, sol: calls.append(sol) or real(net, sol))
    net = _grid()
    sim = Simulation(0, 1200)
    grid = sim.add(SimNetwork("grid", net))
    series = TimeSeries([0, 600, 1200], [[40.0, 10.0], [80.0, 20.0], [20.0, 5.0]])
    sim.add(TimeSeriesZip("ld_drive", "grid", "load", series))
    sim.run()
    assert grid.solve_count == 3
    assert len(calls) == 3


def _vvc_solves(monkeypatch):
    """Record ``(problem, warm, solution)`` of every volt-VAR solve, and the
    problems ``opf_build`` makes for it, in two lists."""
    solves, builds = [], []
    real_build, real_solve = control_mod.opf_build, control_mod.ipm_solve

    def opf_build(*args, **kwargs):
        builds.append(real_build(*args, **kwargs))
        return builds[-1]

    def ipm_solve(problem, opts=None, warm=None):
        sol = real_solve(problem, opts, warm=warm)
        solves.append((problem, warm, sol))
        return sol

    monkeypatch.setattr(control_mod, "opf_build", opf_build)
    monkeypatch.setattr(control_mod, "ipm_solve", ipm_solve)
    return solves, builds


def _pvdemo_6h():
    sim = apply_yaml_file(DATA / "pvdemo" / "pvdemo_ieee57.yaml").sim
    sim.end_time = 6 * 3600.0
    grid = next(c for c in sim.components if isinstance(c, SimNetwork))
    vvc = next(c for c in sim.components if isinstance(c, VoltVarController))
    return sim, grid, vvc


def test_held_model_matches_a_fresh_build_over_pvdemo(monkeypatch):
    """Six hours of pvdemo: each solve's model, the model handed to the
    volt-VAR optimization and the problem it holds equal a from-scratch
    build of the network as it stood, although the power-flow structure
    and the problem are each built once for the whole run."""
    solves = []

    def check(_before, sol, fresh):
        _assert_same_model(sol.model, fresh)
        if solves:
            # one structure, and earlier solutions keep their own values
            prev, s_wye = solves[-1]
            assert sol.model.y is prev.model.y
            assert np.array_equal(prev.model.s_wye, s_wye)
        solves.append((sol, sol.model.s_wye.copy()))

    _after_each_solve(monkeypatch, check)
    sim, grid, vvc = _pvdemo_6h()
    real_build, real_refresh = control_mod.opf_build, control_mod.opf_refresh
    structures = []
    compared = []

    def opf_build(net, *args, model=None, **kwargs):
        _assert_same_model(model, model_build(net))
        structures.append(model.y)
        return real_build(net, *args, model=model, **kwargs)

    def opf_refresh(problem, net, model, extensions):
        _assert_same_model(model, model_build(net))
        held = real_refresh(problem, net, model, extensions)
        # built as the controller builds it, from scratch, with a fresh
        # extension: the held one's slack starts must equal its starts
        ext = voltage_slack_extension(
            net, vvc.v_min_pu + vvc.margin_pu, vvc.v_max_pu - vvc.margin_pu,
            vvc.slack_weight)
        fresh = real_build(net, extensions=[ext], hold_power_flow=True,
                           v_min=0.5, v_max=1.5, start="state")
        for name in ("lb", "ub", "fixed_values", "x0_full", "s_wye", "i_wye",
                     "free", "box_ub", "box_lb", "names"):
            assert np.array_equal(getattr(held, name), getattr(fresh, name)), name
        compared.append(ext)
        return held

    monkeypatch.setattr(control_mod, "opf_build", opf_build)
    monkeypatch.setattr(control_mod, "opf_refresh", opf_refresh)
    sim.run()
    assert grid.solve_count == len(solves) > 36
    assert grid.model_builds == 1
    # one problem build per power-flow structure, a refresh on every other step
    assert len(structures) == len({id(y) for y in structures}) == 1
    assert vvc.problem_builds == 1
    assert vvc.solve_count == 1 + len(compared) == 37
    # a held solve resumes from the last state on the last factor, and
    # its chord steps reuse its newest factor: it rarely factors (0.053
    # factors per solve measured)
    assert grid.factorizations < 0.1 * grid.solve_count
    # the slack total sums every slack of the last solution
    sol, ext = vvc.last_solution, compared[-1]
    slacks = [sol.x[sol.problem.var_index(f"x:{ext.name}:{var.name}")]
              for var in ext.variables]
    assert vvc.last_slack_total == pytest.approx(sum(slacks), rel=1e-12, abs=0)


def test_a_volt_var_step_gathers_the_loads_once():
    """Six hours of pvdemo: a volt-VAR update takes one model, a full
    refresh at most (after the step's load changes), and the re-solve
    after it, which follows the inverters' generation marks alone,
    refreshes generation only: no step gathers the ZIP terms twice."""
    sim, grid, vvc = _pvdemo_6h()
    events = []

    def counted(name, fn):
        def run(t):
            before = grid.full_refreshes, grid.generation_refreshes
            fn(t)
            events.append((name, grid.full_refreshes - before[0],
                           grid.generation_refreshes - before[1]))
        return run

    vvc.update = counted("vvc", vvc.update)
    grid.solve = counted("solve", grid.solve)
    sim.run()
    updates = [i for i, (name, _, _) in enumerate(events) if name == "vvc"]
    assert len(updates) == vvc.solve_count == 37
    for i in updates:
        _, full, gen = events[i]
        assert full <= 1 and full + gen == 1
        assert events[i + 1] == ("solve", 0, 1)
    assert grid.model_builds == 1
    assert grid.full_refreshes <= vvc.solve_count
    assert grid.full_refreshes + grid.generation_refreshes \
        == grid.solve_count - 1 + vvc.solve_count


def _inverter_bound_misses(monkeypatch):
    """Run six hours of pvdemo and check every volt-VAR problem, built or
    refreshed, as it is solved: each inverter's Q bounds must be ± its
    capability and its P fixed at its output.  Returns the problems checked
    and the ``(inverter, "P" or "Q")`` checks that failed."""
    sim, _, _ = _pvdemo_6h()
    inverters = [c for c in sim.components if isinstance(c, PvInverter)]
    real_solve = control_mod.ipm_solve
    checked, misses = [], []

    def ipm_solve(problem, opts=None, warm=None):
        sb = problem.s_base_mva
        for inv in inverters:
            cap = inv.q_capability_kvar() / 1000.0 / sb
            p_out = inv.p_ac_kw / 1000.0 / sb
            jp = problem.var_index(f"pg:{inv.gen_id}")
            jq = problem.var_index(f"qg:{inv.gen_id}")
            if (problem.lb[jq], problem.ub[jq]) != (-cap, cap):
                misses.append((inv.id, "Q"))
            if (problem.lb[jp], problem.ub[jp]) != (p_out, p_out) \
                    or jp in problem.free:
                misses.append((inv.id, "P"))
        checked.append(problem)
        return real_solve(problem, opts, warm=warm)

    monkeypatch.setattr(control_mod, "ipm_solve", ipm_solve)
    sim.run()
    return checked, misses


def test_volt_var_problems_bound_each_inverter_by_its_capability(monkeypatch):
    checked, misses = _inverter_bound_misses(monkeypatch)
    assert len(checked) == 37
    assert misses == []


def test_an_inverter_leaving_its_q_box_open_fails_the_bound_check(monkeypatch):
    real_write = PvInverter._write_gen

    def leaves_box_open(self, q):
        real_write(self, q)
        self._gen.q_min, self._gen.q_max = -np.inf, np.inf

    monkeypatch.setattr(PvInverter, "_write_gen", leaves_box_open)
    checked, misses = _inverter_bound_misses(monkeypatch)
    assert len(checked) == 37
    assert {field for _, field in misses} == {"Q"}


def test_held_factor_over_pvdemo_rarely_factors_and_stays_exact(monkeypatch):
    """Six hours of pvdemo: re-solves take chord steps on the last solve's
    factor and rarely factor, and each solve lands within 1e-8 pu of a
    cold, tight solve of the network as it stood."""
    solves = []

    def check(before, sol, _fresh):
        cold = solve_network(before, PfOptions(start="flat", tol_pu=1e-12))
        _assert_chord_steps_contract(sol, cold.v)
        solves.append(sol)

    _after_each_solve(monkeypatch, check)
    sim, grid, _ = _pvdemo_6h()
    sim.run()
    resolves = solves[1:]
    assert len(resolves) == 37
    assert sum(sol.factorizations for sol in resolves) < 0.5 * len(resolves)
    assert grid.factorizations == sum(sol.factorizations for sol in solves)
    # the first solve has nothing held: its first step factors, and chord
    # steps on its own factors follow
    assert solves[0].trace[0]["factored"]
    assert 1 <= solves[0].factorizations < solves[0].iterations


def test_a_tap_move_drops_the_held_factor(monkeypatch):
    specs = []
    splu = spla.splu

    def spy(jac, permc_spec="COLAMD", **kwargs):
        specs.append(permc_spec)
        return splu(jac, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    sim = Simulation(0, 3600)
    grid = sim.add(SimNetwork("grid", _tapped_grid(),
                              PfOptions(start="warm", tol_pu=1e-10)))
    sim.add(TimeSeriesZip("drive", "grid", "load", TimeSeries(
        [0, 3600], [[120.0, 60.0], [150.0, 70.0]], interpolation="linear"),
        resample_interval_s=300.0))
    sim.add(TimeSeriesTapChanger("sched", "grid", "feed", TimeSeries(
        [0, 1200, 2400], [1.0, 0.975, 0.95])))
    solves = []
    real = grid.solve

    def solve(t):
        before, builds = len(specs), grid.model_builds
        real(t)
        solves.append((t, grid.model_builds > builds, specs[before:]))

    grid.solve = solve
    sim.run()
    assert [t for t, rebuilt, _ in solves if rebuilt] == [0, 1200, 2400]
    for t, rebuilt, factored in solves:
        if rebuilt:
            # the structure and its factor are gone: the Newton pattern's
            # own order, minimum degree on A + A^T, runs again
            assert factored[0] == "MMD_AT_PLUS_A"
            assert factored[1:] == ["NATURAL"] * (len(factored) - 1)
        else:
            assert "MMD_AT_PLUS_A" not in factored
    assert sum(not factored for _, _, factored in solves) >= 6


def test_two_pvdemo_runs_in_one_process_give_identical_voltages():
    runs = []
    for _ in range(2):
        sim, grid, _ = _pvdemo_6h()
        volts = []
        buses = grid.network.buses
        sim.add_timestep_listener(
            lambda t, buses=buses, volts=volts: volts.append(
                np.concatenate([b.v for b in buses]).tobytes()))
        sim.run()
        runs.append(volts)
    assert len(runs[0]) == 37
    assert runs[0] == runs[1]


def test_every_warm_volt_var_solve_is_optimal_over_pvdemo(monkeypatch):
    solves, builds = _vvc_solves(monkeypatch)
    sim, _, vvc = _pvdemo_6h()
    sim.run()
    tol = vvc.ipm_options.tol
    assert len(builds) == 1
    assert [warm is None for _, warm, _ in solves] == [True] + [False] * 36
    for k, (problem, warm, sol) in enumerate(solves[1:]):
        # warm from the previous step's optimum, on the structure it held
        assert warm is solves[k][2]
        assert problem.kkt is builds[0].kkt
        assert sol.status == "optimal"
        assert max(kkt_residual(problem, sol).values()) <= tol
    assert vvc.ipm_iterations == sum(sol.iterations for _, _, sol in solves)
    assert vvc.ipm_iterations <= 5 * vvc.solve_count


def _kept_step_error(solve, matrix, rhs) -> float:
    """||step - fresh||_inf / ||step||_inf: ``solve`` is that of a
    kept-order factor of ``matrix``, ``fresh`` a fresh default (COLAMD)
    ``splu`` solve of the same matrix."""
    step = solve(rhs)
    fresh = spla.splu(matrix).solve(rhs)
    return float(np.abs(step - fresh).max() / np.abs(step).max())


def test_warm_kept_order_steps_match_a_fresh_factor_over_pvdemo(monkeypatch):
    """Every KKT step of a volt-VAR solve, warm or the cold first one,
    factored in the order kept on the held pattern after its first
    factor, equals the step of a fresh COLAMD factor."""
    solves, builds = _vvc_solves(monkeypatch)
    errors = []
    factor = FrozenCsc.factor

    def checked(self, values):
        kept = self.perm_c is not None
        solve = factor(self, values)
        # the power flow's Newton patterns factor here too
        if not kept or self not in [b.kkt.pattern for b in builds]:
            return solve

        def compared(rhs):
            errors.append(_kept_step_error(solve, self.matrix(values), rhs))
            return solve(rhs)

        return compared

    monkeypatch.setattr(FrozenCsc, "factor", checked)
    sim, _, _ = _pvdemo_6h()
    sim.run()
    assert len(builds) == 1 and len(solves) == 37
    kept = [it["kept_order"] for _, _, sol in solves
            for it in sol.trace if it["alpha_p"] is not None]
    # only the cold first solve's first step orders with COLAMD
    assert kept == [False] + [True] * (len(kept) - 1)
    assert len(errors) == len(kept) - 1 >= 36
    assert max(errors) <= 1e-9, max(errors)


def test_a_kept_order_lu_gathering_for_another_order_fails_the_check():
    # the mutation check of the comparison above, on a case57 KKT matrix
    net, _ = load_network(CASES / "case57.m")
    prob = opf_build(net)
    res = prob.eval_all(prob.x0)
    rng = np.random.default_rng(5)
    lam = rng.standard_normal(len(res.g))
    mu = np.abs(rng.standard_normal(len(res.h)))
    sigma = np.abs(rng.standard_normal(len(res.h)))
    values = prob.kkt.values(res.hess(lam, mu), res.jac_g, res.jac_h, sigma)
    pattern = prob.kkt.pattern
    matrix = pattern.matrix(values)
    rhs = rng.standard_normal(matrix.shape[0])

    pattern.factor(values)  # COLAMD, recording its order
    assert _kept_step_error(pattern.factor(values), matrix, rhs) <= 1e-9
    # the permuted layout of one order, filled through the gather map of
    # another
    other = FrozenCsc(pattern.rows, pattern.cols, pattern.shape)
    other.perm_c = pattern.perm_c[::-1].copy()
    other._permute()
    pattern._gather = other._gather
    assert _kept_step_error(pattern.factor(values), matrix, rhs) > 1e-9


def _tapped_grid():
    """Slack, a tapped line to a middle bus, a tapped line to a load."""
    net = Network(s_base_mva=100.0)
    net.add_bus(Bus("src", bus_type="SL"))
    net.add_bus(Bus("mid"))
    net.add_bus(Bus("ld"))
    ys = 1.0 / (0.01 + 0.05j)
    net.add_branch(Branch("feed", CommonBranch(ys, tap=1.0)), "src", "mid")
    net.add_branch(Branch("line", CommonBranch(ys, tap=1.0)), "mid", "ld")
    net.add_gen(Gen("slack"), "src")
    z = Zip("load", n_phase=1)
    net.add_zip(z, "ld")
    return net


def test_every_tap_move_rebuilds_the_held_model(monkeypatch):
    net = _tapped_grid()

    def taps(n):
        return tuple(n.branches[b].model.tap for b in ("feed", "line"))

    seen = {"taps": None, "builds": 0, "moves": 0, "solves": 0}
    sim = Simulation(0, 3600)
    grid = sim.add(SimNetwork("grid", net, PfOptions(start="warm", tol_pu=1e-10)))

    def check(before, sol, fresh):
        moved = seen["taps"] is not None and taps(before) != seen["taps"]
        assert grid.model_builds == seen["builds"] + (moved or seen["taps"] is None)
        _assert_same_model(sol.model, fresh)
        cold = solve_network(before, PfOptions(start="flat", tol_pu=1e-10))
        assert np.max(np.abs(sol.v - cold.v)) < 1e-8
        seen.update(taps=taps(before), builds=grid.model_builds,
                    moves=seen["moves"] + moved, solves=seen["solves"] + 1)

    _after_each_solve(monkeypatch, check)
    load = TimeSeries([0, 900, 1800, 2700],
                      [[120.0, 60.0], [150.0, 70.0], [110.0, 50.0], [130.0, 65.0]])
    sim.add(TimeSeriesZip("drive", "grid", "load", load))
    sim.add(TimeSeriesTapChanger(
        "sched", "grid", "feed", TimeSeries([0, 1200, 2400], [1.0, 0.975, 0.95])))
    atc = sim.add(AutoTapChanger("atc", "grid", "line", "ld", v_ref_pu=1.0,
                                 deadband_pu=0.01, tap_step=0.0125, delay_s=60.0))
    sim.run()
    assert atc.move_count >= 2
    # tap moves and injection-only solves both happened
    assert 3 <= seen["moves"] < seen["solves"] == grid.solve_count
    assert grid.model_builds == 1 + seen["moves"]


def _pv_at(net, bus, **inverter):
    """Simulation of ``net`` with a controlled PV inverter at ``bus``."""
    net.add_gen(Gen("pv_gen", n_phase=1), bus)
    sim = Simulation(0, 0)
    grid = sim.add(SimNetwork("grid", net, PfOptions(start="warm", tol_pu=1e-10)))
    sim.add(Weather("wx", latitude_deg=35.0))
    sim.add(SolarPv("pv", "wx", area_m2=5000.0, efficiency=0.2))
    inv = sim.add(PvInverter("inv", "grid", "pv_gen", ("pv",),
                             q_mode="opf-controlled", **inverter))
    vvc = sim.add(VoltVarController("vvc", "grid", ("inv",)))
    return sim, grid, inv, vvc


def test_a_tap_move_rebuilds_the_volt_var_problem(monkeypatch):
    solves, builds = _vvc_solves(monkeypatch)
    sim, grid, _inv, vvc = _pv_at(_tapped_grid(), "ld", s_max_kva=2000.0)
    sim.start_time, sim.end_time = NOON, NOON + 3600.0
    sim.add(TimeSeriesZip("drive", "grid", "load", TimeSeries(
        [NOON, NOON + 3600.0], [[120.0, 60.0], [150.0, 70.0]],
        interpolation="linear")))
    sim.add(TimeSeriesTapChanger("sched", "grid", "feed", TimeSeries(
        [NOON, NOON + 1200.0, NOON + 2400.0], [1.0, 0.975, 0.95])))
    sim.run()
    assert vvc.solve_count == 7 and grid.model_builds == 3
    # built at the start and after each of the two moves, cold each time
    assert vvc.problem_builds == len(builds) == 3
    rebuilt = [any(problem is b for b in builds) for problem, _, _ in solves]
    assert rebuilt == [True, False, True, False, True, False, False]
    assert [warm is None for _, warm, _ in solves] == rebuilt
    assert all(sol.status == "optimal" for _, _, sol in solves)


def test_a_failed_volt_var_solve_is_not_applied(monkeypatch):
    # the second solve ends at max_iter: its dispatch must not reach the
    # inverter, and the next solve starts cold
    solves, _ = _vvc_solves(monkeypatch)
    real_solve = control_mod.ipm_solve

    def second_fails(problem, opts=None, warm=None):
        sol = real_solve(problem, opts, warm=warm)
        return dataclasses.replace(sol, status="max_iter") if len(solves) == 2 else sol

    monkeypatch.setattr(control_mod, "ipm_solve", second_fails)
    sim, _, inv, vvc = _pv_at(_grid(), "ld", s_max_kva=2000.0)
    sim.start_time, sim.end_time = NOON, NOON + 1200.0
    after = []
    real_update = vvc.update

    def update(t):
        real_update(t)
        after.append((inv.q_ac_kvar, vvc.last_slack_total))

    vvc.update = update
    sim.run()
    assert vvc.solve_count == len(solves) == 3
    assert vvc.failed_solves == 1
    assert after[0][0] != 0.0 and after[1] == after[0]
    assert vvc.last_solution is not None and solves[2][1] is None
    assert solves[1][1] is solves[0][2]


def test_an_inverter_clipped_to_no_q_rebuilds_and_starts_cold(monkeypatch):
    solves, builds = _vvc_solves(monkeypatch)
    sim, _, inv, vvc = _pv_at(_grid(), "ld", s_max_kva=500.0)
    summer_noon = 171 * 86400.0 + NOON
    # the DC side passes 500 kW about 4 h before noon
    sim.start_time, sim.end_time = summer_noon - 5 * 3600.0, summer_noon - 3 * 3600.0
    capped = []
    real_update = vvc.update

    def update(t):
        capped.append(inv.q_capability_kvar() == 0.0)
        real_update(t)

    vvc.update = update
    sim.run()
    # once the inverter clips, its Q capability is zero and its Q a fixed
    # variable
    assert capped[0] is False and capped[-1] is True
    flips = [k for k in range(1, len(capped)) if capped[k] != capped[k - 1]]
    assert len(flips) == 1
    assert len(builds) == vvc.problem_builds == 2
    assert solves[flips[0]][0] is builds[1]
    assert [warm is None for _, warm, _ in solves] == [
        k in (0, flips[0]) for k in range(len(solves))]
    q = builds[1].var_index("qg:pv_gen")
    assert q not in builds[1].free and q in builds[0].free
    assert all(sol.status == "optimal" for _, _, sol in solves)


def test_a_finished_pvdemo_run_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        sim = apply_yaml_file(DATA / "pvdemo" / "pvdemo_ieee57.yaml").sim
        sim.end_time = 1800.0
        sim.run()
        grid = next(c for c in sim.components if isinstance(c, SimNetwork))
        refs = [weakref.ref(sim), weakref.ref(grid.network),
                *(weakref.ref(c) for c in sim.components)]
        del sim, grid
        assert all(r() is None for r in refs)
    finally:
        gc.enable()
