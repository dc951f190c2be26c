"""Device components: storage, solar, inverters, tap changers, buildings."""

from __future__ import annotations

import math

import numpy as np

from ..core import Event
from ..simulation import SimComponent


class Heartbeat(SimComponent):
    """Fixed-interval ticker; useful as a pacing dependency for others."""

    def __init__(self, id: str, interval_s: float):
        super().__init__(id)
        self.interval_s = self._interval("interval_s", interval_s)
        self.tick_count = 0

    def initialize(self, sim) -> None:
        self.next_update_time = sim.start_time

    def update(self, t: float) -> None:
        self.tick_count += 1
        self.next_update_time = t + self.interval_s


class Battery(SimComponent):
    """Energy storage with charge/discharge efficiency and hard limits.

    Positive power charges.  Power is clipped so the state of charge stays
    inside [0, capacity]; events fire when the battery saturates or when
    the achieved power deviates from the request.
    """

    def __init__(self, id: str, capacity_kwh: float, charge_kwh: float = 0.0,
                 max_charge_kw: float = math.inf,
                 max_discharge_kw: float = math.inf,
                 eta_charge: float = 1.0, eta_discharge: float = 1.0,
                 update_interval_s: float | None = None):
        super().__init__(id)
        if capacity_kwh <= 0:
            raise ValueError("capacity_kwh must be positive")
        if not 0.0 < eta_charge <= 1.0 or not 0.0 < eta_discharge <= 1.0:
            raise ValueError("efficiencies must be in (0, 1]")
        if not 0.0 <= charge_kwh <= capacity_kwh:
            raise ValueError("initial charge outside [0, capacity]")
        self.capacity_kwh = float(capacity_kwh)
        self.charge_kwh = float(charge_kwh)
        self.max_charge_kw = float(max_charge_kw)
        self.max_discharge_kw = float(max_discharge_kw)
        self.eta_charge = float(eta_charge)
        self.eta_discharge = float(eta_discharge)
        self.requested_kw = 0.0
        self.actual_kw = 0.0
        self.charge_empty = Event("battery charge reached zero")
        self.charge_full = Event("battery charge reached capacity")
        self.power_changed = Event("achieved power deviates from setpoint")
        self.update_interval_s = None if update_interval_s is None \
            else self._interval("update_interval_s", update_interval_s)
        self._last_t = None

    def step(self, dt_s: float, setpoint_kw: float) -> float:
        """Advance the state of charge by dt at a requested power.

        Returns the power actually achieved after limit and saturation
        clipping.
        """
        if dt_s <= 0:
            raise ValueError("dt_s must be positive")
        dt_h = dt_s / 3600.0
        p = float(setpoint_kw)
        if p > 0.0:
            p = min(p, self.max_charge_kw)
            headroom = self.capacity_kwh - self.charge_kwh
            p = min(p, headroom / (self.eta_charge * dt_h))
            self.charge_kwh += self.eta_charge * p * dt_h
            if self.charge_kwh >= self.capacity_kwh - 1e-12:
                self.charge_kwh = min(self.charge_kwh, self.capacity_kwh)
                if p < setpoint_kw - 1e-12:
                    self.charge_full.trigger()
        elif p < 0.0:
            p = max(p, -self.max_discharge_kw)
            available = self.charge_kwh * self.eta_discharge
            p = max(p, -available / dt_h)
            self.charge_kwh -= (-p / self.eta_discharge) * dt_h
            if self.charge_kwh <= 1e-12:
                self.charge_kwh = max(self.charge_kwh, 0.0)
                if p > setpoint_kw + 1e-12:
                    self.charge_empty.trigger()
        self.actual_kw = p
        if abs(p - setpoint_kw) > 1e-12:
            self.power_changed.trigger()
        return p

    def initialize(self, sim) -> None:
        self._last_t = sim.start_time
        if self.update_interval_s is not None:
            self.next_update_time = sim.start_time

    def update(self, t: float) -> None:
        if self._last_t is not None and t > self._last_t:
            self.step(t - self._last_t, self.requested_kw)
        self._last_t = t
        if self.update_interval_s is not None:
            self.next_update_time = t + self.update_interval_s

    def output_channels(self):
        def rows(t):
            return [(t, self.charge_kwh, self.actual_kw)]

        return ((f"battery_{self.id}", "time,charge_kWh,P_kW", rows),)


class SolarPv(SimComponent):
    """Photovoltaic array converting plane-of-array irradiance to DC power."""

    def __init__(self, id: str, weather_id: str, area_m2: float,
                 efficiency: float, zenith_degrees: float = 0.0,
                 azimuth_degrees: float = 180.0):
        super().__init__(id, dependencies={weather_id})
        if not 0.0 < efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        if area_m2 <= 0:
            raise ValueError("area_m2 must be positive")
        self.weather_id = weather_id
        self.area_m2 = float(area_m2)
        self.efficiency = float(efficiency)
        self.zenith_degrees = float(zenith_degrees)
        self.azimuth_degrees = float(azimuth_degrees)
        self.weather = None

    def resolve(self, sim) -> None:
        self.weather = sim.get(self.weather_id)

    def dc_power_kw(self, t: float) -> float:
        if self.weather is None:
            raise RuntimeError(f"solar pv {self.id!r} has no weather attached")
        irradiance = self.weather.plane_irradiance(
            t, self.zenith_degrees, self.azimuth_degrees
        )
        return irradiance * self.area_m2 * self.efficiency / 1000.0


class Inverter(SimComponent):
    """DC-to-AC conversion with an apparent-power ceiling."""

    def __init__(self, id: str, source_ids=(), efficiency: float = 1.0,
                 s_max_kva: float = math.inf):
        super().__init__(id, dependencies=set(source_ids))
        if not 0.0 < efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        self.source_ids = tuple(source_ids)
        self.efficiency = float(efficiency)
        self.s_max_kva = float(s_max_kva)
        self.sources = []

    def resolve(self, sim) -> None:
        self.sources = [sim.get(sid) for sid in self.source_ids]

    def dc_input_kw(self, t: float) -> float:
        total = 0.0
        for src in self.sources:
            if hasattr(src, "dc_power_kw"):
                total += src.dc_power_kw(t)
            elif hasattr(src, "actual_kw"):
                total -= src.actual_kw  # battery discharging feeds the bus
        return total

    def ac_power_kw(self, t: float) -> float:
        return min(self.efficiency * max(self.dc_input_kw(t), 0.0),
                   self.s_max_kva)


class PvInverter(Inverter):
    """Inverter coupled to the network as a generator with controllable Q.

    Modes: ``fixed-pf`` holds a constant power factor, ``setpoint`` holds a
    fixed reactive output, ``opf-controlled`` lets an external controller
    assign Q through :meth:`set_q_kvar`.  Reactive output is always clipped
    to the capability circle √(S_max² − P²), which is also the generator's
    Q box in ``opf-controlled`` mode; the fixed modes pin the box at Q.
    """

    MODES = ("fixed-pf", "setpoint", "opf-controlled")

    def __init__(self, id: str, network_id: str, gen_id: str, source_ids=(),
                 efficiency: float = 1.0, s_max_kva: float = math.inf,
                 q_mode: str = "fixed-pf", power_factor: float = 1.0,
                 q_setpoint_kvar: float = 0.0,
                 update_interval_s: float = 600.0):
        super().__init__(id, source_ids, efficiency, s_max_kva)
        if q_mode not in self.MODES:
            raise ValueError(f"unknown q_mode {q_mode!r}")
        self.network_id = network_id
        self.gen_id = gen_id
        self.q_mode = q_mode
        self.power_factor = float(power_factor)
        self.q_setpoint_kvar = float(q_setpoint_kvar)
        self.update_interval_s = self._interval("update_interval_s",
                                                update_interval_s)
        self.p_ac_kw = 0.0
        self.q_ac_kvar = 0.0
        self._net = None
        self._gen = None

    def resolve(self, sim) -> None:
        super().resolve(sim)
        self._net = sim.get(self.network_id)
        self._gen = self._net.network.gens[self.gen_id]

    def initialize(self, sim) -> None:
        self.next_update_time = sim.start_time

    def q_capability_kvar(self) -> float:
        if not math.isfinite(self.s_max_kva):
            return math.inf
        return math.sqrt(max(self.s_max_kva ** 2 - self.p_ac_kw ** 2, 0.0))

    def set_q_kvar(self, q: float) -> None:
        self._write_gen(q)

    def _write_gen(self, q: float) -> None:
        """Clip ``q``; write it with P and the Q box to the generator."""
        cap = self.q_capability_kvar()
        self.q_ac_kvar = float(np.clip(q, -cap, cap))
        s_mva = complex(self.p_ac_kw, self.q_ac_kvar) / 1000.0
        self._gen.s = np.full(self._gen.n_phase,
                              s_mva / self._gen.n_phase, dtype=complex)
        if self.q_mode == "opf-controlled":
            self._gen.q_min, self._gen.q_max = -cap / 1000.0, cap / 1000.0
        else:
            self._gen.q_min = self._gen.q_max = self.q_ac_kvar / 1000.0
        self._net.mark_dirty("generation")

    def update(self, t: float) -> None:
        self.p_ac_kw = self.ac_power_kw(t)
        if self.q_mode == "fixed-pf":
            pf = min(max(abs(self.power_factor), 1e-6), 1.0)
            q = self.p_ac_kw * math.tan(math.acos(pf))
        elif self.q_mode == "setpoint":
            q = self.q_setpoint_kvar
        else:
            q = self.q_ac_kvar
        self._write_gen(q)
        self.next_update_time = t + self.update_interval_s


class AutoTapChanger(SimComponent):
    """Moves a branch tap when a monitored voltage leaves its deadband.

    The monitored voltage is that of the first node of ``monitored_bus``.
    A violation must persist for at least ``delay_s`` before the tap moves;
    re-entering the band resets the timer.  One step per decision, clamped
    to the tap range.
    """

    def __init__(self, id: str, network_id: str, branch_id: str,
                 monitored_bus: str, v_ref_pu: float = 1.0,
                 deadband_pu: float = 0.0125, tap_step: float = 0.00625,
                 tap_min: float = 0.9, tap_max: float = 1.1,
                 delay_s: float = 30.0):
        super().__init__(id, dependencies={network_id})
        self.network_id = network_id
        self.branch_id = branch_id
        self.monitored_bus = monitored_bus
        self.v_ref_pu = float(v_ref_pu)
        self.deadband_pu = float(deadband_pu)
        self.tap_step = float(tap_step)
        self.tap_min = float(tap_min)
        self.tap_max = float(tap_max)
        self.delay_s = self._interval("delay_s", delay_s)
        self.move_count = 0
        self.at_limit_warnings = 0
        self._net = None
        self._branch = None
        self._violation_since = None

    def resolve(self, sim) -> None:
        self._net = sim.get(self.network_id)
        self._branch = self._net.network.branches[self.branch_id]
        self._net.did_update.register(self.needs_update.trigger)

    def _voltage(self) -> float:
        return abs(self._net.node_voltage(self.monitored_bus))

    def _violation(self, v: float) -> int:
        if v < self.v_ref_pu - self.deadband_pu:
            return -1
        if v > self.v_ref_pu + self.deadband_pu:
            return 1
        return 0

    def update(self, t: float) -> None:
        v = self._voltage()
        direction = self._violation(v)
        if direction == 0:
            self._violation_since = None
            self.next_update_time = math.inf
            return
        if self._violation_since is None:
            self._violation_since = t
        if t - self._violation_since >= self.delay_s:
            self._move(direction)
            self._violation_since = t
            self.next_update_time = t + self.delay_s
        else:
            # revisit once the delay has elapsed, unless the band recovers
            self.next_update_time = self._violation_since + self.delay_s

    def _move(self, direction: int) -> None:
        # voltage low -> lower the tap ratio to raise the regulated side
        tap = self._branch.model.tap + direction * self.tap_step
        clamped = min(max(tap, self.tap_min), self.tap_max)
        if clamped == self._branch.model.tap:
            self.at_limit_warnings += 1
            return
        self._branch.model.tap = clamped
        self.move_count += 1
        self._net.mark_dirty()


class Building(SimComponent):
    """First-order thermal model with bang-bang HVAC.

    The indoor temperature follows dT/dt = (T_ext − T)/(R·C) + Q/C with
    Q the sum of HVAC thermal power and internal gains, advanced each step
    with the exact exponential solution.  HVAC electrical demand
    |Q_hvac|/COP is written to an attached ZIP load.
    """

    def __init__(self, id: str, weather_id: str,
                 r_deg_per_kw: float, c_kwh_per_deg: float,
                 t_initial_c: float = 20.0,
                 hvac_thermal_kw: float = 0.0, cop: float = 3.0,
                 q_gain_kw: float = 0.0,
                 t_set_c: float = 20.0, t_deadband_c: float = 1.0,
                 network_id: str | None = None, zip_id: str | None = None,
                 update_interval_s: float = 600.0):
        super().__init__(id, dependencies={weather_id})
        if c_kwh_per_deg <= 0 or r_deg_per_kw <= 0:
            raise ValueError("thermal R and C must be positive")
        if cop <= 0:
            raise ValueError("cop must be positive")
        self.weather_id = weather_id
        self.r = float(r_deg_per_kw)
        self.c = float(c_kwh_per_deg)
        self.t_int = float(t_initial_c)
        self.hvac_thermal_kw = float(hvac_thermal_kw)
        self.cop = float(cop)
        self.q_gain_kw = float(q_gain_kw)
        self.t_set_c = float(t_set_c)
        self.t_deadband_c = float(t_deadband_c)
        self.network_id = network_id
        self.zip_id = zip_id
        self.update_interval_s = self._interval("update_interval_s",
                                                update_interval_s)
        self.q_hvac_kw = 0.0
        self.p_hvac_kw = 0.0
        self.weather = None
        self._net = None
        self._zip = None

    def resolve(self, sim) -> None:
        self.weather = sim.get(self.weather_id)
        if self.network_id is not None:
            self._net = sim.get(self.network_id)
            self._zip = self._net.network.zips[self.zip_id]

    def initialize(self, sim) -> None:
        self.next_update_time = sim.start_time
        self._last_t = sim.start_time

    def step(self, dt_s: float, t_ext_c: float) -> None:
        """Exact exponential advance over dt at fixed boundary conditions."""
        rc_s = self.r * self.c * 3600.0
        t_inf = t_ext_c + self.r * (self.q_hvac_kw + self.q_gain_kw)
        self.t_int = t_inf + (self.t_int - t_inf) * math.exp(-dt_s / rc_s)

    def _thermostat(self) -> None:
        if self.hvac_thermal_kw == 0.0:
            self.q_hvac_kw = 0.0
        elif self.t_int < self.t_set_c - self.t_deadband_c:
            self.q_hvac_kw = abs(self.hvac_thermal_kw)       # heating
        elif self.t_int > self.t_set_c + self.t_deadband_c:
            self.q_hvac_kw = -abs(self.hvac_thermal_kw)      # cooling
        # inside the band: keep the previous mode (hysteresis)
        self.p_hvac_kw = abs(self.q_hvac_kw) / self.cop

    def update(self, t: float) -> None:
        if t > self._last_t:
            self.step(t - self._last_t, self.weather.temperature(t))
        self._last_t = t
        self._thermostat()
        if self._zip is not None:
            s_mva = complex(self.p_hvac_kw, 0.0) / 1000.0
            self._zip.set_wye(0, s=s_mva / self._net.network.s_base_mva)
            self._net.mark_dirty("injections")
        self.next_update_time = t + self.update_interval_s

    def output_channels(self):
        def rows(t):
            return [(t, self.t_int, self.p_hvac_kw)]

        return ((f"building_{self.id}", "time,T_int,P_hvac_kW", rows),)
