"""Weather source: temperature, cloud cover, and solar irradiance.

Solar position uses the standard declination / hour-angle formulas; the
clear-sky direct-normal irradiance follows the common air-mass
attenuation model ``E = E0 · 0.7^(AM^0.678)``.  Cloud cover attenuates the
direct component by ``(1 − 0.75·cloud³)``; a fixed fraction of the
attenuated direct beam is treated as isotropic diffuse light.
"""

from __future__ import annotations

import math

from ..core import TimeSeries
from ..simulation import SimComponent

SOLAR_CONSTANT_W_M2 = 1353.0
DIFFUSE_FRACTION = 0.1
SECONDS_PER_DAY = 86400.0


def solar_declination_rad(t: float) -> float:
    """Declination of the sun at epoch-second t (day-resolution model)."""
    day_of_year = (t / SECONDS_PER_DAY) % 365.25
    return math.radians(23.45) * math.sin(
        2.0 * math.pi * (284.0 + day_of_year) / 365.0
    )


def solar_position(t: float, latitude_deg: float, longitude_deg: float):
    """(cos_zenith, azimuth_rad from north, clockwise) for UTC epoch-second t."""
    decl = solar_declination_rad(t)
    solar_hours = (t % SECONDS_PER_DAY) / 3600.0 + longitude_deg / 15.0
    hour_angle = math.radians(15.0 * (solar_hours - 12.0))
    lat = math.radians(latitude_deg)
    cos_z = (math.sin(lat) * math.sin(decl)
             + math.cos(lat) * math.cos(decl) * math.cos(hour_angle))
    cos_z = max(-1.0, min(1.0, cos_z))
    sin_z = math.sqrt(max(0.0, 1.0 - cos_z * cos_z))
    if sin_z < 1e-9:
        azimuth = 0.0
    else:
        cos_az = (math.sin(decl) - cos_z * math.sin(lat)) / (sin_z * math.cos(lat))
        cos_az = max(-1.0, min(1.0, cos_az))
        azimuth = math.acos(cos_az)
        if hour_angle > 0:
            azimuth = 2.0 * math.pi - azimuth
    return cos_z, azimuth


def clear_sky_dni(cos_zenith: float) -> float:
    """Direct-normal irradiance under a cloudless sky, W/m²."""
    if cos_zenith <= 0.0:
        return 0.0
    air_mass = 1.0 / max(cos_zenith, 1e-4)
    return SOLAR_CONSTANT_W_M2 * 0.7 ** (air_mass ** 0.678)


def cloud_attenuation(cloud: float, exponent: float = 3.0) -> float:
    return 1.0 - 0.75 * float(cloud) ** exponent


def panel_incidence_cos(cos_zenith: float, sun_azimuth_rad: float,
                        panel_zenith_deg: float, panel_azimuth_deg: float) -> float:
    """Cosine of the beam incidence angle on a tilted panel, clamped >= 0."""
    beta = math.radians(panel_zenith_deg)
    gamma = math.radians(panel_azimuth_deg)
    sin_z = math.sqrt(max(0.0, 1.0 - cos_zenith * cos_zenith))
    cos_i = (cos_zenith * math.cos(beta)
             + sin_z * math.sin(beta) * math.cos(sun_azimuth_rad - gamma))
    return max(0.0, cos_i)


class Weather(SimComponent):
    """Ambient conditions driving solar and thermal components.

    Temperature and cloud cover come from time series or constants; the
    irradiance model is computed from location and time.
    """

    def __init__(self, id: str, latitude_deg: float = 0.0,
                 longitude_deg: float = 0.0,
                 temperature_c: float = 15.0, cloud_cover: float = 0.0,
                 temperature_series: TimeSeries | None = None,
                 cloud_series: TimeSeries | None = None,
                 cloud_exponent: float = 3.0,
                 update_interval_s: float | None = None):
        super().__init__(id)
        self.latitude_deg = float(latitude_deg)
        self.longitude_deg = float(longitude_deg)
        self._temperature_c = float(temperature_c)
        self._cloud = float(cloud_cover)
        if not 0.0 <= self._cloud <= 1.0:
            raise ValueError("cloud_cover must be within [0, 1]")
        self.temperature_series = temperature_series
        self.cloud_series = cloud_series
        self.cloud_exponent = float(cloud_exponent)
        self.update_interval_s = None if update_interval_s is None \
            else self._interval("update_interval_s", update_interval_s)

    def temperature(self, t: float) -> float:
        if self.temperature_series is not None:
            return float(self.temperature_series.value_at(t)[0])
        return self._temperature_c

    def cloud(self, t: float) -> float:
        if self.cloud_series is not None:
            c = float(self.cloud_series.value_at(t)[0])
        else:
            c = self._cloud
        return max(0.0, min(1.0, c))

    def direct_normal(self, t: float) -> float:
        cos_z, _ = solar_position(t, self.latitude_deg, self.longitude_deg)
        return clear_sky_dni(cos_z) * cloud_attenuation(
            self.cloud(t), self.cloud_exponent
        )

    def plane_irradiance(self, t: float, panel_zenith_deg: float,
                         panel_azimuth_deg: float) -> float:
        """Total irradiance on a tilted plane: projected beam plus diffuse."""
        cos_z, sun_az = solar_position(t, self.latitude_deg, self.longitude_deg)
        dni = clear_sky_dni(cos_z) * cloud_attenuation(
            self.cloud(t), self.cloud_exponent
        )
        cos_i = panel_incidence_cos(cos_z, sun_az, panel_zenith_deg,
                                    panel_azimuth_deg)
        return dni * cos_i + DIFFUSE_FRACTION * dni * max(cos_z, 0.0)

    # -- engine hooks --------------------------------------------------------

    def initialize(self, sim) -> None:
        if self.update_interval_s is not None:
            self.next_update_time = sim.start_time

    def update(self, t: float) -> None:
        if self.update_interval_s is not None:
            self.next_update_time = t + self.update_interval_s
