from .components import (
    AutoTapChanger,
    Battery,
    Building,
    Heartbeat,
    Inverter,
    PvInverter,
    SolarPv,
)
from .control import VoltVarController
from .network import (
    PowerFlowAbort,
    SimNetwork,
    TimeSeriesTapChanger,
    TimeSeriesZip,
)
from .outputs import ChannelWriter
from .weather import (
    Weather,
    clear_sky_dni,
    cloud_attenuation,
    panel_incidence_cos,
    solar_declination_rad,
    solar_position,
)

__all__ = [
    "SimNetwork",
    "TimeSeriesZip",
    "TimeSeriesTapChanger",
    "PowerFlowAbort",
    "Heartbeat",
    "Battery",
    "SolarPv",
    "Inverter",
    "PvInverter",
    "AutoTapChanger",
    "Building",
    "Weather",
    "VoltVarController",
    "ChannelWriter",
    "clear_sky_dni",
    "cloud_attenuation",
    "panel_incidence_cos",
    "solar_declination_rad",
    "solar_position",
]
