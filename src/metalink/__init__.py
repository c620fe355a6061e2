"""Complex-baseband simulator of programmable-metasurface wireless transceivers.

The package models the two surface-centric transceiver paradigms at desk
scale: an RF chain-free transmitter (digital baseband written straight into
per-stream reflection coefficients that modulate an air-fed carrier tone) and
a space-down-conversion receiver (a time-linear phase ramp across the
surface translating the carrier by 1/period), plus the channel, receive
chain, and spectral metrology needed to score both.

The package re-exports the scenario API and txrx.make_pilots; everything else
is imported from its submodule (core, metasurface, propagation, spectral,
txrx, schema, scenario, artifacts, envelope).
"""

from .scenario import run_scenario, simulate
from .schema import Scenario, bundled_scenario_names, load_scenario, validate
from .txrx import make_pilots

__version__ = "0.1.0"
