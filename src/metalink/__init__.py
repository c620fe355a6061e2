"""Complex-baseband simulator of programmable-metasurface wireless transceivers.

The package models the two surface-centric transceiver paradigms at desk
scale: an RF chain-free transmitter (digital baseband written straight into
per-stream reflection coefficients that modulate an air-fed carrier tone) and
a space-down-conversion receiver (a time-linear phase ramp across the
surface translating the carrier by 1/period), plus the channel, receive
chain, and spectral metrology needed to score both.
"""

from .core import (
    SPEED_OF_LIGHT,
    CoefficientSchedule,
    ComplexEnvelope,
    ConfigurationError,
    ContractViolation,
    PointSet,
    SurfaceGeometry,
    cell_positions,
    resample_hold,
    tone_envelope,
    wavelength_of,
    wrap_phase,
)
from .metasurface import (
    CONTINUOUS,
    QuantizationModel,
    StaircaseRampSpec,
    compile_staircase,
    frequency_shift,
    quantize_values,
)
from .propagation import (
    ChannelModel,
    ChannelSet,
    build_channels,
    surface_pass,
)
from .spectral import Spectrum, line_power, periodogram, staircase_harmonics
from .txrx import (
    DetectionError,
    FrameSpec,
    LinkReport,
    ModulationScheme,
    demap_symbols,
    get_scheme,
    make_pilots,
    map_bits,
    symbols_to_schedule,
    symbols_to_waveform,
)
from .scenario import (
    Scenario,
    ScenarioResult,
    bundled_scenario_names,
    load_scenario,
    run_scenario,
    simulate,
    validate,
)

__version__ = "0.1.0"
