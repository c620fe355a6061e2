"""scripts/conversion_loss_sweep.py measures, through simulate, the
staircase conversion loss of the closed form -20*log10(sinc(pi/L))."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "conversion_loss_sweep.py"


@pytest.fixture(scope="module")
def sweep():
    """The script as a module, leaving sys.path as it was."""
    path = sys.path[:]
    try:
        spec = importlib.util.spec_from_file_location("conversion_loss_sweep", SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


@pytest.mark.parametrize("steps", [2, 4, 8, 20, 64])
def test_the_measured_loss_is_the_closed_form(sweep, steps):
    measured_db, _ = sweep.measure_loss_db(steps)
    x = math.pi / steps
    assert measured_db == pytest.approx(-20 * math.log10(math.sin(x) / x), abs=1e-3)
