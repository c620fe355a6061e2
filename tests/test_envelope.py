"""metalink.envelope, the envelope-level API that simulate never reaches,
is kept apart: its names still import from their former modules, as the
same objects, and no other module of src/metalink imports it but through
core._from_envelope, so `import metalink` leaves it unloaded."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from metalink import envelope

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "metalink"
MOVED = [("core", "ComplexEnvelope"), ("core", "tone_envelope"),
         ("core", "cell_positions"), ("core", "_hold_ratio"), ("core", "resample_hold"),
         ("core", "CoefficientSchedule"), ("propagation", "surface_pass"),
         ("metasurface", "frequency_shift"), ("metasurface", "compile_staircase"),
         ("spectral", "periodogram"), ("txrx", "map_bits"), ("txrx", "bit_words")]


@pytest.mark.parametrize("module, name", MOVED, ids=[f"{m}.{n}" for m, n in MOVED])
def test_a_moved_name_is_the_envelope_object_in_its_former_module(module, name):
    former = importlib.import_module(f"metalink.{module}")
    assert getattr(former, name) is getattr(envelope, name)
    namespace = {}
    exec(f"from metalink.{module} import {name}", namespace)
    assert namespace[name] is getattr(envelope, name)


def test_a_former_module_serves_no_other_envelope_name():
    from metalink import core, spectral
    with pytest.raises(AttributeError):
        spectral.tone_envelope
    with pytest.raises(ImportError):
        exec("from metalink.core import surface_pass", {})
    assert not hasattr(core, "__wrapped__")


def _imports_envelope(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[-1] == "envelope" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return ((node.module or "").split(".")[-1] == "envelope"
                or any(alias.name == "envelope" for alias in node.names))
    return False


def _envelope_imports(node: ast.AST, function=None):
    """For each import of envelope under node, the name of the outermost
    function that holds it, or None at module level."""
    if isinstance(node, ast.FunctionDef) and function is None:
        function = node.name
    if _imports_envelope(node):
        yield function
    for child in ast.iter_child_nodes(node):
        yield from _envelope_imports(child, function)


def test_only_the_lazy_hook_imports_envelope():
    found = {(path.stem, function) for path in PACKAGE.glob("*.py")
             if path.stem != "envelope"
             for function in _envelope_imports(ast.parse(path.read_text()))}
    assert found == {("core", "_from_envelope")}


def test_envelope_imports_are_found_at_module_level_and_in_functions():
    tree = ast.parse("from .envelope import surface_pass\n"
                     "import metalink.envelope\n"
                     "def f():\n    from . import envelope, spectral\n")
    assert list(_envelope_imports(tree)) == [None, None, "f"]


SIMULATE_EVERY_MODE = """
import sys, metalink, metalink.cli
from metalink import scenario
print('metalink.scenario' in sys.modules, 'metalink.envelope' in sys.modules)
for name, overrides in [
        ("mimo2x2_16qam", {"frame.payload_symbols": 64}),
        ("sdc_5mhz", {"sdc_periods": 3}),
        ("sdc_5mhz", {"sdc_periods": 3, "channel.noise_psd": 0.01}),
        ("integrated_switch", {"frame.payload_symbols": 64, "channel.noise_psd": 1e-7})]:
    data = scenario.apply_overrides(scenario.load_scenario(name), overrides)
    scenario.simulate(scenario.Scenario.from_dict(data))
    print(name, 'metalink.envelope' in sys.modules)
"""


def test_importing_metalink_leaves_envelope_unloaded():
    # and so does simulate in every mode: no run reaches a schedule or an envelope
    run = subprocess.run([sys.executable, "-c", SIMULATE_EVERY_MODE],
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines() == [
        "True False", "mimo2x2_16qam False", "sdc_5mhz False", "sdc_5mhz False",
        "integrated_switch False"]
