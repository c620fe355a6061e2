"""README.md names the code it describes as backticked `<submodule>.<name>`
or `metalink.<submodule>.<name>` spans; each must still name an attribute
of that metalink submodule, so a rename or deletion cannot leave the README
describing code that is gone.

bench/README.md and ROADMAP.md are not checked: they name earlier code on
purpose, when they record what a change replaced.
"""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUBMODULES = {path.stem for path in (ROOT / "src" / "metalink").glob("*.py")} - {"__init__"}
NAME = re.compile(r"`(?:metalink\.)?(\w+)\.(\w+)")


def named_attributes(text: str) -> list:
    """(submodule, name) of each backticked span that starts with
    [metalink.]<submodule>.<name>, file names such as `core.py` aside."""
    return [(module, name) for module, name in NAME.findall(text)
            if module in SUBMODULES and name != "py"]


def test_named_attributes_reads_module_attribute_spans_only():
    text = ("`txrx.detect(means)` and `metalink.core.BLOCK`, not `core.py`, "
            "`report.ber` or `txrx`")
    assert named_attributes(text) == [("txrx", "detect"), ("core", "BLOCK")]


def test_every_module_attribute_the_readme_names_exists():
    named = named_attributes((ROOT / "README.md").read_text())
    assert named
    stale = sorted({f"{module}.{name}" for module, name in named
                    if not hasattr(importlib.import_module(f"metalink.{module}"), name)})
    assert not stale, f"README.md names attributes that do not exist: {stale}"
