"""README.md names the code it describes as backticked `<submodule>.<name>`
or `metalink.<submodule>.<name>` spans; each must still name an attribute
of that metalink submodule, so a rename or deletion cannot leave the README
describing code that is gone. Its "Scenario schema" block names the keys
of the schema's FIELDS table, so a row cannot be added or removed there
without the docs.

bench/README.md and ROADMAP.md are not checked: they name earlier code on
purpose, when they record what a change replaced.
"""

import importlib
import re
from pathlib import Path

from metalink import schema

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


def schema_block_keys(text: str) -> set:
    """The quoted keys, "<key>":, of the first code block of README's
    "Scenario schema" section, its comments included."""
    section = text.split("\n## Scenario schema\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```", 2)[1]
    return set(re.findall(r'"(\w+)"\s*:', block))


def test_the_schema_block_names_every_field_key_and_no_other():
    # the keys of a point object sit in one FIELDS row, "points"
    want = {f.key for f in schema.FIELDS} | {"position_m", "role"}
    assert schema_block_keys((ROOT / "README.md").read_text()) == want
