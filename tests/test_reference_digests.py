"""The reference runs of scripts/output_digest.py write the artifacts whose
digests reference_digests.json records, bit for bit.

The bits of a float result depend on numpy's version, its BLAS, the CPU
architecture and the SIMD extensions numpy dispatches to, so the lines are
compared only where that environment equals the recorded one; elsewhere the
test skips and names both. A change that moves outputs on purpose records
the new lines, from the root of the checkout:

    python -c 'import json, sys; sys.path.insert(0, "scripts");
    import output_digest as d; print(json.dumps({"environment": d.environment(),
    "lines": list(d.digest_lines())}, indent=2))' > tests/reference_digests.json
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = json.loads((ROOT / "tests" / "reference_digests.json").read_text())


def _output_digest():
    """scripts/output_digest.py as a module, leaving sys.path as it was."""
    path = sys.path[:]
    try:
        spec = importlib.util.spec_from_file_location(
            "output_digest", ROOT / "scripts" / "output_digest.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


def test_reference_runs_write_the_recorded_artifacts():
    digest = _output_digest()
    try:
        environment = digest.environment()
    except (TypeError, KeyError) as exc:  # numpy before show_config(mode=...)
        pytest.skip(f"this numpy does not report its build and SIMD extensions: {exc!r}")
    if environment != REFERENCE["environment"]:
        pytest.skip(f"digests recorded on {REFERENCE['environment']}, "
                    f"this environment is {environment}")
    assert list(digest.digest_lines()) == REFERENCE["lines"]
