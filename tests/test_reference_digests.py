"""The reference runs of scripts/output_digest.py, checked at two levels.

Exact: the runs write the artifacts whose digests reference_digests.json
records, bit for bit. The bits of a float result depend on numpy's
version, its BLAS, the CPU architecture and the SIMD extensions numpy
dispatches to, so the lines are compared only where that environment is
one of the file's environments, each one on which the script printed
every recorded line; elsewhere the test skips and names them.

Tolerance: on any platform, every number of each run's summaries and a
few moments of its tables match reference_values.json within the script's
RTOL of their group's scale (output_digest.within_tolerance). Rounding
moves them by about 1e-16 relative, so a platform or an intended last-bit
change passes, and a change of the model does not.

A change that moves outputs on purpose, or adds a run, records the digest
lines from the root of the checkout:

    python -c 'import json, sys; sys.path.insert(0, "scripts");
    import output_digest as d; print(json.dumps({"environments": [d.environment()],
    "lines": list(d.digest_lines())}, indent=2))' > tests/reference_digests.json

and says in CHANGES.md which lines changed and why. That leaves the
recording environment alone on the list; another joins it once the script
prints every line there.

The tolerance level is not re-recorded whole: `python
scripts/output_digest.py --values` prints every record afresh, and on
another machine than the recording one the last digits of records that
did not move differ, where summary.json and numpy's reductions round
differently. So a change that adds a run splices in only the labels that
are new and keeps every recorded label as it stands:

    python -c 'import json, sys; sys.path.insert(0, "scripts");
    import output_digest as d; old = json.load(open("tests/reference_values.json"));
    print(d.values_json({label: old["runs"].get(label, record)
                         for label, record in d.values().items()}), end="")' > values.json
    mv values.json tests/reference_values.json

A record is replaced only when a change moves its run beyond the
tolerance on purpose: delete its label from the file first, and say so
in CHANGES.md.
"""

import functools
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = json.loads((ROOT / "tests" / "reference_digests.json").read_text())
VALUES = json.loads((ROOT / "tests" / "reference_values.json").read_text())


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


@functools.lru_cache(maxsize=1)
def _references() -> tuple:
    """One pass over the reference runs: (digest lines, {label: record})."""
    runs = list(_output_digest().references())
    return ([line for _, line, _ in runs],
            {label: rec for label, _, rec in runs if rec is not None})


def test_reference_runs_write_the_recorded_artifacts():
    digest = _output_digest()
    try:
        environment = digest.environment()
    except (TypeError, KeyError) as exc:  # numpy before show_config(mode=...)
        pytest.skip(f"this numpy does not report its build and SIMD extensions: {exc!r}")
    if environment not in REFERENCE["environments"]:
        pytest.skip(f"digests recorded on {REFERENCE['environments']}, "
                    f"this environment is {environment}; the tolerance level "
                    "ran instead")
    assert _references()[0] == REFERENCE["lines"]


def test_reference_labels_are_unique():
    # the records are keyed by label: a repeated one would hide a run
    labels = [line.partition("  ")[2] for line in _references()[0]]
    assert len(set(labels)) == len(labels)


def test_reference_runs_match_the_recorded_values_within_tolerance():
    digest = _output_digest()
    assert (VALUES["rtol"], VALUES["floor"]) == (digest.RTOL, digest.FLOOR)
    records = _references()[1]
    assert records.keys() == VALUES["runs"].keys()
    errors = [f"{label}: {error}" for label, rec in records.items()
              for error in digest.within_tolerance(rec, VALUES["runs"][label])]
    assert not errors, "\n".join(errors[:20])


def test_the_tolerance_level_tells_rounding_from_a_change():
    digest = _output_digest()
    want = VALUES["runs"]["mimo2x2_16qam"]
    assert digest.within_tolerance(want, want) == []

    def moved(name, group, factor):
        got = json.loads(json.dumps(want))
        got[name][group] = [v * factor for v in got[name][group]]
        return digest.within_tolerance(got, want)

    # the detected coordinates, against their floor of 1 (peak-normalized)
    assert moved("constellation_0.npy", "i", 1 + 1e-12) == []
    assert moved("constellation_0.npy", "i", 1 + 1e-7) != []
    # a noiseless EVM is rounding noise: any value far below 1e-7 % passes
    assert moved("summary.json", "reports.link.evm_percent", 1e3) == []
    assert moved("summary.json", "reports.link.condition_number", 1 + 1e-8) != []
    assert moved("spectrum_rx0.npy", "power_linear", 1 - 1e-8) != []
    got = json.loads(json.dumps(want))
    got["summary.json"]["reports.link.ber"] = [0.0, 1e-4]
    assert digest.within_tolerance(got, want) != []
    del got["summary.json"]
    assert digest.within_tolerance(got, want) == ["summary.json: missing"]
