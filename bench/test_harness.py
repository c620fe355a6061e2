"""Self-checks of the benchmark harness: span arithmetic and the failure count.

Run from the repository root:  python3 -m pytest -q bench/test_harness.py
"""

from types import SimpleNamespace

import run
import spans as sp
from workloads import WORKLOADS


def span(name, start, end, parent):
    return sp.Span(name, start, end, parent, 0, 0)


# A(0..10) holds B(1..4) and D(5..9); B holds C(2..3)
NESTED = [span("scenario.a", 0.0, 10.0, -1), span("propagation.b", 1.0, 4.0, 0),
          span("core.c", 2.0, 3.0, 1), span("propagation.d", 5.0, 9.0, 0)]


def test_self_time_subtracts_direct_children_only():
    assert sp.self_times(NESTED) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_of_a_later_pass_uses_its_own_offset():
    later = [s._replace(parent=s.parent + 7 if s.parent >= 0 else -1) for s in NESTED]
    assert sp.self_times(later, first=7) == [3.0, 2.0, 1.0, 4.0]


def test_pass_metrics_sum_layers_and_count_uncovered_time():
    m = sp.pass_metrics(NESTED, 0, 12.5, ["scenario", "propagation", "core"],
                        ["propagation.b"])
    assert m["scenario.self_s"] == 3.0 and m["scenario.calls"] == 1
    assert m["propagation.self_s"] == 6.0 and m["propagation.calls"] == 2
    assert m["core.self_s"] == 1.0
    assert m["propagation.b.s"] == 3.0 and m["propagation.b.calls"] == 1
    assert m["trace.unattributed_s"] == 2.5
    # self times partition the covered time exactly
    assert sum(m[f"{x}.self_s"] for x in ("scenario", "propagation", "core")) == 10.0


def test_tracer_records_parents_and_returned_bytes():
    import numpy as np

    ticks = iter(range(100))
    tracer = sp.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.shim("core.inner", lambda: np.zeros(4))
    outer = tracer.shim("scenario.outer", lambda: [inner(), inner()])
    outer()
    assert [(s.name, s.parent, s.out_bytes) for s in tracer.spans] == [
        ("scenario.outer", -1, 64), ("core.inner", 0, 32), ("core.inner", 0, 32)]
    assert sp.self_times(tracer.spans) == [3.0, 1.0, 1.0]


def _mimo_result(ber):
    return SimpleNamespace(summary={"reports": {"link": {
        "ber": ber, "evm_percent": [1e-12, 1e-12]}}})


def test_wrong_result_counts_as_failed():
    gate = run.Gate(WORKLOADS["mimo_frame"], [None])
    gate.score([_mimo_result([0.0, 0.0])])
    assert (gate.attempted, gate.failed) == (1, 0)
    gate.score([_mimo_result([0.5, 0.0])])
    assert (gate.attempted, gate.failed) == (2, 1)
    assert gate.failed_fraction == 0.5


def test_exception_and_changed_rerun_count_as_failed():
    gate = run.Gate(WORKLOADS["mimo_frame"], [None])
    gate.score([_mimo_result([0.0, 0.0])])
    changed = _mimo_result([0.0, 0.0])
    changed.summary["reports"]["link"]["evm_percent"] = [2e-12, 1e-12]
    gate.score([changed])
    gate.score([RuntimeError("boom")])
    assert (gate.attempted, gate.failed) == (3, 2)


def test_instrumented_pipeline_nests_layers_and_restores():
    ml = run.import_metalink()
    cases = WORKLOADS["param_sweep"].build(ml, 5)
    case = next(c for c in cases if c.data["mode"] == "transmit_link")
    original = ml.scenario.validate
    tracer = sp.Tracer()
    undo = sp.instrument(tracer, ml, sp.layer_modules(ml))
    try:
        WORKLOADS["param_sweep"].run(ml, case, None)
    finally:
        sp.uninstrument(undo)
    assert ml.scenario.validate is original
    names = [s.name for s in tracer.spans]

    def parent_of(name):
        return names[tracer.spans[names.index(name)].parent]

    assert parent_of("scenario.validate") == "scenario.from_dict"
    assert parent_of("txrx.demap_symbols") == "txrx.receive_frame"
    simulate = names.index("scenario.simulate")
    children = {s.layer for s in tracer.spans if s.parent == simulate}
    assert children == {"propagation", "metasurface", "core", "txrx", "spectral"}
    assert all(t >= 0.0 for t in sp.self_times(tracer.spans))
