#!/usr/bin/env python3
"""metalink benchmark: run one workload, timed end to end or traced per layer.

Usage, from the root of a metalink checkout:

    python3 bench/run.py --workload sdc_wide --seed 1 --seconds 20 --trace 0

Workloads are defined in bench/workloads.py. With --trace 0 the run prints
the end-to-end metrics of BENCHMARK.json; with --trace 1 it alternates
untraced and traced passes and prints the per-layer metrics, and writes the
spans to bench/out/. Every pass is checked for correctness. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. metalink is imported from src/ of this checkout, never
from an installed copy; without it the run exits with code 1.
"""

import os

# Fixed BLAS/OpenMP thread count, set before numpy loads; child processes
# inherit it. One thread keeps a run from oversubscribing shared cores.
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402  (stdlib only: no numpy yet)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
MIN_PASSES = 3
SETUP_PROBES = 11
CHILD_TIMEOUT_S = 120
# functions whose inclusive time and call count are reported by name
NAMED = ("scenario.validate", "scenario.from_dict", "scenario.simulate",
         "scenario.write_artifacts", "propagation.build_channels",
         "txrx.receive_frame", "spectral.periodogram")


def import_metalink():
    init = SRC / "metalink" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: {init} is missing; run from the root of a metalink checkout")
    sys.path.insert(0, str(SRC))
    import metalink
    if Path(metalink.__file__).resolve() != init.resolve():
        sys.exit(f"bench: imported metalink from {metalink.__file__}, not {init}")
    return metalink


def machine() -> dict:
    """Fingerprint of the host and the numeric stack."""
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu": cpu, "ram_gb": round(ram / 1e9, 2),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": THREADS}


# ---------------------------------------------------------------------------
# passes and the correctness gate
# ---------------------------------------------------------------------------

def run_pass(ml, workload, cases, out_dir: Path):
    """Run every case once; returns (wall seconds, results or exceptions)."""
    results = []
    start = time.perf_counter()
    for index, case in enumerate(cases):
        try:
            results.append(workload.run(ml, case, out_dir / str(index)))
        except Exception as exc:  # a failing scenario is counted, not fatal
            results.append(exc)
    return time.perf_counter() - start, results


class Gate:
    """Counts scenario runs, and those that raised, failed their workload's
    check, or gave a summary different from the first pass with the same
    inputs."""

    def __init__(self, workload, cases):
        self.workload = workload
        self.cases = cases
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reference = None

    def score(self, results) -> None:
        summaries = []
        for index, (case, result) in enumerate(zip(self.cases, results)):
            summary = getattr(result, "summary", None)
            if isinstance(result, Exception):
                errors = [f"raised {result!r}"]
            else:
                try:
                    errors = self.workload.check(case, result)
                except Exception as exc:  # a malformed result fails its check
                    errors = [f"check raised {exc!r}"]
            if self.reference is not None and summary != self.reference[index]:
                errors.append("summary differs from the first run of the same inputs")
            summaries.append(summary)
            self.attempted += 1
            if errors:
                self.failed += 1
                self.errors.append(f"case {index}: " + "; ".join(errors))
        if self.reference is None:
            self.reference = summaries

    @property
    def failed_fraction(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# child-process probes
# ---------------------------------------------------------------------------

# glibc mallopt parameters, from malloc.h
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD, M_MMAP_MAX = -1, -3, -4
# Timed runs: every allocation comes from the heap, which is never trimmed,
# so passes after the warm-up reuse memory instead of page-faulting fresh
# pages. First-touch faults cost half of an sdc_wide pass in system time,
# and their cost followed the host's load, not the program.
REUSE_MEMORY = {M_MMAP_MAX: 0, M_TRIM_THRESHOLD: 2 ** 31 - 1}
# Peak-RSS probe: glibc's 128 KiB defaults, but fixed. Left adaptive, they
# rise after the first large free, and sdc_wide's peak RSS then read 460 or
# 670 MB for the same inputs depending only on how the process was
# launched. Fixed, peak RSS follows the arrays alive at once.
LIVE_MEMORY = {M_MMAP_THRESHOLD: 128 * 1024, M_TRIM_THRESHOLD: 128 * 1024}


def set_malloc(options: dict) -> bool:
    """Apply glibc mallopt settings; False where they cannot be applied."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc
        return False
    return all([mallopt(param, value) for param, value in options.items()])


def probe_setup(scenario_path: str) -> None:
    """In a fresh interpreter: import, load, validate and type one scenario."""
    start = time.perf_counter()
    ml = import_metalink()
    ml.Scenario.from_dict(ml.load_scenario(scenario_path))  # validates first
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def probe_pass(workload, seed: int) -> None:
    """In a fresh interpreter: set up, run one pass, report peak RSS."""
    pinned = set_malloc(LIVE_MEMORY)
    ml = import_metalink()
    cases = workload.build(ml, seed)
    out_dir = OUT / f"probe-{os.getpid()}"
    try:
        _, results = run_pass(ml, workload, cases, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    failures = [r for r in results if isinstance(r, Exception)]
    if failures:
        sys.exit(f"bench: probe pass raised {failures[0]!r}")
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_mb": rss_kib * 1024 / 1e6, "malloc_pinned": pinned}))


def child(*args) -> dict:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def end_to_end(ml, workload, cases, args, out_dir: Path, gate: Gate) -> dict:
    scenario_path = out_dir / "first_scenario.json"
    first = ml.scenario.apply_overrides(cases[0].data, cases[0].overrides)
    scenario_path.write_text(json.dumps(first))
    child("--probe", "setup", "--scenario", str(scenario_path))  # warm file cache
    setups = [child("--probe", "setup", "--scenario", str(scenario_path))["setup_s"]
              for _ in range(SETUP_PROBES)]
    rss = child("--probe", "pass", "--workload", workload.name, "--seed", str(args.seed))

    gate.score(run_pass(ml, workload, cases, out_dir)[1])  # warm-up
    times = []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(times) < MIN_PASSES:
        elapsed, results = run_pass(ml, workload, cases, out_dir)
        times.append(elapsed)
        gate.score(results)
    run_s = statistics.median(times)
    print(f"passes: {len(times)} timed after 1 warm-up; run_s quartiles "
          f"{statistics.quantiles(times, n=4)} s, max {max(times)} s")
    print(f"setup_s probes: {len(setups)}, from {min(setups)} to {max(setups)} s; "
          f"peak RSS probe with fixed malloc thresholds: {rss['malloc_pinned']}")
    return {"run_s": run_s,
            "cell_samples_per_s": sum(c.work for c in cases) / run_s,
            "peak_rss_mb": rss["peak_rss_mb"],
            "setup_s": statistics.median(setups)}


def traced(ml, workload, cases, args, out_dir: Path, gate: Gate) -> dict:
    import spans as sp

    layers = sp.layer_modules(ml)
    tracer = sp.Tracer()
    gate.score(run_pass(ml, workload, cases, out_dir)[1])  # warm-up
    plain, timed, per_pass, passes = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while (time.perf_counter() < deadline
           or min(len(plain), len(timed)) < MIN_PASSES):
        first = len(tracer.spans)
        tracing = len(plain) > len(timed)
        tracer.pass_id = len(passes)
        undo = sp.instrument(tracer, ml, layers) if tracing else []
        try:
            elapsed, results = run_pass(ml, workload, cases, out_dir)
        finally:
            sp.uninstrument(undo)
        gate.score(results)
        passes.append({"id": tracer.pass_id, "traced": tracing, "seconds": elapsed})
        if not tracing:
            plain.append(elapsed)
            continue
        timed.append(elapsed)
        metrics = sp.pass_metrics(tracer.spans[first:], first, elapsed, layers, NAMED)
        metrics["scenario.write_artifacts.mb"] = dir_bytes(out_dir) / 1e6
        per_pass.append(metrics)

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "machine": machine(),
        "passes": passes, "span_fields": list(sp.Span._fields),
        "spans": [list(s) for s in tracer.spans]}))
    print(f"passes: {len(plain)} untraced and {len(timed)} traced after 1 warm-up; "
          f"spans written to {trace_path.relative_to(ROOT)}")
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["trace.run_s"] = statistics.median(timed)
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - statistics.median(plain)
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "pass"), help=argparse.SUPPRESS)
    parser.add_argument("--scenario", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.probe == "setup":
        return probe_setup(args.scenario)
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    if args.probe == "pass":
        return probe_pass(workload, args.seed)

    reuse = set_malloc(REUSE_MEMORY)
    ml = import_metalink()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("machine: " + json.dumps({**machine(), "malloc_reuse": reuse}))
    cases = workload.build(ml, args.seed)
    gate = Gate(workload, cases)
    measure, wanted = ((traced, spec["per_layer"]) if args.trace
                       else (end_to_end, spec["end_to_end"]))
    out_dir = OUT / f"run-{os.getpid()}"
    out_dir.mkdir(parents=True)
    try:
        metrics = measure(ml, workload, cases, args, out_dir, gate)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    print(f"workload {workload.name}, seed {args.seed}: {len(cases)} scenarios per pass")
    for entry in wanted:
        print(f"  {entry['name']:34s} {metrics[entry['name']]:<24.10g} {entry['unit']}")
    print(f"  {'failed_fraction':34s} {gate.failed_fraction:<24.10g} ratio "
          f"({gate.failed} of {gate.attempted} scenario runs)")
    for error in gate.errors[:10]:
        print(f"  FAILED {error}")
    print(json.dumps({
        "correct": gate.failed == 0 and gate.attempted > 0,
        "attempted": gate.attempted, "failed": gate.failed,
        "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]}
                    for e in wanted}}))


if __name__ == "__main__":
    main()
