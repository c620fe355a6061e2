#!/usr/bin/env python3
"""Record the benchmark's numbers: every workload on several seeds, plus a traced run.

Usage, from the root of a metalink checkout:

    python3 bench/record.py --seeds 1-10 --note "src at <commit>" \
        --out bench/baseline.json

For each workload of BENCHMARK.json it runs the benchmark command once per
seed with tracing off, then once traced on the first seed. It reports each
end-to-end metric's median and its spread, the distance between the first
and third quartile as a share of the median, beside the metric's bound, and
writes everything, with the machine fingerprint, to --out.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def bench(spec: dict, workload: str, seed: int, trace: int) -> tuple:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"record: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    machine = json.loads(next(ln for ln in lines if ln.startswith("machine: "))[9:])
    return json.loads(lines[-1]), machine


def spread(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable); default: all")
    parser.add_argument("--note", default="", help="what was measured, e.g. a commit")
    parser.add_argument("--out", type=Path, help="JSON file to write")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = seed_list(args.seeds)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    record = {"note": args.note, "seeds": seeds, "run_seconds": spec["run_seconds"],
              "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            result, record["machine"] = bench(spec, name, seed, 0)
            runs.append(result)
            values = ", ".join(f"{k} {v['value']:.6g}"
                               for k, v in result["metrics"].items())
            print(f"{name} seed {seed}: {values}", flush=True)
        traced, _ = bench(spec, name, seeds[0], 1)
        entry = {"attempted": sum(r["attempted"] for r in runs + [traced]),
                 "failed": sum(r["failed"] for r in runs + [traced]),
                 "end_to_end": {}, "per_layer": {
                     k: v["value"] for k, v in traced["metrics"].items()}}
        for metric in spec["end_to_end"]:
            stats = spread([r["metrics"][metric["name"]]["value"] for r in runs])
            stats["bound"] = metric["bound"]
            entry["end_to_end"][metric["name"]] = stats
            print(f"  {name:12s} {metric['name']:20s} median {stats['median']:<12.6g} "
                  f"spread {stats['spread']:.4f}  bound {metric['bound']}", flush=True)
        print(f"  {name:12s} failed {entry['failed']} of {entry['attempted']} "
              "scenario runs")
        record["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
