"""Repeat the benchmark over several seeds and summarize the spread.

    python3 bench/repeat.py --seeds 1-10 [--trace] [--out bench/baseline.json]

Runs ``bench/run.py`` once per (workload, seed) for every workload in
BENCHMARK.json, one process at a time, and prints for each end-to-end metric
its median, quartiles and the distance between the quartiles as a share of
the median (``statistics.quantiles`` with n=4).  ``--trace`` adds one traced run per workload, at the first seed.
``--out`` writes the summary, the per-layer numbers and every raw run as JSON.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path
from statistics import quantiles

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, trace: bool) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]),
                             "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not trace:
        result["unscaled"] = json.loads(lines[-2].removeprefix("unscaled "))
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
    return result


def summarize(values: list) -> dict:
    q1, mid, q3 = quantiles(values, n=4)
    return {"median": mid, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / mid if mid else 0.0}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    seeds = seed_range(args.seeds)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report = {"machine": f"{platform.machine()}, Python {platform.python_version()}",
              "seeds": seeds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [run_once(workload, seed, False) for seed in seeds]
        entry = {"runs": runs, "end_to_end": {}}
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{workload}: correct {all(r['correct'] for r in runs)}, "
              f"failed {failed}/{attempted} ops")
        ok = ok and failed == 0 and all(r["correct"] for r in runs)
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = s
            flag = "" if s["spread"] <= bound / 3 else "  (above a third of the bound)"
            print(f"  {name:13s} median {s['median']:10.4f}  q1 {s['q1']:10.4f}  "
                  f"q3 {s['q3']:10.4f}  spread {s['spread']:.4f} / bound {bound}{flag}")
        entry["unscaled"] = {name: summarize([r["unscaled"][name] for r in runs])
                             for name in ("run_s", "ref_s")}
        for name, s in entry["unscaled"].items():
            print(f"  unscaled {name:6s} median {s['median']:10.4f}  spread {s['spread']:.4f}")
        if args.trace:
            traced = run_once(workload, seeds[0], True)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
