"""Run run.py over several seeds and summarise each metric per workload.

    python3 perfbench/baseline.py --seeds 1 2 3 --seconds 30 --trace 0 --out perfbench/baseline.json

Runs one seed at a time, from the repository root. For each workload and
metric it records every value, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles over the median. An existing ``--out`` file
keeps its other entries; this run's trace mode replaces its own.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=["q8_lamb8_4m", "logreg_adam32_f16", "mlp_lamb8_tiny"])
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    summary, machine, ok = {}, None, True
    for wl in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.splitlines()
            machine = machine or next(
                (json.loads(l[8:]) for l in lines if l.startswith("machine ")), None)
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode or not result.get("correct"):
                ok = False
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            runs.append(result)
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.6g}" for k, m in result.get("metrics", {}).items()), flush=True)
        names = runs[0].get("metrics", {})
        summary[wl] = {
            name: {"unit": names[name]["unit"],
                   **summarise([r["metrics"][name]["value"] for r in runs if "metrics" in r])}
            for name in names
        }
        for name, s in summary[wl].items():
            print(f"  {wl} {name}: median {s['median']:.6g} spread {s['spread']:.4f}")

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    doc["machine"] = machine
    doc["traced" if args.trace else "untraced"] = {
        "seeds": args.seeds, "seconds": args.seconds, "workloads": summary}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
