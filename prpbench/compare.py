#!/usr/bin/env python3
"""Compare two sets of prpbench runs, workload by workload.

    python3 prpbench/compare.py BASE_DIR NEW_DIR

Each directory holds one file per run with that run's whole stdout (the
fingerprint line, the run line and the result line). For every workload and
end-to-end metric it prints both medians, each set's spread (interquartile
range over median) and the change against the metric's bound in
BENCHMARK.json. Runs whose host fingerprints differ (CPU, vCPUs, LLC, RAM,
compiler, flags, build type, or a triad bandwidth more than 20% apart) are
reported as not comparable rather than as a regression or a gain.

Exit status: 0 comparable and nothing worse than its bound, 1 a regression,
2 not comparable.
"""
import json
import statistics
import sys
from pathlib import Path

HOST_KEYS = ("cpu_model", "vcpus", "llc_bytes", "ram_bytes", "compiler",
             "cxx_flags", "build_type")
TRIAD_TOLERANCE = 0.20


def load(directory):
    runs = []
    for path in sorted(Path(directory).iterdir()):
        lines = [l for l in path.read_text().splitlines() if l.startswith("{")]
        if len(lines) < 3:
            continue
        fingerprint = json.loads(lines[0])["fingerprint"]
        run = json.loads(lines[1])["run"]
        result = json.loads(lines[-1])
        if run["trace"]:
            continue
        runs.append((fingerprint, run, result))
    return runs


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def comparable(base, new):
    reasons = []
    hosts = {tuple(f[k] for k in HOST_KEYS) for f, _, _ in base + new}
    if len(hosts) > 1:
        reasons.append("host fingerprints differ: " + "; ".join(
            ", ".join(map(str, h)) for h in sorted(hosts)))
    triad = [statistics.median(f["triad_gbps"] for f, _, _ in runs)
             for runs in (base, new)]
    if abs(triad[1] / triad[0] - 1) > TRIAD_TOLERANCE:
        reasons.append(f"triad bandwidth {triad[0]:.2f} vs {triad[1]:.2f} GB/s")
    return reasons


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent /
                       "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load(sys.argv[1]), load(sys.argv[2])
    if not base or not new:
        print("no untraced runs found", file=sys.stderr)
        return 2
    reasons = comparable(base, new)
    shas = [sorted({f["git_sha"] for f, _, _ in runs}) for runs in (base, new)]
    print(f"base {', '.join(shas[0])}  vs  new {', '.join(shas[1])}")
    if reasons:
        print("NOT COMPARABLE: " + "; ".join(reasons))
        return 2

    regressed = False
    for workload in sorted({r["workload"] for _, r, _ in base}):
        sets = [[res for _, r, res in runs if r["workload"] == workload]
                for runs in (base, new)]
        if not sets[1]:
            print(f"\n{workload}: no runs in the new set")
            continue
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s)
                  for s in sets]
        print(f"\n{workload}  ({len(sets[0])} vs {len(sets[1])} runs, "
              f"failed share {shares[0]:.3g} vs {shares[1]:.3g})")
        for name, metric in metrics.items():
            values = [[r["metrics"][name]["value"] for r in s] for s in sets]
            medians = [statistics.median(v) for v in values]
            change = medians[1] / medians[0] - 1
            worse = change if metric["better"] == "lower" else -change
            verdict = ("REGRESSED" if worse > metric["bound"] else
                       "better" if worse < 0 else "within bound")
            regressed |= verdict == "REGRESSED"
            print(f"  {name:16s} {medians[0]:14.6g} {medians[1]:14.6g} "
                  f"{metric['unit']:8s} spread {spread(values[0]):.3f}/"
                  f"{spread(values[1]):.3f}  change {change:+.1%} "
                  f"(bound {metric['bound']:.0%})  {verdict}")
        if shares[0] != shares[1]:
            regressed = True
            print("  failed share differs")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
