#!/usr/bin/env python3
"""Compares two kept benchmark results, refusing when their hosts differ.

    python3 perfbench/compare.py BASE.json NEW.json

Both files are records that perfbench/run.py keeps under
.bench_build/results/. Results are comparable only when their provenance
"host" fields (cores, CPU model, SIMD tier, compiler, build type and the
FLATDD_* environment) are equal; otherwise this exits 2 and prints the
fields that differ. The revision is what a comparison compares, so it may
differ. For each metric it prints both values and the change as a share of
the base, marking changes beyond the metric's bound in BENCHMARK.json (a
single pair of runs says little; judge a change on medians of many seeds).
"""

import json
import os
import sys


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, new = (json.load(open(p, encoding="utf-8")) for p in sys.argv[1:])
    host_a = base["provenance"]["host"]
    host_b = new["provenance"]["host"]
    differ = sorted(k for k in set(host_a) | set(host_b)
                    if host_a.get(k) != host_b.get(k))
    if differ:
        print("refusing to compare results from different hosts:",
              file=sys.stderr)
        for k in differ:
            print(f"  {k}: {host_a.get(k)!r} vs {host_b.get(k)!r}",
                  file=sys.stderr)
        return 2
    if (base["workload"], base["trace"]) != (new["workload"], new["trace"]):
        print("refusing to compare different workloads or run kinds",
              file=sys.stderr)
        return 2

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"{base['workload']}: {base['provenance']['revision']} (seed "
          f"{base['seed']}) -> {new['provenance']['revision']} (seed "
          f"{new['seed']})")
    for name, entry in base["result"]["metrics"].items():
        a = entry["value"]
        b = new["result"]["metrics"].get(name, {}).get("value")
        if b is None:
            print(f"  {name:34s} missing in the new result")
            continue
        change = (b - a) / a if a else float("nan")
        spec = specs.get(name, {})
        worse = change > 0 if spec.get("better") == "lower" else change < 0
        mark = ""
        if "bound" in spec and worse and abs(change) > spec["bound"]:
            mark = "  beyond bound"
        print(f"  {name:34s} {a:12.4f} -> {b:12.4f} {entry['unit']:6s} "
              f"{change:+8.1%}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
