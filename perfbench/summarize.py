"""Summarize the run records that perfbench/run.py left in .bench_out/.

    python3 perfbench/summarize.py                      # print the table
    python3 perfbench/summarize.py --write perfbench/baseline.json

For each workload and end-to-end metric it prints the median over seeds, the
quartiles as `statistics.quantiles(values, n=4)` gives them, and the spread
(q3 - q1) / median next to the bound in BENCHMARK.json; `!` marks a spread
above a third of its bound. Traced records give per-layer medians. With
`--write` it stores all of it, with every seed's fingerprint and outputs, as
the baseline a later change compares against.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", default=str(ROOT / ".bench_out"))
    parser.add_argument("--write", help="write the summary as a baseline JSON file")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    records = [json.loads(p.read_text()) for p in sorted(Path(args.dir).glob("*.json"))]
    if not records:
        print(f"no records in {args.dir}", file=sys.stderr)
        return 1
    out = {"metadata": records[0]["metadata"], "workloads": {}}
    for w in bench["workloads"]:
        name = w["name"]
        plain = [r for r in records if r["workload"] == name and not r["trace"]]
        traced = [r for r in records if r["workload"] == name and r["trace"]]
        if not plain and not traced:
            continue
        entry = {"why": w["why"], "end_to_end": {}, "per_layer": {}, "per_seed": {}}
        print(f"{name}: {len(plain)} untraced, {len(traced)} traced records")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in plain
                      if metric in r["metrics"]]
            if not values:
                continue
            s = summary(values)
            s["unit"] = plain[0]["metrics"][metric]["unit"]
            entry["end_to_end"][metric] = s
            flag = "!" if s["spread"] > bound / 3 else " "
            print(f"  {metric:12s} median {s['median']:10.5g} {s['unit']:3s} "
                  f"q1 {s['q1']:10.5g} q3 {s['q3']:10.5g} n {s['n']:2d} "
                  f"spread {s['spread']:.4f} {flag} bound {bound}")
        if traced:
            for metric, m in traced[0]["metrics"].items():
                values = [r["metrics"][metric]["value"] for r in traced]
                entry["per_layer"][metric] = {"median": statistics.median(values),
                                              "unit": m["unit"], "n": len(values)}
        for r in plain + traced:
            for seed, result in r["per_seed"].items():
                kept = entry["per_seed"].setdefault(seed, result)
                if kept["fingerprint"] != result["fingerprint"]:
                    print(f"  sub-seed {seed}: fingerprints differ between records")
                    kept["fingerprint_mismatch"] = True
        bad = [r["seed"] for r in plain + traced if not r["correct"]]
        if bad:
            print(f"  incorrect runs at seeds {bad}")
        entry["load_avg_1min"] = [r["load_avg_start"][0] for r in plain]
        out["workloads"][name] = entry
    if args.write:
        Path(args.write).write_text(json.dumps(out, indent=1) + "\n")
        print(f"wrote {args.write}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
