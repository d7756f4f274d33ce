"""Summarize benchmark result records: medians, quartile spreads, overhead.

    python3 perfbench/summarize.py [--results DIR] [--code-id PREFIX] [--json OUT]

Reads the records ``run.py`` writes under ``.perfbench_work/results`` and
prints, per workload, each end-to-end metric's median and its quartile
spread ``(q3 - q1) / median`` over the untraced runs, next to the bound in
BENCHMARK.json. For traced runs it prints the median per-layer figures and
the tracing overhead: the median traced timed wall time minus the median
untraced one, over the seeds that have runs of both kinds.
``--json`` also writes the summary, which is how ``baseline.json`` is made.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def load(results_dir: str, code_prefix: str | None) -> list[dict]:
    records = []
    for path in sorted(glob.glob(os.path.join(results_dir, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        if code_prefix and not rec["env"]["code_id"].startswith(code_prefix):
            continue
        records.append(rec)
    return records


def summarize(records: list[dict], bench: dict) -> dict:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out: dict = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        plain = [r for r in records if r["workload"] == workload and not r["trace"]]
        traced = [r for r in records if r["workload"] == workload and r["trace"]]
        if not plain and not traced:
            continue
        row: dict = {
            "runs": len(plain),
            "seeds": sorted({r["seed"] for r in plain}),
            "failed_runs": sum(1 for r in plain if r["failures"]),
            "end_to_end": {},
        }
        for name, bound in bounds.items():
            values = [r["end_to_end"][name] for r in plain]
            if values:
                row["end_to_end"][name] = {
                    "median": statistics.median(values),
                    "spread": spread(values),
                    "bound": bound,
                    "values": values,
                }
        extra_keys = ("decide_mean_ms", "decide_p50_ms", "decide_p99_ms", "decisions", "load_mean_s", "load_max_s",
                      "analyze_mean_s", "analyze_max_s", "tau_rmse", "coverage", "engine_air", "model_bytes", "wall_s")
        for key in extra_keys:
            values = [r["extra"][key] for r in plain if key in r["extra"]]
            if values:
                row.setdefault("extra_medians", {})[key] = statistics.median(values)
        digests = {json.dumps(r["digests"], sort_keys=True) for r in plain}
        row["distinct_digest_sets"] = len(digests)
        if traced:
            names = traced[0]["per_layer"].keys()
            row["per_layer"] = {n: statistics.median(r["per_layer"][n] for r in traced) for n in names}
            # the work differs between seeds, so compare runs of one seed
            seeds = {r["seed"] for r in traced} & {r["seed"] for r in plain}

            def wall(runs: list[dict]) -> float:
                return statistics.median(r["extra"]["wall_s"] for r in runs if r["seed"] in seeds)

            if seeds:
                untraced_wall = wall(plain)
                row["trace_overhead_s"] = wall(traced) - untraced_wall
                row["untraced_wall_s"] = untraced_wall
                row["trace_overhead_seeds"] = sorted(seeds)
        out[workload] = row
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--results", default=os.path.join(ROOT, ".perfbench_work", "results"))
    parser.add_argument("--code-id", default=None, help="only records whose code_id starts with this")
    parser.add_argument("--json", default=None, help="also write the summary to this file")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    records = load(args.results, args.code_id)
    if not records:
        print("no result records found", file=sys.stderr)
        return 1
    summary = summarize(records, bench)
    for workload, row in summary.items():
        print(f"{workload}: {row['runs']} runs, seeds {row['seeds']}, failed runs {row['failed_runs']}, "
              f"distinct digest sets {row['distinct_digest_sets']}")
        for name, m in row["end_to_end"].items():
            flag = "" if m["spread"] <= m["bound"] / 3 else ("  > bound/3" if m["spread"] <= m["bound"] else "  > BOUND")
            print(f"  {name:16s} median {m['median']:12.5g}  spread {m['spread']:.4f}  bound {m['bound']}{flag}")
        if "trace_overhead_s" in row:
            print(f"  tracing overhead {row['trace_overhead_s']:.3f} s on {row['untraced_wall_s']:.3f} s untraced")
    if args.json:
        envs = {json.dumps({k: v for k, v in r["env"].items()}, sort_keys=True) for r in records}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"env": [json.loads(e) for e in sorted(envs)], "workloads": summary}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
