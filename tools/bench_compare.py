#!/usr/bin/env python3
"""Compare two directories of pipeleon bench reports and flag regressions.

Each directory holds BENCH_<name>.json files in the pipeleon.bench_report/1
schema. For every report present in BOTH directories, the gated metrics are
diffed with a relative tolerance:

  throughput_gbps  higher is better: regression when
                   current < baseline * (1 - tolerance)
  latency_p99      lower is better: regression when
                   current > baseline * (1 + tolerance)

Benches listed in PER_BENCH_METRICS gate additional metrics of their own
(e.g. ext_hierarchical_memory gates tiered_goodput_mpps higher-is-better
and tiered_eff_cycles lower-is-better) on top of the common set.

A brand-new bench (present only in the current run) prints
"new <name>: no baseline, not gated" and passes. A bench present in the
baseline but MISSING from the current run is a coverage regression — a
bench that silently stopped running would otherwise retire its own gate —
and fails with exit 1 unless the name is listed via --allow-missing
(the allowlist for intentionally retired benches). A missing or empty
baseline directory (fresh branch, no artifact yet) passes trivially.
Metrics missing or zero on either side are skipped (a zero baseline means
the bench didn't exercise that path — there is nothing meaningful to gate
against). Exit status: 0 = no regression, 1 = at least one regression
(metric or coverage), 2 = usage/IO error.

Usage:
  tools/bench_compare.py BASELINE_DIR CURRENT_DIR [--tolerance 0.15]
                         [--metrics throughput_gbps,latency_p99]
                         [--allow-missing old_bench,other_bench]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SCHEMA = "pipeleon.bench_report/1"

# metric name -> direction ("higher" / "lower" is better)
DEFAULT_METRICS = {
    "throughput_gbps": "higher",
    "latency_p99": "lower",
}

# Extra gated metrics for specific benches, merged on top of the common set
# (and on top of --metrics when given). Keeps bench-specific KPIs gated
# without forcing every other report to carry them.
PER_BENCH_METRICS: dict[str, dict[str, str]] = {
    "ext_hierarchical_memory": {
        "tiered_goodput_mpps": "higher",
        "tiered_eff_cycles": "lower",
    },
    "micro_match": {
        "probe_ns_per_key": "lower",
        "lookup_ns_lpm24": "lower",
    },
    "fig13_opt_speed": {
        "median_k20_ms": "lower",
        "median_esearch_ms": "lower",
    },
}


def load_reports(directory: Path) -> dict[str, dict]:
    """Maps bench name -> report dict for every BENCH_*.json in directory."""
    reports = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            with path.open() as f:
                report = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"warning: skipping unreadable {path}: {exc}")
            continue
        if not isinstance(report, dict) or report.get("schema") != SCHEMA:
            schema = report.get("schema") if isinstance(report, dict) else None
            print(f"warning: skipping {path}: schema {schema!r}")
            continue
        if not isinstance(report.get("metrics", {}), dict):
            print(f"warning: skipping {path}: 'metrics' is not an object")
            continue
        name = report.get("bench", path.stem)
        if name in reports:
            print(f"warning: duplicate bench {name!r} ({path} shadows an "
                  f"earlier report); keeping the last one")
        reports[name] = report
    return reports


def compare(baseline: dict[str, dict], current: dict[str, dict],
            metrics: dict[str, str], tolerance: float,
            allow_missing: set[str]) -> int:
    regressions = 0
    common = sorted(set(baseline) & set(current))
    for name in sorted(set(current) - set(baseline)):
        print(f"  new   {name}: no baseline, not gated")
    for name in sorted(set(baseline) - set(current)):
        if name in allow_missing:
            print(f"  gone  {name}: retired (allowlisted), not gated")
        else:
            print(f"  MISSING  {name}: in baseline but absent from the "
                  "current run — coverage regression (allowlist retired "
                  "benches with --allow-missing)")
            regressions += 1

    for name in common:
        base_m = baseline[name].get("metrics", {})
        cur_m = current[name].get("metrics", {})
        gated = dict(metrics)
        gated.update(PER_BENCH_METRICS.get(name, {}))
        for metric, direction in gated.items():
            base = base_m.get(metric)
            cur = cur_m.get(metric)
            if not isinstance(base, (int, float)) or not isinstance(
                    cur, (int, float)) or base <= 0 or cur < 0:
                continue
            delta = (cur - base) / base
            if direction == "higher":
                regressed = cur < base * (1.0 - tolerance)
                arrow = "↓" if delta < 0 else "↑"
            else:
                regressed = cur > base * (1.0 + tolerance)
                arrow = "↑" if delta > 0 else "↓"
            verdict = "REGRESSION" if regressed else "ok"
            print(f"  {verdict:>10}  {name}.{metric}: "
                  f"{base:g} -> {cur:g} ({arrow}{abs(delta) * 100:.1f}%, "
                  f"tolerance {tolerance * 100:.0f}%)")
            regressions += regressed
    return regressions


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", type=Path, help="directory of baseline reports")
    parser.add_argument("current", type=Path, help="directory of current reports")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed relative change (default 0.15 = 15%%)")
    parser.add_argument("--metrics", default=None,
                        help="comma-separated list; prefix a name with '-' for "
                             "lower-is-better (default: throughput_gbps,"
                             "-latency_p99)")
    parser.add_argument("--allow-missing", default="",
                        help="comma-separated bench names that may be present "
                             "in the baseline but absent from the current run "
                             "(intentionally retired benches)")
    args = parser.parse_args(argv)

    if not args.current.is_dir():
        print(f"error: current directory {args.current} does not exist")
        return 2
    if not args.baseline.is_dir():
        # A missing baseline directory is the normal state of a fresh branch
        # (no artifact published yet) — same trivial pass as an empty one.
        print(f"no baseline directory at {args.baseline}; "
              "gate passes trivially")
        return 0
    if not 0.0 <= args.tolerance < 1.0:
        print(f"error: tolerance {args.tolerance} outside [0, 1)")
        return 2

    metrics = dict(DEFAULT_METRICS)
    if args.metrics is not None:
        metrics = {}
        for raw in args.metrics.split(","):
            raw = raw.strip()
            if not raw:
                continue
            if raw.startswith("-"):
                metrics[raw[1:]] = "lower"
            else:
                metrics[raw] = "higher"

    baseline = load_reports(args.baseline)
    current = load_reports(args.current)
    if not current:
        print(f"error: no {SCHEMA} reports found in {args.current}")
        return 2
    if not baseline:
        # First run on a fresh main: nothing to gate against yet.
        print(f"no baseline reports in {args.baseline}; gate passes trivially")
        return 0

    allow_missing = {s.strip() for s in args.allow_missing.split(",")
                     if s.strip()}
    print(f"comparing {len(current)} report(s) against "
          f"{len(baseline)} baseline report(s):")
    regressions = compare(baseline, current, metrics, args.tolerance,
                          allow_missing)
    if regressions:
        print(f"\n{regressions} regression(s) (metric beyond "
              f"{args.tolerance * 100:.0f}% tolerance, or missing bench)")
        return 1
    print("\nno regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
