#!/usr/bin/env python3
"""Host-throughput perf-regression gate (CI and local).

Joins a fresh ``bench_host_throughput`` report against the committed
pre-optimisation baseline by point label, computes the geomean
speedup, and fails when it has regressed more than ``--threshold``
(default 15%) below the expected geomean — by default the
``geomean_speedup`` recorded in the committed report from the last
refresh (``bench_results/bench_host_throughput.json``), overridable
with ``--expected-geomean`` for hosts much faster or slower than the
reference container.

The gate is additionally per design: each point's speedup is compared
against the same point's ``speedup`` recorded in the committed report,
with its own (wider, noise-tolerant) ``--point-threshold`` allowance.
A regression confined to one design's components therefore cannot
hide behind wins on the others, even when the geomean still clears.

Stdlib only; exit code 0 = pass, 1 = regression, 2 = bad input.

Usage:
    python3 tools/check_perf_regression.py \
        --fresh bench_results/bench_host_throughput.json \
        [--baseline bench_results/BASELINE_host_throughput.json] \
        [--committed <last committed report>] \
        [--threshold 0.15] [--expected-geomean N]

Updating the baselines after intentional perf work is a manual step:
see bench_results/README.md for the runbook.
"""

import argparse
import json
import math
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"error: cannot read {path}: {e}")


def points_by_label(doc, path):
    pts = {}
    for p in doc.get("points", []):
        label = p.get("label")
        kcps = p.get("kilocycles_per_sec", 0.0)
        if not label or not isinstance(kcps, (int, float)) or kcps <= 0:
            sys.exit(f"error: {path}: malformed point {p!r}")
        pts[label] = float(kcps)
    if not pts:
        sys.exit(f"error: {path}: no points")
    return pts


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fresh", required=True,
                    help="JSON written by a fresh bench_host_throughput run")
    ap.add_argument("--baseline",
                    default="bench_results/BASELINE_host_throughput.json",
                    help="committed pre-optimisation baseline")
    ap.add_argument("--committed",
                    help="committed report whose geomean_speedup is the "
                         "expectation (default: the baseline of --fresh's "
                         "path under bench_results/)")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="max allowed fractional regression (default 0.15)")
    ap.add_argument("--point-threshold", type=float, default=0.25,
                    help="max allowed fractional per-design regression "
                         "vs the committed report's per-point speedup "
                         "(default 0.25; wider than --threshold because "
                         "single points are noisier than the geomean)")
    ap.add_argument("--expected-geomean", type=float,
                    help="override the expected geomean speedup")
    args = ap.parse_args()

    fresh = points_by_label(load(args.fresh), args.fresh)
    base = points_by_label(load(args.baseline), args.baseline)

    expected = args.expected_geomean
    expected_points = {}
    committed = args.committed or \
        "bench_results/bench_host_throughput.json"
    try:
        with open(committed, "r", encoding="utf-8") as f:
            committed_doc = json.load(f)
    except (OSError, ValueError) as e:
        if expected is None:
            sys.exit(f"error: cannot read {committed}: {e}")
        committed_doc = {}  # explicit expectation; per-point gate off
    for p in committed_doc.get("points", []):
        s = p.get("speedup", 0.0)
        if p.get("label") and isinstance(s, (int, float)) and s > 0:
            expected_points[p["label"]] = float(s)
    if expected is None:
        expected = committed_doc.get("geomean_speedup", 0.0)
        if not isinstance(expected, (int, float)) or expected <= 0:
            sys.exit(f"error: {committed}: no usable geomean_speedup "
                     "(pass --expected-geomean)")

    missing = sorted(set(base) - set(fresh))
    if missing:
        sys.exit(f"error: {args.fresh}: missing baseline points "
                 f"{missing} — the gate must cover every point")

    log_sum = 0.0
    point_failures = []
    print(f"{'point':24} {'kcycles/s':>10} {'baseline':>10} "
          f"{'speedup':>8} {'floor':>8}")
    for label in sorted(base):
        speedup = fresh[label] / base[label]
        log_sum += math.log(speedup)
        want = expected_points.get(label)
        point_floor = (1.0 - args.point_threshold) * want if want else None
        floor_txt = f"{point_floor:7.2f}x" if point_floor else f"{'-':>8}"
        print(f"{label:24} {fresh[label]:10.1f} {base[label]:10.1f} "
              f"{speedup:7.2f}x {floor_txt}")
        if point_floor is not None and speedup < point_floor:
            point_failures.append(
                f"  {label}: {speedup:.2f}x < floor {point_floor:.2f}x "
                f"(committed {want:.2f}x, "
                f"{args.point_threshold:.0%} allowance)")
    geomean = math.exp(log_sum / len(base))
    floor = (1.0 - args.threshold) * expected

    print(f"\ngeomean speedup: {geomean:.3f}x "
          f"(expected {expected:.3f}x, floor {floor:.3f}x "
          f"= {args.threshold:.0%} regression allowance)")
    failed = False
    if point_failures:
        print("PER-DESIGN REGRESSION: these points fell below their own "
              "floor (a loss on one topology cannot hide behind wins "
              "elsewhere):\n" + "\n".join(point_failures),
              file=sys.stderr)
        failed = True
    if geomean < floor:
        print("PERF REGRESSION: geomean speedup fell below the floor — "
              "either fix the regression or follow the baseline-update "
              "runbook in bench_results/README.md", file=sys.stderr)
        failed = True
    if failed:
        return 1
    print("OK: throughput within the regression allowance "
          "(geomean and every per-design point)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
