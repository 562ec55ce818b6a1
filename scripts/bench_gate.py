#!/usr/bin/env python3
"""Bench regression gate: diff BENCH.json against the committed baseline.

Gates only deterministic fields per circuit -- the whole pipeline is
bit-identical across runs and machines, so these should only drift when
the code changes them.  Every other invariant is checked by
bench/main.exe where it computes the value; a failed check makes the
bench itself exit 1.

A quality metric (routability, via count, wirelength; every flow) fails
the gate when it moves in the *worse* direction (lower routability,
more vias, more wirelength) by more than RTOL; improvements are
reported as notes.  The PAO bytes of the CPR flow (its objective and
summed LR iterations) fail on any move at all, like a golden-file diff,
and so do the ECO rows' bytes (the edit stream's final PAO objective,
the panel cache's hit rate and the warm-started solve count) whenever
the run includes the eco experiment.
The baseline is one committed file at one scale, so a BENCH.json
recorded at another scale is refused before any diff.

Usage:
    scripts/bench_gate.py [--current BENCH.json]
                          [--baseline bench/BASELINE.json]

Exit codes: 0 gate passes, 1 regression, scale mismatch or malformed input.
"""

import argparse
import json
import sys

FLOWS = ("seq", "ncr", "cpr")
# metric name -> +1 if bigger is better, -1 if smaller is better
METRICS = {"routability": +1, "via_count": -1, "wirelength": -1}
# relative move in the worse direction before a metric fails
RTOL = 0.01
# fields of the cpr flow that must match the baseline exactly
EXACT = ("pao_objective", "lr_iterations")
# fields of each eco row that must match the baseline exactly
ECO_EXACT = ("pao_objective", "hit_rate", "warm_started")


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench gate: cannot read {path}: {e}")


def by_id(doc, path):
    circuits = doc.get("circuits") or sys.exit(f"bench gate: no circuits in {path}")
    return {c["id"]: c["flows"] for c in circuits}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--current", default="BENCH.json")
    ap.add_argument("--baseline", default="bench/BASELINE.json")
    args = ap.parse_args()

    cur_doc, base_doc = load(args.current), load(args.baseline)
    if cur_doc.get("scale") != base_doc.get("scale"):
        print(
            f"bench gate: {args.current} was recorded at scale "
            f"{cur_doc.get('scale')}, {args.baseline} at scale "
            f"{base_doc.get('scale')}; rerun the bench at the baseline's scale",
            file=sys.stderr,
        )
        return 1

    failures, notes = [], []
    base = by_id(base_doc, args.baseline)
    cur = by_id(cur_doc, args.current)
    for cid, base_flows in sorted(base.items()):
        if cid not in cur:
            failures.append(f"{cid}: circuit missing from {args.current}")
            continue
        for flow in FLOWS:
            for metric, better in METRICS.items():
                b = base_flows[flow][metric]
                c = cur[cid][flow][metric]
                if b == c:
                    continue
                rel = (c - b) / max(abs(b), 1e-9)
                tag = f"{cid}.{flow}.{metric}: {b} -> {c} ({rel:+.2%})"
                if rel * better < -RTOL:
                    failures.append(tag)
                else:
                    notes.append(tag)
        for field in EXACT:
            b = base_flows["cpr"].get(field)
            c = cur[cid]["cpr"].get(field)
            if b is None or b != c:
                failures.append(f"{cid}.cpr.{field}: {b} -> {c} (must not move)")

    for cid in sorted(set(cur) - set(base)):
        notes.append(f"{cid}: new circuit, not in baseline")

    if "eco" in (cur_doc.get("experiments") or []):
        base_eco = {r["id"]: r for r in base_doc.get("eco") or []}
        if not base_eco:
            failures.append(f"eco: no rows in {args.baseline}")
        cur_eco = {r["id"]: r for r in cur_doc.get("eco") or []}
        for rid, b_row in sorted(base_eco.items()):
            c_row = cur_eco.get(rid, {})
            for field in ECO_EXACT:
                b, c = b_row.get(field), c_row.get(field)
                if b is None or b != c:
                    failures.append(f"eco.{rid}.{field}: {b} -> {c} (must not move)")
    else:
        notes.append("eco experiment not run: its rows are not checked")

    if notes:
        print("bench gate: drift within tolerance / improvements:")
        for n in notes:
            print(f"  note  {n}")
    if failures:
        print("bench gate: FAILED against the committed baseline:", file=sys.stderr)
        for f in failures:
            print(f"  FAIL  {f}", file=sys.stderr)
        print(
            "If the change is intended, regenerate bench/BASELINE.json "
            "(see .github/workflows/README.md) and commit it with an "
            "explanation.",
            file=sys.stderr,
        )
        return 1
    print(f"bench gate: OK ({len(base)} circuits, rtol {RTOL}, PAO and ECO exact)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
