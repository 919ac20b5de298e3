"""Compare benchmark records of two commits, workload by workload.

    python3 bench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records that `bench/run.py --record FILE` appended
(untraced runs only are compared). For every workload and end-to-end metric
of BENCHMARK.json it prints each side's median and quartiles, the share of
pairs the change won, and a verdict:

- improved:   the change wins at least 9 of 10 pairs and the medians differ
              by more than the base's own quartile spread;
- unresolved: either side's quartile spread is wider than the metric's
              bound, unless every change run beats every base run;
- worse:      the change's median is worse than the base's by more than
              the bound;
- no worse:   otherwise.

Runs are paired by workload seed where both sides have it, else in order.
Output digests are compared per seed and reported, not judged: an
arithmetic change shows up here as "outputs differ".
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load_records(path) -> list[dict]:
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(doc, dict) and "workload" in doc and doc.get("trace") == 0:
            records.append(doc)
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["seed"]: r for r in change}
    matched = [(b, by_seed[b["seed"]]) for b in base if b["seed"] in by_seed]
    return matched if matched else list(zip(base, change))


def verdict(base: list[float], change: list[float], paired, better: str, bound: float) -> tuple[str, float]:
    """Verdict for one metric; `paired` is a list of (base, change) values."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in paired if sign * (c - b) > 0)
    won = wins / len(paired) if paired else 0.0
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    if won >= WIN_SHARE and sign * (cmed - bmed) > bq3 - bq1:
        return "improved", won
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0, (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    all_better = all(sign * (c - b) > 0 for b in base for c in change)
    if spread > bound and not all_better:
        return "unresolved", won
    worse_by = sign * (bmed - cmed) / abs(bmed) if bmed else 0.0
    return ("worse" if worse_by > bound else "no worse"), won


def compare(base_records, change_records, spec: dict) -> list[str]:
    lines = [
        f"{'workload':13s} {'metric':13s} {'base median [q1, q3]':>32s} {'change median [q1, q3]':>32s} {'won':>5s}  verdict"
    ]
    workloads = [w["name"] for w in spec["workloads"]]
    for name in workloads:
        base = [r for r in base_records if r["workload"] == name]
        change = [r for r in change_records if r["workload"] == name]
        if not base or not change:
            lines.append(f"{name:13s} (no runs on {'base' if not base else 'change'} side)")
            continue
        matched = pairs(base, change)
        for metric in spec["end_to_end"]:
            key = metric["name"]

            def value(rec):
                return rec["result"]["metrics"][key]["value"]

            b_vals, c_vals = [value(r) for r in base], [value(r) for r in change]
            v, won = verdict(
                b_vals, c_vals, [(value(b), value(c)) for b, c in matched], metric["better"], metric["bound"]
            )
            bq1, bmed, bq3 = quartiles(b_vals)
            cq1, cmed, cq3 = quartiles(c_vals)
            lines.append(
                f"{name:13s} {key:13s} {bmed:12.5g} [{bq1:8.5g}, {bq3:8.5g}] "
                f"{cmed:12.5g} [{cq1:8.5g}, {cq3:8.5g}] {won:5.2f}  {v}"
            )
        differ = sorted(b["seed"] for b, c in matched if b["outputs"]["digest"] != c["outputs"]["digest"])
        same = "outputs identical" if not differ else f"outputs differ on seeds {differ}"
        lines.append(f"{name:13s} {len(base)} base / {len(change)} change runs, {same}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare benchmark records of two commits.")
    parser.add_argument("base", help="JSONL records of the base commit")
    parser.add_argument("change", help="JSONL records of the changed commit")
    parser.add_argument("--spec", default=str(ROOT / "BENCHMARK.json"), help="benchmark definition")
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    print("\n".join(compare(load_records(args.base), load_records(args.change), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
