"""Compare two benchmark reports: ``python3 bench/compare.py A.json B.json``.

A is the parent, B the change.  For every (workload, end-to-end metric)
it prints both sides' headline value (the best rep or the median, as
run.py chose), median, quartiles and n, the bound, and a verdict:

* ``worse``      -- B's value is worse than A's by more than the bound,
  and the runs are steady enough to say so (both spreads within the
  bound), or every B sample is worse than every A sample.
* ``improved``   -- the same, the other way, with the gap also wider
  than A's own interquartile range.
* ``unchanged``  -- within the bound, with both spreads within it too.
* ``unresolved`` -- a spread is wider than the bound and the samples do
  not separate.

A spread is the interquartile range as a share of the median.  Every
per-layer metric built from counts, and every fingerprint, must be
identical.  The exit status is 1 on a worse verdict, a count or
fingerprint drift, or more failed operations in B; 2 when the reports
cannot be compared (smoke output, different environment, seed or run
length).  One compare is not a claimed gain: that takes the A/B
protocol in bench/README.md.
"""

from __future__ import annotations

import json
import sys
from typing import List, Optional, Tuple

from report import COMPARABLE_ENV, spread

WORSE, IMPROVED, UNCHANGED, UNRESOLVED = \
    "worse", "improved", "unchanged", "unresolved"


def refusal(a: dict, b: dict) -> Optional[str]:
    """Why the two reports cannot be compared, or None."""
    for side, report in (("A", a), ("B", b)):
        if report.get("smoke"):
            return f"{side} is smoke output; smoke inputs measure nothing"
    for key in ("schema", "seed", "seconds"):
        if a.get(key) != b.get(key):
            return f"{key} differs: {a.get(key)!r} vs {b.get(key)!r}"
    for key in COMPARABLE_ENV:
        if a["env"].get(key) != b["env"].get(key):
            return (f"env {key} differs: {a['env'].get(key)!r} vs "
                    f"{b['env'].get(key)!r}")
    return None


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """The verdict for one metric's two summaries (see module doc)."""
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b["value"] - a["value"]) / abs(a["value"])
    b_worse = all(sign * (y - x) > 0
                  for x in a["samples"] for y in b["samples"])
    b_better = all(sign * (y - x) < 0
                   for x in a["samples"] for y in b["samples"])
    if max(spread(a), spread(b)) > bound:
        if worsening > bound and b_worse:
            return WORSE
        if b_better:
            return IMPROVED if -worsening > bound else UNCHANGED
        return UNRESOLVED
    if worsening > bound:
        return WORSE
    if -worsening > max(bound, spread(a)):
        return IMPROVED
    return UNCHANGED


def compare(a: dict, b: dict) -> Tuple[List[dict], List[str]]:
    """Verdict rows for every (workload, end-to-end metric), and every
    exact difference: per-layer counts, fingerprints, failures."""
    rows: List[dict] = []
    drifts: List[str] = []
    for name in sorted(set(a["workloads"]) | set(b["workloads"])):
        if name not in a["workloads"] or name not in b["workloads"]:
            drifts.append(f"{name}: measured on one side only")
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        if wb["failed"] > wa["failed"]:
            drifts.append(f"{name}: failed ops {wa['failed']} -> "
                          f"{wb['failed']} (fail_frac "
                          f"{wa['fail_frac']:.3g} -> {wb['fail_frac']:.3g})")
        for metric, ma in wa["end_to_end"].items():
            mb = wb["end_to_end"].get(metric)
            if mb is None:
                drifts.append(f"{name}: {metric} missing from B")
                continue
            rows.append({"workload": name, "metric": metric, "a": ma,
                         "b": mb, "bound": ma["bound"],
                         "verdict": verdict(ma, mb, ma["better"],
                                            ma["bound"])})
        for metric, la in wa["per_layer"].items():
            lb = wb["per_layer"].get(metric)
            if la["exact"] and (lb is None or lb["value"] != la["value"]):
                drifts.append(f"{name}: {metric} {la['value']} -> "
                              f"{None if lb is None else lb['value']}")
        fa, fb = wa["fingerprints"], wb["fingerprints"]
        for key in sorted(set(fa) | set(fb)):
            if fa.get(key) != fb.get(key):
                drifts.append(f"{name}: fingerprint {key} differs")
        if wa["digest"] != wb["digest"]:
            drifts.append(f"{name}: digest {wa['digest'][:12]} -> "
                          f"{wb['digest'][:12]}")
    return rows, drifts


def _side(m: dict) -> str:
    return (f"{m['value']:12.6g} (median {m['median']:.6g} "
            f"[{m['q1']:.6g}, {m['q3']:.6g}] n={m['n']})")


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    reports = []
    for path in argv:
        with open(path) as handle:
            reports.append(json.load(handle))
    a, b = reports
    why = refusal(a, b)
    if why:
        print(f"compare: refusing: {why}", file=sys.stderr)
        return 2
    rows, drifts = compare(a, b)
    for row in rows:
        gap = (row["b"]["value"] - row["a"]["value"]) \
            / abs(row["a"]["value"])
        print(f"{row['workload']:16s} {row['metric']:12s} "
              f"A {_side(row['a'])}  B {_side(row['b'])}  "
              f"{gap:+7.2%} (bound {row['bound']:.0%})  {row['verdict']}")
    for drift in drifts:
        print(f"DRIFT {drift}")
    worse = [row for row in rows if row["verdict"] == WORSE]
    return 1 if worse or drifts else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
