"""Static HTML dashboard for the paper-parity figures pipeline.

``repro-sim figures --out DIR`` renders the claim table as a
self-contained HTML page (no external assets, CI-artifact friendly).

The page shows, per registered claim: the paper's number, the measured
value, a colour-coded verdict badge, and — when ``BENCH_figures.json``
history is available — a unicode sparkline of the value across past
runs, so a reviewer can see at a glance whether a claim has been
drifting PR over PR.  Sparklines reuse the obs report tooling
(:func:`repro.obs.runreport.sparkline`), imported lazily to honour the
obs subsystem's level-0 elision contract.

The footer embeds the code-version salt and run metadata so a saved
dashboard snapshot is attributable to an exact tree state.
"""

from __future__ import annotations

import html
import os
from typing import Dict, List, Optional, Sequence

from .engine import code_salt
from .figures import (
    DIVERGED,
    MATCH,
    PLANNED,
    WITHIN,
    ClaimResult,
    format_value,
    summarize,
)

DEFAULT_PAGE = "index.html"

#: Verdict -> badge colour (GitHub-ish palette).
_BADGE = {
    MATCH: "#2da44e",
    WITHIN: "#bf8700",
    DIVERGED: "#cf222e",
    PLANNED: "#57606a",
}

_STYLE = """
body{font-family:-apple-system,'Segoe UI',sans-serif;max-width:72rem;
     margin:2rem auto;padding:0 1rem;color:#1f2328;}
h1{font-size:1.4rem;} .sub{color:#57606a;margin-bottom:1.5rem;}
table{border-collapse:collapse;width:100%;font-size:0.9rem;}
th,td{border:1px solid #d0d7de;padding:0.4rem 0.6rem;text-align:left;
      vertical-align:top;}
th{background:#f6f8fa;}
.badge{color:#fff;border-radius:1em;padding:0.1em 0.7em;
       font-size:0.8rem;white-space:nowrap;}
.num{font-variant-numeric:tabular-nums;white-space:nowrap;}
.spark{font-family:monospace;white-space:nowrap;color:#0969da;}
.claim{color:#57606a;font-size:0.85rem;}
footer{margin-top:2rem;color:#57606a;font-size:0.8rem;
       border-top:1px solid #d0d7de;padding-top:0.6rem;}
code{background:#f6f8fa;padding:0.1em 0.3em;border-radius:4px;}
"""


def _badge(verdict: str) -> str:
    colour = _BADGE.get(verdict, "#57606a")
    return (f'<span class="badge" style="background:{colour}">'
            f"{html.escape(verdict)}</span>")


def claim_trends(history: Sequence[dict]) -> Dict[str, List[float]]:
    """Per-claim value series across history records (oldest first)."""
    trends: Dict[str, List[float]] = {}
    for record in history:
        for fig_id, claim in record.get("claims", {}).items():
            value = claim.get("value")
            if isinstance(value, (int, float)):
                trends.setdefault(fig_id, []).append(float(value))
    return trends


def render_dashboard(results: Sequence[ClaimResult],
                     history: Optional[Sequence[dict]] = None,
                     mode: str = "quick") -> str:
    """Render the verdict table + trends as a self-contained page."""
    # Lazy: keeps repro.obs un-imported unless a dashboard is rendered
    # (same elision contract as the simulator's obs hooks).
    from ..obs.runreport import sparkline

    trends = claim_trends(history or [])
    counts = summarize(results)
    rows = []
    for result in results:
        spec = result.spec
        measured = ("&mdash;" if result.value is None else
                    html.escape(format_value(spec.unit, result.value)))
        series = trends.get(result.fig_id, [])
        trend = (f'<span class="spark">{html.escape(sparkline(series, width=24))}</span>'
                 if len(series) >= 2 else "")
        rows.append(
            "<tr>"
            f"<td><code>{html.escape(result.fig_id)}</code>"
            f'<div class="claim">{html.escape(spec.claim)}</div></td>'
            f"<td>{html.escape(spec.paper_ref)}</td>"
            f'<td class="num">{html.escape(spec.paper_text())}</td>'
            f'<td class="num">{measured}</td>'
            f"<td>{_badge(result.verdict)}</td>"
            f"<td>{trend}</td>"
            "</tr>")
    summary = (f"{counts[MATCH]} match &middot; {counts[WITHIN]} "
               f"within-tolerance &middot; {counts[DIVERGED]} diverged "
               f"&middot; {counts[PLANNED]} planned")
    runs = len(history or [])
    trend_note = (f"trends over the last {runs} recorded runs"
                  if runs >= 2 else "no trend history yet")
    return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8">
<title>Paper parity — {html.escape(mode)} profile</title>
<style>{_STYLE}</style></head><body>
<h1>Criticality Driven Fetch — paper parity dashboard</h1>
<div class="sub">{html.escape(mode.upper())} profile &middot; {summary}
&middot; {html.escape(trend_note)}.
See <code>docs/PAPER_VS_CODE.md</code> for the reviewer guide and
known divergences.</div>
<table>
<tr><th>claim</th><th>paper ref</th><th>paper</th><th>measured</th>
<th>verdict</th><th>trend</th></tr>
{chr(10).join(rows)}
</table>
<footer>Generated by <code>repro-sim figures</code> &middot;
code salt <code>{html.escape(code_salt()[:12])}</code> &middot;
mode <code>{html.escape(mode)}</code>. Verdicts gate CI against
<code>benchmarks/figures_baseline.json</code>.</footer>
</body></html>
"""


def write_dashboard(results: Sequence[ClaimResult], out_dir: str,
                    history: Optional[Sequence[dict]] = None,
                    mode: str = "quick") -> str:
    """Write the dashboard page into *out_dir*; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, DEFAULT_PAGE)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_dashboard(results, history=history,
                                      mode=mode))
    return path
