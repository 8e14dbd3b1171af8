#!/usr/bin/env python3
"""CI regression gate over the live observability service.

Queries a running ``observe --serve`` instance — ``/regressions`` for
the cross-run drift view (the ``check_perf`` gate rendered over time)
and ``/metrics/query`` for the per-cell throughput series the service
derives from every run's manifests and perf sidecars —
and emits a GitHub-status-style summary: markdown on stdout, outcome
as the exit code.  This closes the "wire /regressions history into PR
review" loop: paste the markdown into a PR comment or a
``$GITHUB_STEP_SUMMARY``, gate the job on the exit code.

Exit codes:

* 0 — PASS: no flagged perf regressions, no flagged speedup drift
  (and, with ``--require-metrics``, at least one per-cell series).
* 1 — FAIL: at least one flagged regression (or no per-cell series
  under ``--require-metrics``).
* 2 — the service is unreachable or answered garbage.

Stdlib only, like everything else in this repo.
"""

from __future__ import annotations

import argparse
import json
import sys
import urllib.error
import urllib.parse
import urllib.request


def fetch_json(url: str, timeout: float):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return json.loads(resp.read())


def _pct(value) -> str:
    return "—" if value is None else f"{100 * value:+.1f}%"


def _num(value) -> str:
    return "—" if value is None else f"{value:,.0f}"


def render_markdown(reg: dict, query: dict, *,
                    require_metrics: bool) -> tuple:
    """(markdown, ok) for one gate evaluation."""
    flagged = list(reg.get("flagged", []))
    series = query.get("series", [])
    missing_metrics = require_metrics and not series
    ok = not flagged and not missing_metrics

    lines = []
    status = "✅ PASS" if ok else "❌ FAIL"
    lines.append(f"## Regression gate — {status}")
    lines.append("")
    bench = reg.get("bench") or {}
    baseline = bench.get("baseline")
    tolerance = reg.get("tolerance")
    if baseline:
        lines.append(
            f"Baseline {baseline:,.0f} ops/sec, gate floor "
            f"{reg.get('floor'):,.0f} (tolerance "
            f"{100 * tolerance:.0f}%).")
    else:
        lines.append("No committed baseline (BENCH_perf.json) — the "
                     "perf half of the gate is advisory.")
    lines.append("")

    lines.append("### Engine throughput vs baseline")
    lines.append("")
    runs = reg.get("runs", [])
    if runs:
        lines.append("| run | ops/sec | vs baseline | gate |")
        lines.append("|---|---:|---:|---|")
        for row in runs:
            gate = "⚠️ flagged" if row.get("flagged") else "ok"
            lines.append(
                f"| `{row['dir']}` "
                f"| {_num(row.get('engine_ops_per_second'))} "
                f"| {_pct((row.get('vs_baseline') or 1) - 1 if row.get('vs_baseline') is not None else None)} "
                f"| {gate} |")
    else:
        lines.append("_No runs discovered (sweep with --telemetry "
                     "DIR to populate)._")
    lines.append("")

    lines.append("### Geomean-speedup drift")
    lines.append("")
    drift = reg.get("speedup_drift", {})
    if drift:
        lines.append("| protocol | first | latest | change | gate |")
        lines.append("|---|---:|---:|---:|---|")
        for protocol, entry in sorted(drift.items()):
            gate = "⚠️ flagged" if entry.get("flagged") else "ok"
            lines.append(
                f"| {protocol} | {entry['first']:.3f} "
                f"| {entry['last']:.3f} | {_pct(entry.get('change'))} "
                f"| {gate} |")
    else:
        lines.append("_No speedup data yet._")
    lines.append("")

    lines.append("### Per-cell metrics")
    lines.append("")
    if series:
        lines.append(f"{len(series)} cell series:")
        lines.append("")
        lines.append("| run | cell | engine | value |")
        lines.append("|---|---|---|---:|")
        for s in series[:20]:
            labels = s.get("labels", {})
            cell = "/".join(filter(None, (labels.get("workload"),
                                          labels.get("protocol"))))
            lines.append(
                f"| `{s['run']}` | {cell or '—'} "
                f"| {labels.get('engine') or '—'} "
                f"| {_num(s.get('value'))} |")
        if len(series) > 20:
            lines.append("")
            lines.append(f"_...and {len(series) - 20} more._")
    elif missing_metrics:
        lines.append("_⚠️ --require-metrics set but no per-cell series "
                     "found (did a sweep run with --telemetry DIR?)._")
    else:
        lines.append("_No per-cell series (sweep with --telemetry DIR "
                     "to populate)._")
    lines.append("")

    if flagged:
        lines.append(f"**Flagged:** {', '.join(f'`{f}`' for f in flagged)}")
        lines.append("")
    return "\n".join(lines), ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tools/regression_gate.py",
        description="Query a live observe --serve instance and emit a "
                    "GitHub-status-style regression summary (markdown "
                    "to stdout, pass/fail as the exit code).",
    )
    parser.add_argument("--url", default="http://127.0.0.1:8765",
                        help="service base URL "
                             "(default http://127.0.0.1:8765)")
    parser.add_argument("--metric", default="cell.ops_per_second",
                        help="per-cell metric summarized in the report "
                             "(default cell.ops_per_second)")
    parser.add_argument("--require-metrics", action="store_true",
                        help="fail the gate when no per-cell series "
                             "exist for --metric")
    parser.add_argument("--timeout", type=float, default=10.0)
    args = parser.parse_args(argv)

    base = args.url.rstrip("/")
    query = (f"{base}/metrics/query?"
             + urllib.parse.urlencode({"metric": args.metric}))
    try:
        reg = fetch_json(f"{base}/regressions", args.timeout)
        cells = fetch_json(query, args.timeout)
    except (urllib.error.URLError, OSError, ValueError,
            json.JSONDecodeError) as exc:
        print(f"regression gate: cannot query {base}: {exc}",
              file=sys.stderr)
        return 2

    markdown, ok = render_markdown(reg, cells,
                                   require_metrics=args.require_metrics)
    print(markdown)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
