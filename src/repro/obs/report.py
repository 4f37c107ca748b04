"""Ops report: one self-contained HTML page from a run's obs artifacts.

``python -m repro obs report`` folds the artifacts a
sweep leaves behind -- the merged Chrome trace, the metrics JSON, and
optionally a speedscope profile -- into a single static HTML file with no
external assets: a phase waterfall, cell-latency histograms, the
slowest-stack table, the incident/retry/quarantine timeline, and the
trace-store hit rates.  It answers the operator questions ("where did
the time go, what broke, what was hot") without opening Perfetto or
speedscope, while linking the trace ids needed to go deeper there.
"""

from __future__ import annotations

import argparse
import html
import json
import os
import sys
from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.obs.trace import load_trace_events

__all__ = ["build_report", "render_html", "main"]

#: Phase spans of one sweep, in waterfall order.
PHASES = ("setup", "execute", "checkpoint_io", "aggregate")

_CSS = """
body { font: 14px/1.45 system-ui, sans-serif; margin: 2rem auto;
       max-width: 72rem; padding: 0 1rem; color: #1c2733; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem;
  border-bottom: 1px solid #d6dde4; padding-bottom: .3rem; }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th, td { text-align: left; padding: .25rem .6rem;
         border-bottom: 1px solid #eef1f4; }
th { color: #5a6b7b; font-weight: 600; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.bar-row { display: flex; align-items: center; margin: 2px 0; }
.bar-label { width: 16rem; font-size: 12px; color: #45535f;
  white-space: nowrap; overflow: hidden; text-overflow: ellipsis; }
.bar-track { flex: 1; background: #f1f4f7; border-radius: 3px;
  position: relative; height: 16px; }
.bar-fill { position: absolute; top: 0; bottom: 0; border-radius: 3px;
  background: #4a90d9; min-width: 1px; }
.bar-fill.warn { background: #d9824a; }
.bar-value { width: 7rem; text-align: right; font-size: 12px;
  color: #45535f; font-variant-numeric: tabular-nums; padding-left: .5rem; }
.kv { color: #5a6b7b; font-size: 13px; }
code { background: #f1f4f7; padding: 0 .25rem; border-radius: 3px;
  font-size: 12px; }
.empty { color: #8796a5; font-style: italic; }
""".strip()


# ----------------------------------------------------------------------
# Artifact digestion
# ----------------------------------------------------------------------

def _spans(events: List[dict], cat: Optional[str] = None,
           name: Optional[str] = None) -> List[dict]:
    out = []
    for event in events:
        if event.get("ph") != "X":
            continue
        if cat is not None and event.get("cat") != cat:
            continue
        if name is not None and event.get("name") != name:
            continue
        out.append(event)
    return out


def _phase_waterfall(events: List[dict]) -> List[dict]:
    """Phase spans positioned on a shared, zero-based time axis (ms)."""
    phase_spans = [
        e for e in _spans(events)
        if e.get("cat") == "phase" and e.get("name") in PHASES + ("sweep",)
    ]
    if not phase_spans:
        return []
    origin = min(e.get("ts", 0.0) for e in phase_spans)
    rows = []
    for event in sorted(phase_spans, key=lambda e: e.get("ts", 0.0)):
        rows.append({
            "name": event.get("name", "?"),
            "start_ms": (event.get("ts", 0.0) - origin) / 1000.0,
            "dur_ms": event.get("dur", 0.0) / 1000.0,
            "pid": event.get("pid"),
        })
    return rows


def _cell_histogram(events: List[dict], buckets: int = 12) -> dict:
    durations = sorted(
        e.get("dur", 0.0) / 1000.0 for e in _spans(events, cat="cell")
    )
    if not durations:
        return {"bins": [], "count": 0}
    low, high = durations[0], durations[-1]
    width = (high - low) / buckets or 1.0
    bins = []
    for i in range(buckets):
        lo = low + i * width
        hi = high if i == buckets - 1 else lo + width
        n = sum(1 for d in durations if lo <= d <= hi or (i == 0 and d < lo))
        bins.append({"lo_ms": lo, "hi_ms": hi, "count": n})
    return {
        "bins": bins,
        "count": len(durations),
        "p50_ms": durations[len(durations) // 2],
        "max_ms": high,
    }


def _slowest_cells(events: List[dict], top: int = 10) -> List[dict]:
    cells = sorted(
        _spans(events, cat="cell"),
        key=lambda e: e.get("dur", 0.0), reverse=True,
    )
    return [
        {
            "name": e.get("name", "?"),
            "dur_ms": e.get("dur", 0.0) / 1000.0,
            "args": e.get("args", {}),
            "pid": e.get("pid"),
        }
        for e in cells[:top]
    ]


def _timeline(events: List[dict]) -> List[dict]:
    """Supervision instants, time-ordered."""
    items = []
    origin = None
    for event in events:
        ts = event.get("ts")
        if ts is None:
            continue
        if event.get("ph") == "M":
            continue
        origin = ts if origin is None else min(origin, ts)
    for event in events:
        if event.get("ph") == "i" and event.get("cat") == "supervision":
            items.append({
                "t_ms": (event.get("ts", 0.0) - (origin or 0.0)) / 1000.0,
                "kind": event.get("name", "?"),
                "detail": json.dumps(event.get("args", {}), sort_keys=True),
            })
    items.sort(key=lambda item: item["t_ms"])
    return items


def _slowest_stacks(profile: Optional[dict], top: int = 15) -> List[dict]:
    """Heaviest sampled stacks across every profiled process."""
    if not profile:
        return []
    frames = profile.get("shared", {}).get("frames", [])
    weights: Counter = Counter()
    total = 0
    for prof in profile.get("profiles", []):
        for sample, weight in zip(
            prof.get("samples", []), prof.get("weights", [])
        ):
            if not sample:
                continue
            names = tuple(
                frames[i].get("name", "?") if 0 <= i < len(frames) else "?"
                for i in sample
            )
            weights[names] += weight
            total += weight
    rows = []
    for stack, weight in weights.most_common(top):
        rows.append({
            "leaf": stack[-1],
            "stack": ";".join(stack),
            "samples": weight,
            "share": weight / total if total else 0.0,
        })
    return rows


def _store_rates(metrics: Optional[dict]) -> List[Tuple[str, float]]:
    if not metrics:
        return []
    counters = metrics.get("counters", {})
    totals: Dict[str, float] = {}
    for name, entry in counters.items():
        if not name.startswith("trace_store_"):
            continue
        totals[name] = sum(entry.get("samples", {}).values())
    if not totals:
        return []
    hits = totals.get("trace_store_hits_total", 0.0)
    misses = totals.get("trace_store_misses_total", 0.0)
    rows = sorted(totals.items())
    lookups = hits + misses
    if lookups:
        rows.append(("hit_rate", hits / lookups))
    return rows


def build_report(
    trace_path: str,
    metrics_path: Optional[str] = None,
    profile_path: Optional[str] = None,
    top: int = 10,
) -> dict:
    """Digest the artifacts into the plain-data model the HTML renders."""
    events = load_trace_events(trace_path)
    metrics = None
    if metrics_path and os.path.exists(metrics_path):
        with open(metrics_path) as handle:
            metrics = json.load(handle)
    profile = None
    if profile_path and os.path.exists(profile_path):
        with open(profile_path) as handle:
            profile = json.load(handle)
    pids = sorted({e["pid"] for e in events if "pid" in e})
    traces: Counter = Counter()
    for event in _spans(events):
        trace_id = event.get("args", {}).get("trace_id")
        if trace_id:
            traces[trace_id] += 1
    metadata = {}
    try:
        with open(trace_path) as handle:
            metadata = json.load(handle).get("otherData", {}) or {}
    except (OSError, ValueError):
        pass
    return {
        "trace_path": trace_path,
        "metadata": metadata,
        "event_count": len(events),
        "pids": pids,
        "trace_ids": traces.most_common(),
        "waterfall": _phase_waterfall(events),
        "histogram": _cell_histogram(events),
        "slowest_cells": _slowest_cells(events, top),
        "timeline": _timeline(events),
        "stacks": _slowest_stacks(profile, top),
        "store_rates": _store_rates(metrics),
    }


# ----------------------------------------------------------------------
# HTML rendering
# ----------------------------------------------------------------------

def _esc(value: object) -> str:
    return html.escape(str(value), quote=True)


def _bar(label: str, value: float, peak: float, text: str,
         offset: float = 0.0, span: float = 1.0, warn: bool = False) -> str:
    left = 100.0 * offset / peak if peak else 0.0
    width = max(100.0 * value / peak if peak else 0.0, 0.15)
    width = min(width, 100.0 - left)
    cls = "bar-fill warn" if warn else "bar-fill"
    return (
        f'<div class="bar-row"><div class="bar-label">{_esc(label)}</div>'
        f'<div class="bar-track"><div class="{cls}" style="left:{left:.2f}%;'
        f'width:{width:.2f}%"></div></div>'
        f'<div class="bar-value">{_esc(text)}</div></div>'
    )


def render_html(report: dict) -> str:
    parts: List[str] = []
    add = parts.append
    add("<!doctype html><html><head><meta charset='utf-8'>")
    add("<title>repro ops report</title>")
    add(f"<style>{_CSS}</style></head><body>")
    add("<h1>repro ops report</h1>")
    meta = ", ".join(
        f"{_esc(k)}=<code>{_esc(v)}</code>"
        for k, v in sorted(report["metadata"].items())
    )
    add(
        f'<p class="kv">trace <code>{_esc(report["trace_path"])}</code>'
        f' &middot; {report["event_count"]} events &middot;'
        f' {len(report["pids"])} process(es)'
        f' (pids {_esc(", ".join(map(str, report["pids"])))})'
        + (f" &middot; {meta}" if meta else "")
        + "</p>"
    )

    add("<h2>Trace correlation</h2>")
    if report["trace_ids"]:
        add("<table><tr><th>trace_id</th><th class='num'>linked spans</th>"
            "</tr>")
        for trace_id, count in report["trace_ids"]:
            add(f"<tr><td><code>{_esc(trace_id)}</code></td>"
                f"<td class='num'>{count}</td></tr>")
        add("</table>")
    else:
        add('<p class="empty">no context-linked spans recorded</p>')

    add("<h2>Phase waterfall</h2>")
    waterfall = report["waterfall"]
    if waterfall:
        peak = max(r["start_ms"] + r["dur_ms"] for r in waterfall) or 1.0
        for row in waterfall:
            add(_bar(
                f'{row["name"]} (pid {row["pid"]})',
                row["dur_ms"], peak,
                f'{row["dur_ms"]:.1f} ms',
                offset=row["start_ms"],
                warn=row["name"] == "checkpoint_io",
            ))
    else:
        add('<p class="empty">no phase spans recorded</p>')

    add("<h2>Cell latency</h2>")
    histogram = report["histogram"]
    if histogram["bins"]:
        add(
            f'<p class="kv">{histogram["count"]} cells &middot; p50 '
            f'{histogram["p50_ms"]:.1f} ms &middot; max '
            f'{histogram["max_ms"]:.1f} ms</p>'
        )
        peak = max(b["count"] for b in histogram["bins"]) or 1
        for b in histogram["bins"]:
            add(_bar(
                f'{b["lo_ms"]:.1f}-{b["hi_ms"]:.1f} ms',
                b["count"], peak, f'{b["count"]} cell(s)',
            ))
        add("<h3>Slowest cells</h3>")
        add("<table><tr><th>cell</th><th>technique</th><th>seed</th>"
            "<th>outcome</th><th class='num'>pid</th>"
            "<th class='num'>ms</th></tr>")
        for cell in report["slowest_cells"]:
            args = cell["args"]
            add(
                f"<tr><td>{_esc(cell['name'])}</td>"
                f"<td>{_esc(args.get('technique', '?'))}</td>"
                f"<td>{_esc(args.get('seed'))}</td>"
                f"<td>{_esc(args.get('outcome', '?'))}</td>"
                f"<td class='num'>{_esc(cell['pid'])}</td>"
                f"<td class='num'>{cell['dur_ms']:.1f}</td></tr>"
            )
        add("</table>")
    else:
        add('<p class="empty">no cell spans recorded</p>')

    add("<h2>Hot stacks (sampling profiler)</h2>")
    if report["stacks"]:
        peak = report["stacks"][0]["samples"] or 1
        for row in report["stacks"]:
            add(_bar(
                row["leaf"], row["samples"], peak,
                f'{row["samples"]} ({100 * row["share"]:.1f}%)',
            ))
        add("<details><summary>full stacks</summary><table>"
            "<tr><th>stack</th><th class='num'>samples</th></tr>")
        for row in report["stacks"]:
            add(f"<tr><td><code>{_esc(row['stack'])}</code></td>"
                f"<td class='num'>{row['samples']}</td></tr>")
        add("</table></details>")
    else:
        add('<p class="empty">no profile supplied (run with'
            ' --profile-out and pass --profile)</p>')

    add("<h2>Incident timeline</h2>")
    if report["timeline"]:
        add("<table><tr><th class='num'>t (ms)</th><th>event</th>"
            "<th>detail</th></tr>")
        for item in report["timeline"]:
            add(
                f"<tr><td class='num'>{item['t_ms']:.1f}</td>"
                f"<td>{_esc(item['kind'])}</td>"
                f"<td><code>{_esc(item['detail'])}</code></td></tr>"
            )
        add("</table>")
    else:
        add('<p class="empty">no supervision events (clean run)</p>')

    add("<h2>Trace-store hit rates</h2>")
    if report["store_rates"]:
        add("<table><tr><th>counter</th><th class='num'>value</th></tr>")
        for name, value in report["store_rates"]:
            shown = f"{100 * value:.1f}%" if name == "hit_rate" else f"{value:g}"
            add(f"<tr><td><code>{_esc(name)}</code></td>"
                f"<td class='num'>{shown}</td></tr>")
        add("</table>")
    else:
        add('<p class="empty">no trace-store activity recorded'
            ' (run with --trace-store and --metrics-out)</p>')

    add("</body></html>")
    return "".join(parts)


# ----------------------------------------------------------------------
# Entry point (python -m repro obs report)
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro obs report",
        description="Render a self-contained HTML ops report from a"
                    " sweep's observability artifacts.",
    )
    parser.add_argument("--trace", required=True,
                        help="merged Chrome trace JSON (--trace-out)")
    parser.add_argument("--metrics", default=None,
                        help="metrics JSON (--metrics-out)")
    parser.add_argument("--profile", default=None,
                        help="speedscope profile JSON (--profile-out)")
    parser.add_argument("--out", default="obs_report.html",
                        help="output HTML path (default obs_report.html)")
    parser.add_argument("--top", type=int, default=10,
                        help="rows in the slowest-cell/stack tables")
    args = parser.parse_args(argv)
    try:
        report = build_report(
            args.trace, metrics_path=args.metrics,
            profile_path=args.profile, top=args.top,
        )
    except (OSError, ValueError) as error:
        print(f"cannot read artifacts: {error}", file=sys.stderr)
        return 2
    document = render_html(report)
    directory = os.path.dirname(args.out)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(args.out, "w") as handle:
        handle.write(document)
    print(
        f"wrote {args.out} ({report['event_count']} events,"
        f" {len(report['pids'])} process(es))"
    )
    return 0
