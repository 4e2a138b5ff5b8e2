"""Request-log analysis: per-second rates, cumulative series, recurring-URL clusters.

Consumes workload event logs; HAR files (the `log.entries[]` subset below) are
read as network events, with absolute timestamps rebased to t=0 at the first
entry. A one-second duration floor keeps single-event logs divisible.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

from .configtext import ConfigError
from .urls import EMPTY_RULES, FuzzyRuleSet, fuzzy_key_of
from .workload import ClientEvent, EventSource

# initial-burst rule: leading seconds whose request count exceeds this multiple
# of the whole-run mean rate
BURST_RATE_FACTOR = 2.0

# the longest span of event times a report covers, one series row per second
# (at the bound, build_report's tracemalloc peak is about 17 MB)
MAX_SPAN_SECONDS = 86_400


class HarParseError(ValueError):
    pass


@dataclass(frozen=True)
class RecurringCluster:
    key: str
    count: int
    statuses: Counter
    first_t: float


@dataclass(frozen=True)
class TrafficReport:
    total: int
    duration: float
    per_second: tuple[tuple[int, int], ...]
    cumulative: tuple[tuple[int, int], ...]
    avg_per_minute: float
    burst_prefix: tuple[int, float]
    recurring: tuple[RecurringCluster, ...] = ()


@dataclass(frozen=True)
class ComparisonSummary:
    before_avg: float
    after_avg: float
    reduction_ratio: float
    before_total: int
    after_total: int


def parse_har(path: str | Path) -> list[ClientEvent]:
    """Read each entry as a network event `t` seconds after the earliest
    startedDateTime, time-ordered.

    Extra fields are ignored; a missing response or status becomes 0 so
    partial captures still analyze. A time without an offset is read as UTC.
    An empty log is an empty list, not an error.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise HarParseError(f"not valid JSON: {exc}") from None
    try:
        raw_entries = data["log"]["entries"]
    except (TypeError, KeyError):
        raise HarParseError("missing log.entries[]") from None
    if not isinstance(raw_entries, list):
        raise HarParseError("log.entries is not a list")

    stamped = []
    for i, raw in enumerate(raw_entries):
        try:
            started = _parse_iso8601(raw["startedDateTime"])
            request = raw.get("request", {})
            url = request["url"] if isinstance(request, dict) else None
            if not isinstance(url, str):
                raise TypeError("request.url is not a string")
        except (TypeError, KeyError, ValueError, AttributeError) as exc:
            raise HarParseError(f"entry {i}: {exc}") from None
        response = raw.get("response")
        status = response.get("status", 0) if isinstance(response, dict) else 0
        stamped.append((started, url, status if isinstance(status, int) else 0))
    base = min((started for started, _, _ in stamped), default=None)
    events = [ClientEvent((started - base).total_seconds(), url, EventSource.NETWORK, status) for started, url, status in stamped]
    return sorted(events, key=lambda e: e.t)


def _parse_iso8601(text: str) -> datetime:
    # Python 3.10 fromisoformat has no Z support
    started = datetime.fromisoformat(text.replace("Z", "+00:00"))
    return started if started.tzinfo else started.replace(tzinfo=timezone.utc)


def _normalize(events: Sequence[ClientEvent]) -> list[tuple[float, str, int]]:
    """(t, url, status) per event, in time order; ties keep their input order."""
    return sorted(((e.t, e.url, e.status) for e in events), key=lambda x: x[0])


def build_report(entries: Sequence[ClientEvent], min_repeats: int = 3, rules: FuzzyRuleSet = EMPTY_RULES) -> TrafficReport:
    """Compute every report field from a request log; `rules` key the recurring
    clusters. Event times spanning over MAX_SPAN_SECONDS are a ConfigError.

    The burst prefix is the run of leading seconds whose per-second count stays
    above BURST_RATE_FACTOR times the whole-run mean rate; reported as
    (requests within the run, seconds it lasted).
    """
    triples = _normalize(entries)
    if not triples:
        return TrafficReport(0, 1.0, ((0, 0),), ((0, 0),), 0.0, (0, 0.0))

    total = len(triples)
    t_first = triples[0][0]
    t_last = triples[-1][0]
    duration = max(1.0, t_last - t_first)
    if duration > MAX_SPAN_SECONDS:
        raise ConfigError(f"event times span {duration:g} s, over the {MAX_SPAN_SECONDS} s one report covers")

    seconds = int(math.floor(duration))
    counts = [0] * (seconds + 1)
    for t, _, _ in triples:
        idx = min(int(math.floor(t - t_first)), seconds)
        counts[idx] += 1
    per_second = tuple(enumerate(counts))
    cumulative = []
    running = 0
    for i, c in enumerate(counts):
        running += c
        cumulative.append((i, running))

    mean_rate = total / duration
    threshold = BURST_RATE_FACTOR * mean_rate
    burst_requests = 0
    burst_seconds = 0
    for _, count in per_second:
        if count > threshold:
            burst_requests += count
            burst_seconds += 1
        else:
            break

    return TrafficReport(
        total=total,
        duration=duration,
        per_second=per_second,
        cumulative=tuple(cumulative),
        avg_per_minute=total * 60.0 / duration,
        burst_prefix=(burst_requests, float(burst_seconds)),
        recurring=tuple(_clusters(triples, min_repeats, rules)),
    )


def detect_recurring(
    entries: Sequence[ClientEvent], min_repeats: int, rules: FuzzyRuleSet = EMPTY_RULES
) -> list[RecurringCluster]:
    """Group requests by fuzzy-reduced URL; clusters of at least `min_repeats`
    come back largest first, ties broken by earliest first appearance."""
    return _clusters(_normalize(entries), min_repeats, rules)


def _clusters(triples: list[tuple[float, str, int]], min_repeats: int, rules: FuzzyRuleSet) -> list[RecurringCluster]:
    grouped: dict[str, list[tuple[float, int]]] = {}
    keys: dict[str, str] = {}  # a log repeats few URLs many times; derive each one's key once
    for t, url, status in triples:
        key = keys.get(url)
        if key is None:
            key = keys[url] = fuzzy_key_of(url, rules)
        grouped.setdefault(key, []).append((t, status))

    clusters = []
    for key, hits in grouped.items():
        if len(hits) < min_repeats:
            continue
        clusters.append(
            RecurringCluster(
                key=key,
                count=len(hits),
                statuses=Counter(s for _, s in hits),
                first_t=min(t for t, _ in hits),
            )
        )
    clusters.sort(key=lambda c: (-c.count, c.first_t))
    return clusters


def compare_reports(before: TrafficReport, after: TrafficReport) -> ComparisonSummary:
    if before.total == 0:
        ratio = 0.0
    else:
        ratio = 1.0 - after.total / before.total
    return ComparisonSummary(
        before_avg=before.avg_per_minute,
        after_avg=after.avg_per_minute,
        reduction_ratio=ratio,
        before_total=before.total,
        after_total=after.total,
    )


def render_comparison(summary: ComparisonSummary) -> str:
    lines = [
        f"before_total:     {summary.before_total}",
        f"after_total:      {summary.after_total}",
        f"before_avg_per_minute: {summary.before_avg:.2f}",
        f"after_avg_per_minute:  {summary.after_avg:.2f}",
        f"reduction_ratio:  {summary.reduction_ratio:.3f}",
    ]
    return "\n".join(lines) + "\n"


def emit_series_csv(report: TrafficReport, path: str | Path) -> None:
    """Plot-ready per-second series: one row per second from 0 to floor(duration)."""
    rows = "".join(f"{sec},{count},{cum}\n" for (sec, count), (_, cum) in zip(report.per_second, report.cumulative))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("second,count,cumulative\n" + rows)


# the recurring clusters a text report lists, most requested first
TOP_CLUSTERS = 5


def render_report_text(report: TrafficReport) -> str:
    burst_k, burst_t = report.burst_prefix
    lines = [
        f"total_requests:   {report.total}",
        f"duration_seconds: {report.duration:.1f}",
        f"avg_per_minute:   {report.avg_per_minute:.2f}",
        f"burst_prefix:     {burst_k} requests in first {burst_t:.0f}s",
        f"recurring_clusters: {len(report.recurring)}",
    ]
    for cluster in report.recurring[:TOP_CLUSTERS]:
        statuses = ",".join(f"{s}x{n}" for s, n in sorted(cluster.statuses.items()))
        lines.append(f"  {cluster.count:>6}  [{statuses}]  {cluster.key}")
    return "\n".join(lines) + "\n"
