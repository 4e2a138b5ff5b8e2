"""Traffic report construction, burst detection, recurring clusters, HAR parsing."""

from __future__ import annotations

import json
import random

import pytest

from replay_shield.analyzer import (
    HarParseError,
    build_report,
    compare_reports,
    detect_recurring,
    emit_series_csv,
    parse_har,
    render_comparison,
    render_report_text,
)
from replay_shield.urls import FuzzyRuleSet
from replay_shield.workload import ClientEvent, EventSource


def ev(t: float, url: str = "http://a.test/r", status: int = 404) -> ClientEvent:
    return ClientEvent(t, url, EventSource.NETWORK, status)


def uniform_events(n: int, duration: float) -> list[ClientEvent]:
    """n events with the first at t=0 and the last exactly at t=duration."""
    return [ev(round(i * duration / (n - 1), 3)) for i in range(n)]


def burst_shaped_events() -> list[ClientEvent]:
    """203 requests in the first 13 seconds, then a low steady tail: the shape
    of a page-load burst followed by linear recurring traffic."""
    events = []
    counts = [16] * 8 + [15] * 5  # sums to 203
    for second, count in enumerate(counts):
        for j in range(count):
            events.append(ev(second + j * 0.05, url=f"http://a.test/essential/{second}/{j}", status=200))
    for second in range(13, 60):
        for j in range(2):
            events.append(ev(second + j * 0.5, url="http://a.test/missing.png"))
    return events


class TestBuildReport:
    def test_uniform_174_per_minute(self):
        report = build_report(uniform_events(174, 60.0))
        assert report.total == 174
        assert report.duration == 60.0
        assert report.avg_per_minute == pytest.approx(174.0, abs=1e-9)

    def test_burst_prefix_on_burst_shaped_trace(self):
        report = build_report(burst_shaped_events())
        k, t = report.burst_prefix
        assert k == 203
        assert t == 13.0

    def test_empty_input(self):
        report = build_report([])
        assert report.total == 0
        assert report.duration == 1.0
        assert report.avg_per_minute == 0.0
        assert report.recurring == ()

    def test_per_second_sums_to_total(self):
        rng = random.Random(6)
        events = [ev(rng.uniform(0, 45)) for _ in range(500)]
        report = build_report(events)
        assert sum(c for _, c in report.per_second) == report.total == 500

    def test_cumulative_monotone_and_final_total(self):
        rng = random.Random(7)
        events = [ev(rng.uniform(0, 30)) for _ in range(200)]
        report = build_report(events)
        values = [c for _, c in report.cumulative]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == report.total

    def test_avg_formula_exact(self):
        rng = random.Random(8)
        for _ in range(20):
            events = [ev(rng.uniform(0, 100)) for _ in range(rng.randint(2, 300))]
            report = build_report(events)
            assert abs(report.avg_per_minute - report.total * 60.0 / report.duration) < 1e-9

    def test_duration_floor_for_single_event(self):
        report = build_report([ev(5.0)])
        assert report.duration == 1.0
        assert report.avg_per_minute == 60.0

    def test_har_timestamps_rebased(self):
        entries = parse_har_text(
            har_text(
                [
                    ("2021-09-01T09:27:55.000Z", "http://a/1", 200),
                    ("2021-09-01T09:28:55.000Z", "http://a/2", 404),
                ]
            )
        )
        report = build_report(entries)
        assert report.duration == 60.0
        assert report.total == 2

    def test_no_burst_when_uniform(self):
        report = build_report(uniform_events(120, 60.0))
        assert report.burst_prefix == (0, 0.0)


class TestDetectRecurring:
    def test_hundred_requests_one_cluster(self):
        events = [ev(float(i) * 0.1) for i in range(100)]
        clusters = detect_recurring(events, min_repeats=3)
        assert len(clusters) == 1
        assert clusters[0].count == 100
        assert clusters[0].statuses == {404: 100}

    def test_numeric_strip_collapses_feed(self):
        rules = FuzzyRuleSet(strip_numeric_only_params=True)
        events = [ev(float(i), url=f"http://a.test/feed?ts={1630489675100 + i}") for i in range(50)]
        clusters = detect_recurring(events, min_repeats=3, rules=rules)
        assert len(clusters) == 1
        assert clusters[0].count == 50

    def test_unique_urls_no_clusters(self):
        events = [ev(float(i), url=f"http://a.test/r{i}") for i in range(10)]
        assert detect_recurring(events, min_repeats=2) == []

    def test_ordering_by_count_then_first_seen(self):
        events = [ev(float(i), url="http://a/big") for i in range(5)]
        events += [ev(10.0 + i, url="http://a/late") for i in range(3)]
        events += [ev(0.5 + i, url="http://a/early") for i in range(3)]
        clusters = detect_recurring(events, min_repeats=3)
        assert [c.count for c in clusters] == [5, 3, 3]
        assert clusters[1].first_t == 0.5  # early beats late on the tie

    def test_min_repeats_one_partitions_everything(self):
        rng = random.Random(9)
        events = [ev(float(i), url=f"http://a/r{rng.randint(0, 5)}") for i in range(60)]
        clusters = detect_recurring(events, min_repeats=1)
        assert sum(c.count for c in clusters) == len(events)


class TestCompareReports:
    def test_mre_magnitude(self):
        before = build_report(uniform_events(181, 60.0))
        after = build_report([ev(float(i), url=f"http://a/r{i}", status=200) for i in range(7)])
        summary = compare_reports(before, after)
        assert summary.before_total == 181
        assert summary.after_total == 7
        assert summary.reduction_ratio == pytest.approx(1 - 7 / 181, abs=1e-9)
        assert round(summary.reduction_ratio, 3) == 0.961

    def test_identical_reports_zero_reduction(self):
        r = build_report(uniform_events(50, 10.0))
        assert compare_reports(r, r).reduction_ratio == 0.0

    def test_degenerate_before_zero(self):
        empty = build_report([])
        assert compare_reports(empty, empty).reduction_ratio == 0.0

    def test_render_lines(self):
        r = build_report(uniform_events(50, 10.0))
        text = render_comparison(compare_reports(r, r))
        assert "before_total:" in text and "reduction_ratio:" in text


class TestSeriesCsv:
    def test_row_count_for_60s_run(self, tmp_path):
        report = build_report(uniform_events(174, 60.0))
        path = tmp_path / "series.csv"
        emit_series_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "second,count,cumulative"
        assert len(lines) == 62  # header + seconds 0..60

    def test_cumulative_column(self, tmp_path):
        report = build_report(uniform_events(100, 20.0))
        path = tmp_path / "series.csv"
        emit_series_csv(report, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        cums = [int(r[2]) for r in rows]
        assert all(a <= b for a, b in zip(cums, cums[1:]))
        assert cums[-1] == report.total
        assert sum(int(r[1]) for r in rows) == report.total

    def test_reanalysis_of_series_is_stable(self, tmp_path):
        report = build_report(uniform_events(174, 60.0))
        path = tmp_path / "series.csv"
        emit_series_csv(report, path)
        rebuilt_events = []
        for line in path.read_text().splitlines()[1:]:
            sec, count, _ = line.split(",")
            rebuilt_events += [ev(float(sec)) for _ in range(int(count))]
        rebuilt = build_report(rebuilt_events)
        assert rebuilt.total == report.total
        assert rebuilt.duration == report.duration
        assert rebuilt.avg_per_minute == report.avg_per_minute


def har_text(rows: list[tuple[str, str, int]]) -> str:
    return json.dumps(
        {
            "log": {
                "version": "1.2",
                "entries": [
                    {
                        "startedDateTime": started,
                        "request": {"method": "GET", "url": url},
                        "response": {"status": status},
                    }
                    for started, url, status in rows
                ],
            }
        }
    )


def parse_har_text(text: str, tmp_path=None):
    import tempfile
    from pathlib import Path

    with tempfile.NamedTemporaryFile("w", suffix=".har", delete=False) as fh:
        fh.write(text)
        name = fh.name
    try:
        return parse_har(name)
    finally:
        Path(name).unlink()


class TestParseHar:
    def test_three_entries_time_ordered(self):
        entries = parse_har_text(
            har_text(
                [
                    ("2021-09-01T09:27:57.000Z", "http://a/3", 404),
                    ("2021-09-01T09:27:55.000Z", "http://a/1", 200),
                    ("2021-09-01T09:27:56.000Z", "http://a/2", 200),
                ]
            )
        )
        assert [e.url for e in entries] == ["http://a/1", "http://a/2", "http://a/3"]
        assert entries[0].status == 200

    def test_missing_status_becomes_zero(self):
        text = json.dumps(
            {
                "log": {
                    "entries": [
                        {
                            "startedDateTime": "2021-09-01T09:27:55.000Z",
                            "request": {"method": "GET", "url": "http://a/1"},
                        }
                    ]
                }
            }
        )
        entries = parse_har_text(text)
        assert entries[0].status == 0

    def test_non_har_file_raises(self):
        with pytest.raises(HarParseError):
            parse_har_text("just some text")
        with pytest.raises(HarParseError):
            parse_har_text(json.dumps({"notlog": 1}))

    def test_empty_log_is_empty_list(self):
        assert parse_har_text(json.dumps({"log": {"entries": []}})) == []

    def test_extra_fields_ignored(self):
        text = json.dumps(
            {
                "log": {
                    "creator": {"name": "devtools"},
                    "entries": [
                        {
                            "startedDateTime": "2021-09-01T09:27:55.000Z",
                            "request": {"method": "GET", "url": "http://a/1", "headersSize": 10},
                            "response": {"status": 200, "content": {"size": 5}},
                            "timings": {"wait": 3},
                        }
                    ],
                }
            }
        )
        assert len(parse_har_text(text)) == 1

    def test_events_are_network_events_rebased_to_the_earliest_entry(self):
        entries = parse_har_text(
            har_text([("2021-09-01T09:28:55.500Z", "http://a/2", 404), ("2021-09-01T09:27:55.000Z", "http://a/1", 200)])
        )
        assert entries == [ev(0.0, "http://a/1", 200), ev(60.5, "http://a/2", 404)]

    @pytest.mark.parametrize(
        ("field", "value"),
        [("request", None), ("request", "http://a/1"), ("request", {"url": 5}), ("startedDateTime", 5)],
    )
    def test_malformed_entry_names_the_entry(self, field, value):
        entries = json.loads(har_text([("2021-09-01T09:27:55.000Z", "http://a/1", 200)] * 2))
        entries["log"]["entries"][1][field] = value
        with pytest.raises(HarParseError, match="entry 1"):
            parse_har_text(json.dumps(entries))

    def test_non_object_response_becomes_status_zero(self):
        entries = json.loads(har_text([("2021-09-01T09:27:55.000Z", "http://a/1", 200)]))
        entries["log"]["entries"][0]["response"] = None
        assert parse_har_text(json.dumps(entries))[0].status == 0

    def test_time_without_offset_is_utc(self):
        entries = parse_har_text(
            har_text([("2021-09-01T10:28:55+01:00", "http://a/2", 404), ("2021-09-01T09:27:55", "http://a/1", 404)])
        )
        assert [(e.t, e.url) for e in entries] == [(0.0, "http://a/1"), (60.0, "http://a/2")]


class TestRenderReport:
    def test_summary_lines(self):
        events = [ev(float(i) * 0.1) for i in range(100)]
        text = render_report_text(build_report(events))
        assert "total_requests:   100" in text
        assert "avg_per_minute:" in text
        assert "recurring_clusters: 1" in text
