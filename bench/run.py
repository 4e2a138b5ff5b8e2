"""replay-shield benchmark: one workload, one run, one JSON line.

Usage (from the repository root):

    python3 bench/run.py --workload recurring_404 --seed 1 --seconds 10 --trace 0

Workloads: recurring_404 and unique_misses drive a proxy and an upstream
simulator, each started as its own `replay-shield serve` process, from two
closed-loop clients on two keep-alive loopback connections; reproduce_lab
runs `replay-shield reproduce --both` in this process. Every answer is checked
against bench/oracles.py. With --trace 0 the last line of standard output
holds the end-to-end metrics; with --trace 1 it holds the per-layer metrics,
recorded by wrappers from bench/tracing.py. See bench/README.md.
"""

from __future__ import annotations

import argparse
import array
import json
import math
import os
import re
import signal
import statistics
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import inputs
import servers
from client import Connection
from servers import BENCH_DIR, SRC_DIR

OUT_DIR = BENCH_DIR / ".out"
WORKLOADS = ("recurring_404", "unique_misses", "reproduce_lab")
CLIENTS = 2
# the timed phase is cut into windows of this length; see calm_windows()
WINDOW_SECONDS = 0.2
RSS_POLL_SECONDS = 0.01
UPSTREAM_LOG_RECORD = re.compile(r"\d+\.\d{3} (?:GET|HEAD) \S+ (\d{3}) -")

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "upstream_requests": "count",
    "proxy_rss_mb": "MB",
    "reproduce_s": "s",
}
PER_LAYER_UNITS = {
    "wire.overhead_us": "us",
    "wire.response_head_bytes": "bytes",
    "proxy.hit_us": "us",
    "proxy.miss_self_us": "us",
    "proxy.inprocess_us": "us",
    "urls.key_us": "us",
    "cache.lookup_us": "us",
    "cache.hit_ratio": "ratio",
    "cache.lookups": "count",
    "cache.store_us": "us",
    "cache.evictions": "count",
    "cache.entries": "count",
    "upstream.fetch_us": "us",
    "upstream.fetches": "count",
    "upstream.connects_per_fetch": "ratio",
    "upstream.serve_us": "us",
    "upstream.nearest_us": "us",
    "upstream.nearest_calls": "count",
    "upstream.manifest_load_s": "s",
    "upstream.status_200": "count",
    "upstream.status_302": "count",
    "upstream.status_404": "count",
    "workload.tick_self_ms": "ms",
    "workload.network_events": "count",
    "workload.memory_cache_events": "count",
    "analyzer.build_report_ms": "ms",
    "cli.run_experiment_ms": "ms",
    "cli.write_ms": "ms",
    "trace.throughput_rps": "req/s",
}


class ClientStats:
    def __init__(self):
        self.latencies = array.array("d")
        self.done_at = array.array("d")  # completion time of each answered request
        self.round_times: list[float] = []
        self.head_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.expected_status: dict[int, int] = {}
        self.error: str | None = None


def run_round(conn, round_, check, stats: ClientStats, address: str):
    """Send one round in a closed loop; returns the connection to keep using."""
    start = perf_counter()
    for path, expected in round_:
        stats.attempted += 1
        stats.expected_status[expected.status] = stats.expected_status.get(expected.status, 0) + 1
        sent = perf_counter()
        try:
            status, headers, body, head = conn.get(path)
        except OSError as exc:  # counted as a failed operation; reconnect and go on
            stats.failed += 1
            print(f"request error on {path}: {exc}", file=sys.stderr)
            conn.close()
            conn = Connection(address)
            continue
        done = perf_counter()
        stats.latencies.append(done - sent)
        stats.done_at.append(done)
        stats.head_bytes += head
        if not check(expected, status, headers, body):
            stats.failed += 1
            print(f"wrong answer for {path}: {status} {headers}", file=sys.stderr)
    end = perf_counter()
    stats.round_times.append(end - start)
    return conn


def proxy_metrics(conn: Connection) -> dict[str, int]:
    status, _, body, _ = conn.get("/__metrics")
    if status != 200:
        raise RuntimeError(f"/__metrics answered {status}")
    return {name: int(value) for name, _, value in (line.partition(" ") for line in body.decode().splitlines())}


def upstream_log_statuses(path: Path) -> dict[int, int]:
    """Status counts from the upstream's request log of `t method url status -`
    records. Records are matched by pattern, not by line: concurrent handler
    threads can run two records onto one line."""
    counts: dict[int, int] = {}
    for status in UPSTREAM_LOG_RECORD.findall(path.read_text(encoding="utf-8")):
        counts[int(status)] = counts.get(int(status), 0) + 1
    return counts


def calm_windows(stats: list[ClientStats], start: float, seconds: float) -> dict[str, float]:
    """The timed phase at its calm end. Throughput and p50 come from the best
    of its WINDOW_SECONDS windows by completion time, the round time from the
    fastest round; p99 is taken over every request. See README.md."""
    count = max(1, math.ceil(seconds / WINDOW_SECONDS))
    latencies: list[list[float]] = [[] for _ in range(count)]
    finished: list[list[float]] = [[] for _ in range(count)]
    for s in stats:
        for done, latency in zip(s.done_at, s.latencies):
            w = int((done - start) // WINDOW_SECONDS)
            if w < count:
                latencies[w].append(latency)
                finished[w].append(done)
    # requests completed per second between a window's first and last completion
    rates = [(len(f) - 1) / (f[-1] - f[0]) for f in finished if len(f) >= 2 and f[-1] > f[0]]
    return {
        "throughput_rps": max(rates),
        "latency_p50_ms": min(statistics.median(w) for w in latencies if w) * 1000,
        "latency_p99_ms": statistics.quantiles([x for s in stats for x in s.latencies], n=100)[98] * 1000,
        "reproduce_s": min(t for s in stats for t in s.round_times),
    }


def run_socket(workload, seconds: float, traced: bool, workdir: Path) -> dict:
    manifest = workdir / "holdings.manifest"
    manifest.write_text(workload.manifest, encoding="utf-8")
    config = workdir / "proxy.conf"
    config.write_text(workload.proxy_config, encoding="utf-8")

    before = range(1 if traced else servers.SETUP_TRIALS_BEFORE)
    deployment, setup_times = servers.deploy_timed(manifest, config, workdir, before, traced, keep_last=True)
    address = deployment.proxy.address
    stats = [ClientStats() for _ in range(CLIENTS)]
    census = [ClientStats() for _ in range(CLIENTS)]
    conns = []
    problems: list[str] = []
    try:
        conns = [Connection(address) for _ in range(CLIENTS)]
        rounds = [workload.rounds(c) for c in range(CLIENTS)]
        # Census: the clients take turns sending one round each, a fixed amount
        # of work with no races, after which the upstream count is read.
        for c in range(CLIENTS):
            conns[c] = run_round(conns[c], next(rounds[c]), workload.check, census[c], address)
        census_upstream = proxy_metrics(conns[0])["upstream_requests"]

        start = perf_counter()
        deadline = start + seconds

        def client(c: int) -> None:
            try:
                while perf_counter() < deadline:
                    conns[c] = run_round(conns[c], next(rounds[c]), workload.check, stats[c], address)
            except Exception as exc:  # reported as an incorrect run
                stats[c].error = repr(exc)

        threads = [threading.Thread(target=client, args=(c,), daemon=True) for c in range(CLIENTS)]
        for t in threads:
            t.start()
        # The proxy keeps a line per request it has served, so its peak RSS is
        # read after a fixed number of requests, not at the end of the run,
        # where it would follow throughput.
        rss = None
        while any(t.is_alive() for t in threads):
            if rss is None and sum(s.attempted for s in stats) >= workload.RSS_AFTER_REQUESTS:
                rss = deployment.proxy.peak_rss_mb()
            threads[0].join(RSS_POLL_SECONDS)
        for t in threads:
            t.join()
        if rss is None:
            print(f"note: the run ended before {workload.RSS_AFTER_REQUESTS} requests; "
                  "proxy_rss_mb is read at its end instead", file=sys.stderr)
            rss = deployment.proxy.peak_rss_mb()
        final = proxy_metrics(conns[0])
    finally:
        for conn in conns:
            conn.close()
        deployment.stop(graceful=True)

    everyone = stats + census
    attempted = sum(s.attempted for s in everyone)
    failed = sum(s.failed for s in everyone)
    problems += [f"client {c}: {s.error}" for c, s in enumerate(stats) if s.error]
    upstream_statuses = upstream_log_statuses(deployment.upstream.log_path)
    upstream_total = sum(upstream_statuses.values())
    if final["client_requests"] != attempted:
        problems.append(f"proxy counted {final['client_requests']} client requests, clients sent {attempted}")
    if final["client_requests"] != final["cache_hits_fresh"] + final["upstream_requests"] + final["throttled_429"]:
        problems.append(f"proxy counters do not add up: {final}")
    if final["upstream_requests"] != upstream_total:
        problems.append(f"proxy sent {final['upstream_requests']} upstream requests, upstream logged {upstream_total}")
    expected_statuses: dict[int, int] = {}
    for s in everyone:
        for status, n in s.expected_status.items():
            expected_statuses[status] = expected_statuses.get(status, 0) + n
    problems += workload.run_problems(census_upstream, upstream_statuses, expected_statuses, CLIENTS)
    if traced:
        trace = {
            "proxy": json.loads(deployment.proxy.trace_path.read_text()),
            "upstream": json.loads(deployment.upstream.trace_path.read_text()),
        }
        if trace["proxy"]["counts"].get("cache.over_capacity"):
            problems.append("the proxy cache held more entries than its capacity")

    windows = calm_windows(stats, start, seconds)
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "throughput_rps": windows["throughput_rps"],
        "upstream_requests": census_upstream,
        "proxy_rss_mb": rss,
        "reproduce_s": windows["reproduce_s"],
    }
    if traced:
        answered = sum(len(s.latencies) for s in everyone)
        result["trace"] = trace
        result["client_mean_rtt"] = sum(sum(s.latencies) for s in everyone) / answered
        result["head_bytes_mean"] = sum(s.head_bytes for s in everyone) / answered
    else:
        after = range(servers.SETUP_TRIALS_BEFORE, servers.SETUP_TRIALS)
        setup_times += servers.deploy_timed(manifest, config, workdir, after, False, keep_last=False)[1]
        result["setup_s"] = statistics.median(setup_times)
        result["latency_p50_ms"] = windows["latency_p50_ms"]
        result["latency_p99_ms"] = windows["latency_p99_ms"]
    return result


def _mean_us(spans: dict, name: str) -> float:
    calls, seconds = spans.get(name, (0, 0.0))
    return seconds / calls * 1e6 if calls else 0.0


def per_layer(result: dict, lab: bool) -> dict[str, float]:
    """Per-layer metrics from the trace. Socket workloads read proxy-side names
    from the proxy process and upstream-side names from the upstream process;
    the lab has one process. Lab counts and milliseconds are per pass; socket
    counts are per run. A layer a workload never enters reads 0."""
    if lab:
        proxy_side = upstream_side = result["trace"]
    else:
        proxy_side, upstream_side = result["trace"]["proxy"], result["trace"]["upstream"]
    pspans, pcounts = proxy_side["spans"], proxy_side["counts"]
    uspans, ucounts = upstream_side["spans"], upstream_side["counts"]
    passes = result.get("passes", 1)
    fetches = pspans.get("upstream.fetch", (0, 0.0))[0]
    lookups = pcounts.get("cache.lookups", 0)

    def per_pass_ms(name: str) -> float:
        return pspans.get(name, (0, 0.0))[1] * 1000 / passes

    out = {
        "wire.overhead_us": 0.0 if lab else result["client_mean_rtt"] * 1e6 - _mean_us(pspans, "wire.app"),
        "wire.response_head_bytes": 0.0 if lab else result["head_bytes_mean"],
        "proxy.hit_us": _mean_us(pspans, "proxy.hit"),
        "proxy.miss_self_us": _mean_us(pspans, "proxy.miss_self"),
        "proxy.inprocess_us": _mean_us(pspans, "proxy.handle"),
        "urls.key_us": _mean_us(pspans, "urls.key"),
        "cache.lookup_us": _mean_us(pspans, "cache.lookup"),
        "cache.hit_ratio": pcounts.get("cache.fresh", 0) / lookups if lookups else 0.0,
        "cache.lookups": lookups / passes,
        "cache.store_us": _mean_us(pspans, "cache.store"),
        "cache.evictions": pcounts.get("cache.evictions", 0) / passes,
        "cache.entries": pcounts.get("cache.entries", 0),
        "upstream.fetch_us": _mean_us(pspans, "upstream.fetch"),
        "upstream.fetches": fetches / passes,
        "upstream.connects_per_fetch": pcounts.get("upstream.connects", 0) / fetches if fetches else 0.0,
        "upstream.serve_us": _mean_us(uspans, "upstream.serve"),
        "upstream.nearest_us": _mean_us(uspans, "upstream.nearest"),
        "upstream.nearest_calls": uspans.get("upstream.nearest", (0, 0.0))[0] / passes,
        "upstream.manifest_load_s": _mean_us(uspans, "upstream.manifest_load") / 1e6,
        "upstream.status_200": ucounts.get("upstream.status_200", 0) / passes,
        "upstream.status_302": ucounts.get("upstream.status_302", 0) / passes,
        "upstream.status_404": ucounts.get("upstream.status_404", 0) / passes,
        "workload.tick_self_ms": per_pass_ms("workload.tick_self"),
        "workload.network_events": pcounts.get("workload.network_events", 0) / passes,
        "workload.memory_cache_events": pcounts.get("workload.memory_cache_events", 0) / passes,
        "analyzer.build_report_ms": per_pass_ms("analyzer.build_report"),
        "cli.run_experiment_ms": per_pass_ms("cli.run_experiment"),
        "cli.write_ms": per_pass_ms("cli.write"),
        "trace.throughput_rps": result["throughput_rps"],
    }
    assert out.keys() == PER_LAYER_UNITS.keys()
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC_DIR / "replay_shield").is_dir():
        print(f"error: no replay_shield sources at {SRC_DIR}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    # The load generator, both servers and the lab's launches (children inherit
    # this) share one CPU. On the 2-vCPU reference machine, wakeups across
    # CPUs between client and servers made the socket workloads slower and
    # their spread between seeds twice as wide; see README.md.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # a terminated run still stops the servers it started (finally blocks run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    OUT_DIR.mkdir(exist_ok=True)
    traced = bool(args.trace)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        if args.workload == "reproduce_lab":
            import lab

            result = lab.run(args.seed, args.seconds, traced, workdir)
        else:
            workload = (inputs.Recurring404 if args.workload == "recurring_404" else inputs.UniqueMisses)(args.seed)
            result = run_socket(workload, args.seconds, traced, workdir)

    for problem in result["problems"]:
        print(f"run check failed: {problem}", file=sys.stderr)
    if traced:
        values = per_layer(result, args.workload == "reproduce_lab")
        units = PER_LAYER_UNITS
    else:
        values = {name: result[name] for name in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
