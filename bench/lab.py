"""reproduce_lab: `replay-shield reproduce --both` in process on the logical
clock, over the four builtin scenarios, each output checked against the
counts derived in oracles.py. No socket is touched."""

from __future__ import annotations

import array
import contextlib
import csv
import io
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import oracles
import servers
import tracing
from replay_shield import cli

SCENARIOS = tuple(oracles.LAB_SCENARIOS)
# Long enough that a pass is not dominated by start-up, short enough that the
# injected max-age=600 outlives the run (the cached counts rely on it).
DURATION = 300.0
SETUP_DURATION = 1.0
# latencies are pooled over this many of each scenario's fastest runs
LATENCY_RUNS = 3


def timed_setups(workdir: Path, trials: range) -> list[float]:
    """Launch `replay-shield reproduce` in a fresh interpreter on a one-second
    scenario: start-up, imports, manifest parsing and the first requests."""
    times = []
    for trial in trials:
        cmd = [sys.executable, "-m", "replay_shield.cli", "--output", str(workdir / f"setup{trial}"),
               "reproduce", "--scenario", "mre", "--both", "--duration", str(SETUP_DURATION)]
        start = perf_counter()
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=servers.child_env(), timeout=60)
        times.append(perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"reproduce set-up run failed: {done.stderr.decode(errors='replace')}")
    return times


def _series_total(path: Path) -> int:
    with open(path, newline="") as fh:
        return sum(int(row["count"]) for row in csv.DictReader(fh))


def _line_count(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def _summary_totals(path: Path) -> dict[str, int]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        name, _, value = line.partition(":")
        if name in ("before_total", "after_total"):
            out[name] = int(value)
    return out


def check_scenario(name: str, before, after, out_dir: Path) -> list[str]:
    """Every way the two experiments and their artifacts differ from the oracle."""
    problems = []
    for label, result, cached in (("before", before, False), ("after", after, True)):
        exp = oracles.expected_lab_counts(name, DURATION, cached)
        memory = sum(1 for e in result.events if e.source.value == "memory_cache")
        report = result.client_report
        got = {
            "network": len(result.network_events),
            "memory_cache": memory,
            "upstream": result.upstream_request_count,
            "upstream_404": result.upstream_status_counts.get(404, 0),
            "proxy_upstream": result.proxy_metrics.upstream_requests,
            "report_total": report.total,
            "per_second_sum": sum(c for _, c in report.per_second),
            "cumulative_last": report.cumulative[-1][1],
            "series_csv_sum": _series_total(out_dir / f"series_{label}.csv"),
            "events_csv_rows": _line_count(out_dir / f"events_{label}.csv") - 1,
        }
        want = {
            "network": exp.network,
            "memory_cache": exp.memory_cache,
            "upstream": exp.upstream,
            "upstream_404": exp.upstream_404,
            "proxy_upstream": exp.upstream,
            "report_total": exp.network,
            "per_second_sum": exp.network,
            "cumulative_last": exp.network,
            "series_csv_sum": exp.network,
            "events_csv_rows": exp.network + exp.memory_cache,
        }
        problems += [f"{name} {label} {k}: got {got[k]}, expected {want[k]}" for k in want if got[k] != want[k]]
    totals = _summary_totals(out_dir / "summary.txt")
    expected_totals = {
        "before_total": oracles.expected_lab_counts(name, DURATION, False).network,
        "after_total": oracles.expected_lab_counts(name, DURATION, True).network,
    }
    if totals != expected_totals:
        problems.append(f"{name} summary.txt totals {totals}, expected {expected_totals}")
    return problems


def run(seed: int, seconds: float, traced: bool, workdir: Path) -> dict:
    setup_times = [] if traced else timed_setups(workdir, range(servers.SETUP_TRIALS_BEFORE))

    # one sample per in-process request of the current scenario run
    latencies = array.array("d")
    recorder = tracing.Recorder()
    if traced:
        tracing.install(recorder)
    else:
        run_page = cli.run_page

        def timed_run_page(spec, transport, *args, **kwargs):
            def timed_transport(request):
                start = perf_counter()
                response = transport(request)
                latencies.append(perf_counter() - start)
                return response

            return run_page(spec, timed_transport, *args, **kwargs)

        cli.run_page = timed_run_page

    captured = []
    run_experiment = cli.run_experiment

    def capturing_run_experiment(spec):
        result = run_experiment(spec)
        captured.append(result)
        return result

    cli.run_experiment = capturing_run_experiment

    rng = random.Random(seed)
    out_dir = workdir / "reproduce"
    argv = ["--output", str(out_dir), "reproduce", "--both", "--duration", str(DURATION), "--scenario"]
    # per scenario, its fastest runs so far: (seconds, network requests, latencies)
    fastest: dict[str, list[tuple[float, int, array.array]]] = {name: [] for name in SCENARIOS}
    passes = attempted = failed = 0
    shielded_upstream = 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        order = list(SCENARIOS)
        rng.shuffle(order)
        for name in order:
            del captured[:]
            latencies = array.array("d")
            attempted += 1
            stdout = io.StringIO()
            start = perf_counter()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv + [name])
            took = perf_counter() - start
            if code != 0 or len(captured) != 2:
                failed += 1
                print(f"{name}: exit code {code}, {len(captured)} experiments", file=sys.stderr)
                continue
            before, after = captured
            shielded_upstream += after.upstream_request_count
            found = check_scenario(name, before, after, out_dir)
            if found:
                failed += 1
                print("\n".join(found), file=sys.stderr)
            else:
                runs = fastest[name]
                runs.append((took, len(before.network_events) + len(after.network_events), latencies))
                runs.sort(key=lambda r: r[0])
                del runs[LATENCY_RUNS:]
        passes += 1

    # A pass at the calm end of the run: each scenario's fastest run. See README.md.
    reproduce_s = sum(runs[0][0] for runs in fastest.values() if runs)
    requests = sum(runs[0][1] for runs in fastest.values() if runs)
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": [f"no run of {name} passed its checks" for name, runs in fastest.items() if not runs],
        "passes": passes,
        "throughput_rps": requests / reproduce_s if reproduce_s else 0.0,
        "reproduce_s": reproduce_s,
        "upstream_requests": shielded_upstream / passes,
        "proxy_rss_mb": servers.peak_rss_mb("self"),
        "trace": recorder.summary(),
    }
    if not traced:
        setup_times += timed_setups(workdir, range(servers.SETUP_TRIALS_BEFORE, servers.SETUP_TRIALS))
        pooled = [x for runs in fastest.values() for _, _, samples in runs for x in samples]
        result["setup_s"] = statistics.median(setup_times)
        result["latency_p50_ms"] = statistics.median(pooled) * 1000
        result["latency_p99_ms"] = statistics.quantiles(pooled, n=100)[98] * 1000
    return result
