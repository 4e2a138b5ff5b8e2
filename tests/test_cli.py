"""End-to-end CLI and experiment harness behavior."""

from __future__ import annotations

import argparse
import http.client
import io
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from replay_shield import cli
from replay_shield.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    ExperimentSpec,
    main,
    run_experiment,
)
from replay_shield.analyzer import MAX_SPAN_SECONDS
from replay_shield.cache import KeyMode
from replay_shield.configtext import parse_config_text
from replay_shield.httpmsg import Response
from replay_shield.proxy import CONFIG_KEYS, InjectionMode, ProxyConfig, ReverseProxy, proxy_config_from_text
from replay_shield.upstream import UpstreamSimulator, parse_manifest_text
from replay_shield.wire import http_fetch, serve_handler
from replay_shield.workload import builtin_scenario


SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def reproduce_pair(scenario: str, duration: float | None = None):
    base = ExperimentSpec(scenario=scenario, duration=duration)
    from dataclasses import replace

    before = run_experiment(replace(base, cache_enabled=False, injection_mode=InjectionMode.OFF))
    after = run_experiment(replace(base, cache_enabled=True, injection_mode=InjectionMode.ALWAYS))
    return before, after


class TestRunExperiment:
    def test_mre_before_after(self):
        before, after = reproduce_pair("mre", duration=60.0)
        assert 166 <= len(before.network_events) <= 188
        assert len(after.network_events) == 7
        assert after.proxy_metrics.upstream_requests == 7

    def test_carousel12_cache_on_upstream_equals_distinct(self):
        result = run_experiment(ExperimentSpec(scenario="carousel12"))
        # 12 loader images + page + slideshow script
        assert result.upstream_request_count == 14
        assert result.upstream_status_counts[404] == 12

    def test_feed_poll_cache_off_counts(self):
        from dataclasses import replace

        spec = ExperimentSpec(scenario="feed_poll", cache_enabled=False, injection_mode=InjectionMode.OFF)
        result = run_experiment(replace(spec, duration=60.0))
        recurring = [e for e in result.network_events if "feed" in e.url]
        assert len(recurring) == 24  # 2 feeds x 12 polls at 5s over 60s
        assert len(result.network_events) == 25

    def test_in_process_upstream_count_matches_proxy_metric(self):
        for scenario in ("mre", "carousel12", "onerror_playlist", "feed_poll"):
            result = run_experiment(ExperimentSpec(scenario=scenario, duration=20.0))
            assert result.upstream_request_count == result.proxy_metrics.upstream_requests

    def test_cached_upstream_equals_distinct_urls_per_scenario(self):
        # with caching on and lifetime covering the horizon, the backend sees
        # each distinct URL exactly once
        for scenario in ("mre", "carousel12", "onerror_playlist", "feed_poll"):
            page, _ = builtin_scenario(scenario)
            result = run_experiment(ExperimentSpec(scenario=scenario, duration=60.0))
            assert result.proxy_metrics.upstream_requests == len(page.distinct_urls()), scenario

    def test_conservation_in_results(self):
        result = run_experiment(ExperimentSpec(scenario="onerror_playlist", duration=30.0))
        m = result.proxy_metrics
        assert m.client_requests == m.cache_hits_fresh + m.upstream_requests + m.throttled_429

    def test_deterministic_runs(self):
        a = run_experiment(ExperimentSpec(scenario="mre"))
        b = run_experiment(ExperimentSpec(scenario="mre"))
        assert a.events == b.events
        assert a.client_report == b.client_report

    def test_fuzzy_key_mode_collapses_busted_urls(self, tmp_path):
        # a page polling one feed with a cache-busting timestamp param
        manifest = "20210901092756\t404\t-\thttp://f.test/feed\tinline:\n"
        manifest_path = tmp_path / "m.manifest"
        manifest_path.write_text(manifest)
        spec_text = (
            "name = busted\n"
            "duration = 50\n"
            "essential.0 = http://archive.test/wayback/20210901092756/http://f.test/feed?cb=1630489675000\n"
            "behavior.0.type = xhr_poll\n"
            "behavior.0.url = http://archive.test/wayback/20210901092756/http://f.test/feed?cb=1630489675001\n"
            "behavior.0.interval = 1\n"
        )
        spec_file = tmp_path / "busted.spec"
        spec_file.write_text(spec_text)
        result = run_experiment(
            ExperimentSpec(
                scenario=str(spec_file),
                key_mode=KeyMode.FUZZY,
                manifest_path=manifest_path,
            )
        )
        assert result.upstream_request_count == 1

    def test_ia_patch_mode_multiplies_uncached_traffic(self):
        from collections import Counter
        from dataclasses import replace

        base = ExperimentSpec(scenario="mre", duration=60.0, patch=True)
        before = run_experiment(
            replace(base, cache_enabled=False, injection_mode=InjectionMode.OFF)
        )
        # every image fire becomes a redirect hop plus a save/_embed hop
        statuses = Counter(e.status for e in before.network_events)
        assert statuses[302] == 180
        assert statuses[429] == 174  # SPN attempts beyond one per image per 30s window
        assert statuses[404] == 6  # 3 images x 2 throttle windows in 60s
        save_hops = [e for e in before.network_events if "/save/_embed/" in e.url]
        assert len(save_hops) == 180

        after = run_experiment(
            replace(base, cache_enabled=True, injection_mode=InjectionMode.ALWAYS)
        )
        # injected headers let the browser cache the 302s and the SPN 404s
        assert len(after.network_events) == 10
        assert Counter(e.status for e in after.network_events) == {200: 4, 302: 3, 404: 3}

    def test_scenario_file_without_manifest_is_config_error(self, tmp_path):
        from replay_shield.configtext import ConfigError

        spec_file = tmp_path / "x.spec"
        spec_file.write_text(
            "name = mre\n"
            "duration = 60\n"
            "essential.0 = http://archive.test/wayback/20210915120000/http://mre.example/MREcarousel.html\n"
            "behavior.0.type = carousel_loop\n"
            "behavior.0.period = 0.5\n"
            "behavior.0.urls.0 = http://archive.test/wayback/20210915120000im_/http://mre.example/img/photo1.jpg\n"
        )
        with pytest.raises(ConfigError):
            run_experiment(ExperimentSpec(scenario=str(spec_file)))


class TestCliReproduce:
    def test_both_writes_fixed_layout(self, tmp_path, capsys):
        code = main(
            [
                "--output",
                str(tmp_path),
                "reproduce",
                "--scenario",
                "mre",
                "--both",
                "--duration",
                "60",
            ]
        )
        assert code == EXIT_OK
        for name in ("series_before.csv", "series_after.csv", "summary.txt", "metrics.txt"):
            assert (tmp_path / name).exists(), name
        summary = (tmp_path / "summary.txt").read_text()
        assert "reduction_ratio:" in summary
        out = capsys.readouterr().out
        assert "before_total:" in out

    def test_single_run_cache_on(self, tmp_path):
        code = main(
            ["--output", str(tmp_path), "reproduce", "--scenario", "carousel12"]
        )
        assert code == EXIT_OK
        assert (tmp_path / "series_after.csv").exists()
        assert "upstream_requests: 14" in (tmp_path / "summary.txt").read_text()

    def test_unknown_scenario_exit_2(self, tmp_path, capsys):
        code = main(["--output", str(tmp_path), "reproduce", "--scenario", "bogus"])
        assert code == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("duration", ["inf", "nan"])
    def test_non_finite_duration_exit_2(self, tmp_path, capsys, duration):
        code = main(["--output", str(tmp_path), "reproduce", "--scenario", "mre", "--duration", duration])
        assert code == EXIT_CONFIG
        assert "duration" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["reproduce", "run-workload"])
    def test_duration_over_the_report_span_exit_2(self, tmp_path, capsys, command):
        page = ["--scenario", "carousel12", "--duration", str(MAX_SPAN_SECONDS + 1)]
        extra = ["--base", "127.0.0.1:1"] if command == "run-workload" else []
        assert main(["--output", str(tmp_path), command, *page, *extra]) == EXIT_CONFIG
        assert f"duration {MAX_SPAN_SECONDS + 1} s is over the {MAX_SPAN_SECONDS} s" in capsys.readouterr().err

    def test_reproduce_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["--output", str(out), "reproduce", "--scenario", "feed_poll", "--both"]) == EXIT_OK
        for name in ("series_before.csv", "series_after.csv", "summary.txt", "metrics.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


class TestCliAnalyze:
    def har_file(self, tmp_path, n=174, duration=60.0):
        entries = []
        base_ms = 0
        for i in range(n):
            ms = int(round(i * duration * 1000 / (n - 1)))
            sec, ms_part = divmod(base_ms + ms, 1000)
            entries.append(
                {
                    "startedDateTime": f"2021-09-01T09:{27 + sec // 60:02d}:{sec % 60:02d}.{ms_part:03d}Z",
                    "request": {"method": "GET", "url": "http://a.test/missing.png"},
                    "response": {"status": 404},
                }
            )
        path = tmp_path / "trace.har"
        path.write_text(json.dumps({"log": {"entries": entries}}))
        return path

    def test_uniform_174_avg(self, tmp_path, capsys):
        har = self.har_file(tmp_path)
        code = main(["--output", str(tmp_path), "analyze", str(har)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "avg_per_minute:   174.00" in out
        assert (tmp_path / "series.csv").exists()

    def test_fuzzy_numeric_collapses_clusters(self, tmp_path, capsys):
        entries = [
            {
                "startedDateTime": f"2021-09-01T09:27:{i % 60:02d}.000Z",
                "request": {"method": "GET", "url": f"http://a.test/feed?ts={1630489675000 + i}"},
                "response": {"status": 404},
            }
            for i in range(50)
        ]
        har = tmp_path / "busted.har"
        har.write_text(json.dumps({"log": {"entries": entries}}))
        code = main(["--output", str(tmp_path), "analyze", str(har), "--fuzzy-numeric"])
        assert code == EXIT_OK
        assert "recurring_clusters: 1" in capsys.readouterr().out

    @pytest.mark.parametrize("port", ["\u00b2", "9" * 5000], ids=["superscript", "5000-digits"])
    def test_url_with_a_port_that_does_not_read_is_its_own_key(self, tmp_path, capsys, port):
        url = f"http://a.test:{port}/feed?ts=1630489675000"
        entries = [
            {"startedDateTime": f"2021-09-01T09:27:0{i}.000Z", "request": {"method": "GET", "url": url},
             "response": {"status": 404}}
            for i in range(3)
        ]
        har = tmp_path / "port.har"
        har.write_text(json.dumps({"log": {"entries": entries}}))
        assert main(["--output", str(tmp_path), "analyze", str(har), "--fuzzy-numeric"]) == EXIT_OK
        assert "recurring_clusters: 1" in capsys.readouterr().out

    def test_empty_har_ok(self, tmp_path, capsys):
        har = tmp_path / "empty.har"
        har.write_text(json.dumps({"log": {"entries": []}}))
        assert main(["--output", str(tmp_path), "analyze", str(har)]) == EXIT_OK
        assert "total_requests:   0" in capsys.readouterr().out

    def test_malformed_har_exit_2(self, tmp_path):
        bad = tmp_path / "bad.har"
        bad.write_text("not json at all")
        assert main(["--output", str(tmp_path), "analyze", str(bad)]) == EXIT_CONFIG

    def test_non_object_request_exit_2(self, tmp_path, capsys):
        har = tmp_path / "null-request.har"
        har.write_text(json.dumps({"log": {"entries": [{"startedDateTime": "2021-09-01T09:27:55Z", "request": None}]}}))
        assert main(["--output", str(tmp_path), "analyze", str(har)]) == EXIT_CONFIG
        assert "entry 0" in capsys.readouterr().err

    def test_events_csv_input(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["--output", str(out), "reproduce", "--scenario", "feed_poll", "--both"]) == EXIT_OK
        events_csv = out / "events_before.csv"
        assert events_csv.exists()
        assert main(["--output", str(tmp_path), "analyze", str(events_csv)]) == EXIT_OK
        assert "total_requests:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text, message",
        [
            ("t_seconds,url,source\n0.0,http://a/1,network\n", "lacks column status"),
            ("t_seconds,url,source,status\n0.0,http://a/1\n",
             "events.csv line 2: source None is not one of network, memory_cache, limiter_suppressed"),
            ("t_seconds,url,source,status\n0.0,http://a/1,network\n", "events.csv line 2: status None is not an integer"),
            ("t_seconds,url,source,status\n0.0,http://a/x,network,404\n0.1,http://a/x,network,4o4\n",
             "events.csv line 3: status '4o4' is not an integer"),
            ("t_seconds,url,source,status\n0.0,http://a/x,netwerk,404\n",
             "events.csv line 2: source 'netwerk' is not one of network, memory_cache, limiter_suppressed"),
            *((f"t_seconds,url,source,status\n0.0,http://a/1,network,404\n{t},http://a/1,network,404\n",
               f"events.csv line 3: t_seconds {t!r} is not a finite number") for t in ("nan", "-inf", "soon", "")),
            ("t_seconds,url,source,status\n-5,http://a/1,network,404\n1e12,http://a/1,network,404\n",
             f"event times span 1e+12 s, over the {MAX_SPAN_SECONDS} s one report covers"),
        ],
        ids=["no-status-column", "short-row", "no-status", "text-status", "unknown-source", "nan-time",
             "infinite-time", "text-time", "empty-time", "span-over-the-bound"],
    )
    def test_malformed_events_csv_exit_2(self, tmp_path, capsys, text, message):
        bad = tmp_path / "events.csv"
        bad.write_text(text, encoding="utf-8")
        assert main(["--output", str(tmp_path), "analyze", str(bad)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_span_at_the_bound_is_reported(self, tmp_path, capsys):
        events = tmp_path / "events.csv"
        events.write_text(f"t_seconds,url,source,status\n-5,http://a/1,network,404\n"
                          f"{MAX_SPAN_SECONDS - 5},http://a/1,network,404\n")
        assert main(["--output", str(tmp_path), "analyze", str(events)]) == EXIT_OK
        assert f"duration_seconds: {MAX_SPAN_SECONDS:.1f}" in capsys.readouterr().out
        rows = (tmp_path / "series.csv").read_text().splitlines()
        assert len(rows) == 1 + MAX_SPAN_SECONDS + 1


class TestCliEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "replay_shield.cli",
                "--output",
                str(tmp_path),
                "reproduce",
                "--scenario",
                "mre",
                "--both",
                "--duration",
                "10",
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "reduction_ratio:" in proc.stdout

    def test_sigint_leaves_serve_upstream_log_complete(self, tmp_path):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text(builtin_scenario("mre")[1], encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
        targets = [f"/wayback/20210901092756/http://x.pt/{i % 3}.png" for i in range(30)]
        with open(tmp_path / "upstream.log", "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "replay_shield.cli", "serve", "upstream", "--manifest", str(manifest)],
                stdout=log, stderr=subprocess.PIPE, env=env,
            )
        try:
            address = proc.stderr.readline().decode().split()[-1]  # "serving upstream on host:port"
            host, port = address.split(":")
            conn = http.client.HTTPConnection(host, int(port), timeout=10)
            statuses = []
            for target in targets:
                conn.request("GET", target)
                response = conn.getresponse()
                response.read()
                statuses.append(response.status)
            conn.close()
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=15) == EXIT_OK
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stderr.close()
        lines = (tmp_path / "upstream.log").read_text(encoding="utf-8").split("\n")
        assert lines.pop() == ""
        record = re.compile(r"\d+\.\d{3} GET (\S+) (\d{3}) -")
        assert [line for line in lines if not record.fullmatch(line)] == []
        assert [record.fullmatch(line).groups() for line in lines] == [
            (f"http://{address}{target}", str(status)) for target, status in zip(targets, statuses)
        ]

    def test_missing_config_file_exit_2(self, tmp_path):
        code = main(["--config", str(tmp_path / "missing.conf"), "serve", "proxy"])
        assert code == EXIT_CONFIG

    def test_env_var_config_fallback(self, tmp_path, monkeypatch):
        bad = tmp_path / "bad.conf"
        bad.write_text("injection.mode = sideways\n")
        monkeypatch.setenv("REPLAY_SHIELD_CONFIG", str(bad))
        assert main(["serve", "proxy"]) == EXIT_CONFIG

    def test_unwritable_output_exit_3(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file in the way")
        from replay_shield.cli import EXIT_RUNTIME

        code = main(["--output", str(blocker), "reproduce", "--scenario", "mre", "--duration", "5"])
        assert code == EXIT_RUNTIME


class TestLiveTransport:
    """The socket path runs on the same logical clock as the in-process one."""

    def test_run_workload_base_matches_in_process(self, tmp_path):
        page = ["--scenario", "mre", "--duration", "2"]
        assert main(["--output", str(tmp_path / "local"), "reproduce", *page]) == EXIT_OK
        sim = UpstreamSimulator(parse_manifest_text(builtin_scenario("mre")[1]))
        with serve_handler(sim.serve) as upstream:
            proxy = ReverseProxy(ProxyConfig(), lambda req: http_fetch(upstream.address, req))
            with serve_handler(proxy.handle_request) as front:
                code = main(["--output", str(tmp_path / "base"), "run-workload", *page, "--base", front.address])
        assert code == EXIT_OK
        local = (tmp_path / "local" / "events_after.csv").read_text().splitlines()
        assert (tmp_path / "base" / "events.csv").read_text().splitlines() == local


class TestWorkloadFlags:
    def test_reproduce_passes_key_mode(self, tmp_path, monkeypatch):
        seen = []
        real = cli.run_experiment

        def capture(spec):
            seen.append(spec)
            return real(spec)

        monkeypatch.setattr(cli, "run_experiment", capture)
        argv = ["--output", str(tmp_path), "reproduce", "--scenario", "feed_poll", "--duration", "10",
                "--key-mode", "fuzzy"]
        assert main(argv) == EXIT_OK
        (spec,) = seen
        assert spec.key_mode is KeyMode.FUZZY

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["reproduce", "--scenario", "mre", "--transport", "live"], "--transport"),
            (["reproduce", "--scenario", "mre", "--cache", "off"], "--cache"),
            (["serve", "proxy", "--patch", "ia"], "--patch"),
            (["serve", "proxy", "--manifest", "m"], "--manifest"),
            (["serve", "upstream", "--manifest", "m", "--upstream", "a"], "--upstream"),
            (["serve", "upstream"], "--manifest"),
            (["--config", "c", "reproduce", "--scenario", "mre"], "--config"),
        ],
    )
    def test_rejected_command_line_names_its_flag(self, tmp_path, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(["--output", str(tmp_path), *argv])
        assert exc.value.code == EXIT_CONFIG
        assert flag in capsys.readouterr().err

    def test_serve_rejects_output(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--output", "x", "serve", "upstream", "--manifest", "m"])
        assert exc.value.code == EXIT_CONFIG
        assert "--output" in capsys.readouterr().err

    def test_run_workload_against_a_closed_port_exits_3(self, tmp_path, capsys):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            address = f"127.0.0.1:{sock.getsockname()[1]}"
        out = tmp_path / "run"
        code = main(["--output", str(out), "run-workload", "--scenario", "mre", "--duration", "2", "--base", address])
        assert code == EXIT_RUNTIME
        assert address in capsys.readouterr().err
        assert not (out / "events.csv").exists()

    def test_run_workload_against_the_upstream_exits_3(self, tmp_path, capsys):
        sim = UpstreamSimulator(parse_manifest_text(builtin_scenario("mre")[1]))
        out = tmp_path / "run"
        with serve_handler(sim.serve) as upstream:
            argv = ["--output", str(out), "run-workload", "--scenario", "mre", "--duration", "2",
                    "--base", upstream.address]
            code = main(argv)
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert upstream.address in err and "not a replay-shield proxy" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["reproduce", "--scenario", "mre", "--patch", "arquivo"],
            ["run-workload", "--scenario", "mre", "--patch", "arquivo"],
            ["serve", "upstream", "--patch", "arquivo"],
        ],
    )
    def test_patch_arquivo_is_rejected(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main(["--output", str(tmp_path), *argv])
        assert exc.value.code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "flag",
        [["--cache", "off"], ["--injection", "off"], ["--key-mode", "fuzzy"], ["--patch", "ia"],
         ["--manifest", "store.manifest"], ["--transport", "live"]],
    )
    def test_base_rejects_flags_of_the_remote_stack(self, tmp_path, capsys, flag):
        argv = ["--output", str(tmp_path), "run-workload", "--scenario", "mre", "--base", "127.0.0.1:1", *flag]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        assert flag[0] in capsys.readouterr().err
        assert not (tmp_path / "events.csv").exists()

    def test_run_workload_needs_base(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--output", str(tmp_path), "run-workload", "--scenario", "mre"])
        assert exc.value.code == EXIT_CONFIG
        assert "--base" in capsys.readouterr().err

    def test_min_repeats_one_without_limiter_is_accepted(self, tmp_path):
        argv = ["--output", str(tmp_path), "reproduce", "--scenario", "mre", "--duration", "5", "--min-repeats", "1"]
        assert main(argv) == EXIT_OK
        assert main(argv + ["--limiter"]) == EXIT_CONFIG


class TestProxyConfigKeys:
    def test_readme_documents_exactly_the_accepted_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("Proxy config file", 1)[1].split("```", 2)[1]
        assert set(parse_config_text(block)) == CONFIG_KEYS
        proxy_config_from_text(block)  # the documented file is a valid config

    def test_serve_proxy_rejects_coalesce_key(self, tmp_path, capsys):
        # and every other key whose setting became a constant
        conf = tmp_path / "proxy.conf"
        for line in (
            "coalesce = true",
            "injection.header = public, max-age=600",
            "cache.statuses = 200,404",
            "throttle.window_seconds = 30",
            "throttle.prefixes = /save/_embed/",
        ):
            conf.write_text(line + "\n")
            assert main(["--config", str(conf), "serve", "proxy"]) == EXIT_CONFIG, line
            assert "unknown config keys" in capsys.readouterr().err, line


def _argparse_flags(parser: argparse.ArgumentParser, command: str = "") -> dict[str, set[str]]:
    """{command path: the long flags argparse defines on it}; "" is the top level."""
    flags: dict[str, set[str]] = {command: set()}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                flags.update(_argparse_flags(sub, f"{command} {name}".strip()))
        else:
            flags[command].update(o for o in action.option_strings if o.startswith("--") and o != "--help")
    return {name: found for name, found in flags.items() if found}


def _readme_flags() -> dict[str, set[str]]:
    """{command path: the flags README's knob list gives it}; "global" is the top level."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("Useful knobs, per command.", 1)[1].split("\n## ", 1)[0]
    items = re.findall(r"^- (.*(?:\n  .*)*)", section, re.MULTILINE)
    listed = {}
    for item in items:
        label, _, flags = item.partition(": ")
        command = "" if label.startswith("global") else label.strip("`")
        listed[command] = set(re.findall(r"--[a-z][a-z-]*", flags))
    return listed


class TestCliFlags:
    def test_readme_documents_exactly_the_accepted_flags(self):
        defined = _argparse_flags(cli.build_arg_parser())
        assert set(defined) == {"", "reproduce", "run-workload", "analyze", "serve proxy", "serve upstream"}
        assert _readme_flags() == defined


class _YieldingStdout(io.StringIO):
    """Captured stdout that lets other threads run before and after every
    write, as a write to a pipe may."""

    def write(self, text):
        time.sleep(0.0005)
        written = super().write(text)
        time.sleep(0.0005)
        return written


def test_serve_log_records_stay_whole_across_threads():
    out = _YieldingStdout()
    threads_n, lines_each = 8, 20
    barrier = threading.Barrier(threads_n)

    def app(request, now):
        return Response(404, (("X-Cache", "MISS"),))

    def client(address, i):
        host, port = address.split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=5)
        barrier.wait()
        try:
            for j in range(lines_each):
                conn.request("GET", f"/wayback/20090628044051/http://x.pt/{i}-{j}.png")
                conn.getresponse().read()
        finally:
            conn.close()

    with serve_handler(app, log=out) as server:
        threads = [threading.Thread(target=client, args=(server.address, i)) for i in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        kept = server.log_lines
    lines = out.getvalue().split("\n")
    assert lines.pop() == ""
    assert len(lines) == threads_n * lines_each
    record = re.compile(r"\d+\.\d{3} (GET|HEAD) \S+ \d{3} (HIT|MISS|-)")
    assert [line for line in lines if not record.fullmatch(line)] == []
    assert lines == kept
