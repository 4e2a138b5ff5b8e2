"""Start and stop the proxy and upstream roles as separate processes, the way
`replay-shield serve` deploys them, and time how long they take to be ready."""

from __future__ import annotations

import os
import select
import signal
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

from client import Connection

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
READY_TIMEOUT = 60.0
# An untraced run times this many set-ups and reports their median. The first
# SETUP_TRIALS_BEFORE come before the timed phase and the rest after it, so
# that the median does not rest on the host's speed at one moment.
SETUP_TRIALS = 7
SETUP_TRIALS_BEFORE = 4


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def peak_rss_mb(pid: int | str) -> float:
    """Peak resident set (VmHWM) of a process, read from /proc; "self" for this one."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc status")


class Server:
    """One `serve` process; `address` is set once it reports that it listens."""

    def __init__(self, args: list[str], log_path: Path, trace_path: Path | None):
        if trace_path is None:
            cmd = [sys.executable, "-m", "replay_shield.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "traced_serve.py"), str(trace_path), *args]
        self.trace_path = trace_path
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self._errors = open(log_path.with_suffix(".err"), "wb")
        self._drain = None
        self.proc = subprocess.Popen(cmd, stdout=self._log, stderr=subprocess.PIPE, env=child_env())
        try:
            self.address = self._wait_ready()
        except BaseException:
            self.stop(graceful=False)
            raise
        # Keep reading stderr after the ready line: a handler traceback per
        # failed request would otherwise fill the pipe and block the server.
        self._drain = threading.Thread(target=shutil.copyfileobj, args=(self.proc.stderr, self._errors), daemon=True)
        self._drain.start()

    def _wait_ready(self) -> str:
        deadline = time.monotonic() + READY_TIMEOUT
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self.proc.stderr], [], [], left)[0]:
                raise RuntimeError("server did not report its address in time")
            chunk = os.read(self.proc.stderr.fileno(), 1)
            if not chunk:
                raise RuntimeError(f"server exited with {self.proc.wait()} before listening")
            line += chunk
        # "serving proxy on 127.0.0.1:40123"
        return line.decode().strip().rsplit(" ", 1)[1]

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self, graceful: bool) -> None:
        """SIGINT lets `serve` close its listener (and a traced server write its
        trace); otherwise the process is killed."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT if graceful else signal.SIGKILL)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._drain is not None:
            self._drain.join()
        self.proc.stderr.close()
        self._log.close()
        self._errors.close()


class Deployment:
    """An upstream simulator and a proxy in front of it."""

    def __init__(self, manifest: Path, proxy_config: Path, workdir: Path, tag: str, traced: bool):
        self.upstream = self.proxy = None
        trace = (lambda role: workdir / f"{tag}-{role}.trace.json") if traced else (lambda role: None)
        try:
            self.upstream = Server(
                ["serve", "upstream", "--manifest", str(manifest)], workdir / f"{tag}-upstream.log", trace("upstream")
            )
            self.proxy = Server(
                ["--config", str(proxy_config), "serve", "proxy", "--upstream", self.upstream.address],
                workdir / f"{tag}-proxy.log",
                trace("proxy"),
            )
            conn = Connection(self.proxy.address)
            try:
                status = conn.get("/__metrics")[0]
            finally:
                conn.close()
            if status != 200:
                raise RuntimeError(f"proxy answered /__metrics with {status}")
        except BaseException:
            self.stop(graceful=False)
            raise

    def stop(self, graceful: bool) -> None:
        for server in (self.proxy, self.upstream):
            if server is not None:
                server.stop(graceful)


def deploy_timed(manifest: Path, proxy_config: Path, workdir: Path, trials: range, traced: bool,
                 keep_last: bool) -> tuple[Deployment | None, list[float]]:
    """Deploy once per trial, from launch to the first answered request, and
    return every set-up time. With keep_last, the last deployment is left
    running and returned; otherwise each one is stopped."""
    times = []
    deployment = None
    try:
        for trial in trials:
            if deployment is not None:
                deployment.stop(graceful=False)
            start = time.perf_counter()
            deployment = Deployment(manifest, proxy_config, workdir, f"setup{trial}", traced)
            times.append(time.perf_counter() - start)
    except BaseException:  # a signal between trials must not leave one running
        if deployment is not None:
            deployment.stop(graceful=False)
        raise
    if not keep_last and deployment is not None:
        deployment.stop(graceful=False)
        deployment = None
    return deployment, times
