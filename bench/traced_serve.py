"""Run `replay-shield` with the layers wrapped, then write the per-layer trace.

Usage: python3 bench/traced_serve.py TRACE.json <replay-shield arguments>

The benchmark starts its traced proxy and upstream through this script; they
stop on SIGINT, as `serve` does, after which the trace is written.
"""

import json
import sys

import tracing
from replay_shield import cli

if __name__ == "__main__":
    recorder = tracing.Recorder()
    tracing.install(recorder)
    code = cli.main(sys.argv[2:])
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(recorder.summary(), fh)
    sys.exit(code)
