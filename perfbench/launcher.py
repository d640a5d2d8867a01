"""Traced ``repro serve``: wrap every layer, serve, write the spans at exit.

Usage: ``python perfbench/launcher.py SPANS.json [serve options...]``.

The wrappers go in before the CLI builds the engine and calls the
service's serve loop, so the traced node is configured by exactly the
code and defaults of ``python -m repro serve``.  SIGINT (or SIGTERM)
stops the server the way an operator's Ctrl-C does; the spans are then
dumped to ``SPANS.json`` as one JSON list.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.tracing import Recorder, install  # noqa: E402


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv: list) -> int:
    if not argv:
        print("usage: launcher.py SPANS.json [serve options...]",
              file=sys.stderr)
        return 2
    spans_path, serve_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    from repro.cli import main as repro_main

    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return repro_main(["serve", *serve_args])
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
