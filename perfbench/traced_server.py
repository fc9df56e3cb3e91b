"""``python -m repro serve`` with the benchmark's layer wrappers.

Usage::

    python3 perfbench/traced_server.py OUT.json SPANS.jsonl serve --port 0 ...

Installs :mod:`layers` and runs the repro command line with the
remaining arguments. When the server stops (SIGINT), writes the
per-layer totals to ``OUT.json`` and the kept spans to ``SPANS.jsonl``.
"""

from __future__ import annotations

import json
import sys

import layers


def main() -> int:
    out_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    recorder = layers.install()
    from repro.__main__ import main as repro_main

    try:
        return repro_main(argv)
    finally:
        report = recorder.merged()
        report["spans"] = recorder.write_spans(spans_path)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
