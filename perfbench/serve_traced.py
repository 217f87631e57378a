"""Run ``repro serve`` with the layer wrappers installed.

Usage: ``python3 perfbench/serve_traced.py SPANS.jsonl <repro args>``.
The spans stay in memory while the service runs and are written to
``SPANS.jsonl`` once it has drained, with ``SPANS.meta.json`` naming the
wrap sites that could not be installed and the measured cost of one
wrapped call.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import layers
from spans import SpanRecorder, dump_spans, wrapper_cost_s


def main() -> int:
    out = Path(sys.argv[1])
    recorder = SpanRecorder()
    missing = layers.install(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(sys.argv[2:])
    finally:
        dump_spans(recorder.spans, out)
        out.with_suffix(".meta.json").write_text(json.dumps({
            "missing": missing, "wrapper_cost_s": wrapper_cost_s(),
        }))


if __name__ == "__main__":
    sys.exit(main())
