"""Server-process entry point: ``repro serve`` with optional span tracing.

Usage::

    python3 perfbench/serve_entry.py --summary OUT.json [--trace] -- \\
        serve --db DB.tx --m 400 --port 0

Runs the repository's own CLI unchanged.  With ``--trace`` the serving
layers are wrapped from outside (``tracing.install_serving``) before
the server starts, and the spans are written next to the summary when
the server has drained.  The summary holds the peak RSS of this
process, which is the serving process.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

import tracing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summary", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    from repro import cli

    tracer = tracing.Tracer()
    if args.trace:
        tracing.install_serving(tracer)
    code = cli.main(cli_args)
    summary = {
        "exit": code,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": None,
    }
    if args.trace:
        summary["spans"] = args.summary + ".spans.jsonl"
        tracer.dump(summary["spans"])
    with open(args.summary, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
