"""Traced ``graphfilt`` CLI process: ``child.py SPANS_JSON OP_ID <cli args...>``.

Runs the same ``graphfilt.cli.main`` the console script runs, with every
layer wrapped by the benchmark's tracer, and writes the spans (the import of
``graphfilt.cli`` included) to SPANS_JSON. Exits with main's return code.
"""

import json
import sys

import tracer


def run() -> int:
    spans_path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    rec = tracer.Tracer(op_id)
    with rec.span("import.graphfilt_cli"):
        import graphfilt.cli as cli
    tracer.install(rec)
    try:
        return cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(rec.spans, fh)


if __name__ == "__main__":
    sys.exit(run())
