"""Traced CLI peer: install the span wrappers, then run `saska.cli.main`.

    python perfbench/launcher.py SPANS_FILE OP_ID <saska peer arguments>

Used only by the traced run of pair-p40; the untraced run starts peers with
plain `python -m saska.cli`.  The spans of this process are written to
SPANS_FILE when the peer exits.
"""

import sys

import saska.cli
from tracing import Tracer, install


def main() -> int:
    spans_file, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = install(Tracer())
    tracer.op = op_id
    try:
        return saska.cli.main(argv)
    finally:
        tracer.write_spans(spans_file)


if __name__ == "__main__":
    sys.exit(main())
