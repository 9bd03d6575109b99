"""Run one mhaar command with its layer boundaries traced.

    python perfbench/traced_cli.py SPANS_FILE CMD_ID ARG...

is `python -m mhaar ARG...` with every function in spans.TARGETS
wrapped.  The spans stay in memory and are written to SPANS_FILE as
JSON when the command ends.  Pool workers forked by `search --workers`
inherit the wrappers but exit without writing, so their spans are lost
and their work shows only as time in the parent's decide_existence.
"""

import json
import sys

import spans


def main() -> None:
    out, cmd, *argv = sys.argv[1:]
    tracer = spans.Tracer(int(cmd))
    tracer.install()
    import mhaar.cli
    try:
        rc = mhaar.cli.main(argv)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    sys.exit(rc)


if __name__ == "__main__":
    main()
