"""Run one ttspectral CLI command with spans around the library's functions.

    python3 cli_traced.py SPANS_JSON SPAWNED ARGS...

Runs ``ttspectral.cli.main(ARGS)`` with the wrappers of ``spans.py``
installed and exits with its code.  ``SPAWNED`` is the clock reading of the
parent just before it started this process, so ``cli.startup`` covers the
interpreter start and the imports.  The spans are written to ``SPANS_JSON``
as a JSON list.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402  (imports numpy and the library)
from ttspectral import cli  # noqa: E402


def main() -> int:
    out_path, spawned, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    tr = spans.Tracer()
    tr.add("cli.startup", spawned, spans.clock())
    with spans.installed(tr), tr.span("cli.main"):
        code = cli.main(argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tr.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
