"""Run one cfdeform command under the layer tracer.

    python3 perfbench/trace_child.py OUT.json ARG...

Behaves like ``python -m cfdeform ARG...`` (same stdout, stderr and exit
code) and writes the tracer's counters and spans to OUT.json on exit.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cfdeform.cli  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    try:
        return cfdeform.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main())
