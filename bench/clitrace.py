"""Run one prostd CLI command with the layer tracer installed.

    python3 bench/clitrace.py SUMMARY ARGV...

Behaves like `python3 -m prostd ARGV...` (same stdout bytes, same exit
code).  When SUMMARY is not empty, the command's trace window, its spans and
the time spent in `prostd.cli.main` are written there as JSON.
"""

from __future__ import annotations

import io
import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    summary, argv = sys.argv[1], sys.argv[2:]
    sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
    import prostd.cli
    from tracing import Tracer

    tracer = Tracer().install()
    tracer.recording = bool(summary)
    tracer.query = 0
    captured, real = io.StringIO(), sys.stdout
    sys.stdout = captured
    t0 = time.perf_counter()
    try:
        code = prostd.cli.main(argv)
    except SystemExit as e:              # argparse usage errors
        code = e.code if isinstance(e.code, int) else 1
    finally:
        main_s = time.perf_counter() - t0
        sys.stdout = real
    sys.stdout.write(captured.getvalue())
    sys.stdout.flush()
    if summary:
        tracer.end_window()
        Path(summary).write_text(json.dumps(
            {"window": tracer.window, "main_s": main_s, "spans": tracer.spans()}))
    return code


if __name__ == "__main__":
    sys.exit(main())
