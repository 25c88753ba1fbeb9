"""Run one cmapprox CLI command in a fresh process and record how it went.

    python3 perfbench/child.py RECORD TRACE [CLI ARGS...]

Imports `cmapprox.cli` from the checkout's `src/`, notes the moment the
import finished on the monotonic clock the parent also reads, runs
`cli.main` on the arguments (with the span tracer installed when TRACE is
1), then writes RECORD as JSON: the import time stamp, the exit code, the
process's own peak RSS and, when traced, the spans.  With no CLI arguments
it only imports, which warms the byte-code and file caches.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _exit_code(code) -> int:
    if code is None:
        return 0
    return code if isinstance(code, int) else 1


def peak_rss_kb() -> int:
    """VmHWM, the peak RSS of this program image.  ru_maxrss is not used: Linux
    carries the parent's peak over fork and exec into it."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("VmHWM missing from /proc/self/status")


def main() -> int:
    record_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import cmapprox.cli as cli

    imported = time.monotonic()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install("cmapprox")
    code = 0
    if argv:
        try:
            code = _exit_code(cli.main(argv))
        except SystemExit as exc:
            code = _exit_code(exc.code)
    record = {"imported": imported, "exit": code, "peak_rss_kb": peak_rss_kb()}
    if tracer is not None:
        record["trace"] = tracer.dump()
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
