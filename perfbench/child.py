"""Fresh-process entry point: measures a cold start of cuspred.

    python3 perfbench/child.py setup [WARM_DATUM_JSON]
    python3 perfbench/child.py cli TRACE ARG...

`setup` times the import of the command line module and, given a datum,
one validate, describe, packet and crossform call on it: the work a
library session does before its first query.  `cli` times the import,
then runs `cuspred.cli.main(ARG...)` with its output kept in memory, and
reports the exit code, the SHA-256 of the output, the time spent in
main, the peak RSS and, for enumerate, the census size and listing
length.  With TRACE 1 the layer functions are traced and the spans are
returned.  Either way the child prints one JSON object on stdout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WARM_COMMANDS = ("validate", "describe", "packet", "crossform")


def _setup(argv: list[str]) -> dict:
    started = time.perf_counter()
    from cuspred import cli

    for datum in argv:
        for command in WARM_COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main([command, "--format", "json", datum]) != 0:
                    raise SystemExit(f"warm-up {command} failed")
    return {"setup_s": time.perf_counter() - started}


def _cli(trace: bool, args: list[str]) -> dict:
    started = time.perf_counter()
    from cuspred import cli

    import_s = time.perf_counter() - started
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = cli.main(args)
    main_s = time.perf_counter() - started
    if tracer is not None:
        tracer.uninstall()
    text = out.getvalue()
    result = {
        "rc": rc,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "import_s": import_s,
        "main_s": main_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if rc == 0 and args[0] == "enumerate":
        obj = json.loads(text)
        result["count"] = obj["count"]
        result["listed"] = len(obj["data"]) if "data" in obj else None
    if tracer is not None:
        result["trace"] = tracer.export()
    return result


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    if argv[0] == "setup":
        result = _setup(argv[1:])
    else:
        result = _cli(argv[1] == "1", argv[2:])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
