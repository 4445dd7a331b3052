"""One benchmark process: a fresh interpreter, as a shell user's invocation is.

    python3 bench/child.py setup SCENARIO...
        import paretoscope and load each scenario, then exit.
    python3 bench/child.py run RESULT_JSON TRACE -- CLI_ARGS...
        call paretoscope.cli.main(CLI_ARGS), timing main() alone, and write
        the exit code, the time, the peak RSS and (TRACE=1) the span
        summary to RESULT_JSON.  The report goes to stdout as usual.

The package is imported from ``src/`` of the checkout that holds this file.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def setup(paths: list[str]) -> None:
    import paretoscope

    for path in paths:
        paretoscope.load_scenario(path)


def run(result_path: str, trace: bool, argv: list[str]) -> None:
    from paretoscope import cli

    main = cli.main
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        main = tracer.wrap("main", main)
    start = time.perf_counter()
    code = main(argv)
    seconds = time.perf_counter() - start
    result = {
        "exit": code,
        "main_s": seconds,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        setup(rest)
    elif mode == "run" and len(rest) >= 3 and rest[2] == "--":
        run(rest[0], rest[1] == "1", rest[3:])
    else:
        sys.exit(f"usage: {sys.argv[0]} setup SCENARIO... | run RESULT TRACE -- ARGS...")
