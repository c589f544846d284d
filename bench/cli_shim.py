"""Run one ``resgraph`` command in a fresh interpreter with tracing on.

    python bench/cli_shim.py SPANS_FILE ARG...   # run resgraph.cli.main(ARGS)
    python bench/cli_shim.py --import-only       # print the import time, in ms

The shim loads only the standard library and ``tracer`` before it times
``import resgraph.cli`` (as a ``cli.import`` span); it then installs the
wrappers, calls ``resgraph.cli.main`` inside the same op span, writes the
folded stats and raw spans to SPANS_FILE as JSON, and exits with main's
return code.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracer  # noqa: E402  (after the path set-up, before resgraph)


def main() -> int:
    t = tracer.Tracer()
    t.begin_op(0)
    t0 = time.perf_counter()
    import resgraph.cli

    t1 = time.perf_counter()
    if sys.argv[1:] == ["--import-only"]:
        print(repr((t1 - t0) * 1e3))
        return 0
    t.spans.append(["cli.import", t0, t1, 0, 0])
    spans_file, argv = sys.argv[1], sys.argv[2:]
    t.install()
    try:
        code = resgraph.cli.main(argv)
    finally:
        t.end_op()
        t.uninstall()
        sys.stdout.flush()
        import json

        payload = {"stats": t.stats, "spans": t.spans}
        Path(spans_file).write_text(json.dumps(payload), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
