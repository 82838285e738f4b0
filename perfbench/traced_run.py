"""Run the tsnorm CLI in-process with span tracing; write the spans once at exit.

    python3 perfbench/traced_run.py SPANS_JSON <tsnorm arguments...>

``tsnorm`` must be importable (the benchmark sets PYTHONPATH=src).  The exit
code is the CLI's.
"""

import json
import sys

import tracer


def main(argv) -> int:
    spans_path, tsnorm_args = argv[0], argv[1:]
    t = tracer.install()
    import tsnorm.cli as cli

    code = t.wrap("cli.main", cli.main)(tsnorm_args)
    with open(spans_path, "w") as fh:
        json.dump({"exit": code, "spans": t.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
