"""Traced entry point for the orbitkit CLI.

    python -m perfbench.shim SPANS_JSON OP_ID CLI_ARGS...

Installs the span recorder, then runs orbitkit.cli.main(CLI_ARGS) just
as `python -m orbitkit.cli CLI_ARGS` would, and writes the spans to
SPANS_JSON when main returns.  Every span carries OP_ID.
"""

import sys

from .spans import SpanRecorder


def main(argv) -> int:
    spans_path, op_id, cli_args = argv[0], int(argv[1]), argv[2:]
    recorder = SpanRecorder().install()
    recorder.op = op_id
    import orbitkit.cli
    try:
        return orbitkit.cli.main(cli_args)
    finally:
        recorder.uninstall()
        recorder.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
