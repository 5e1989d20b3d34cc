"""Traced CLI process: wrap credeq's layers, run ``credeq.cli.main(argv)``, save spans.

Usage: python3 bench/cli_child.py SPANS.npz -- CLI-ARGS...

The exit code is the CLI's. Spans are written once, when main returns.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv) -> int:
    out, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        sys.stderr.write(__doc__)
        return 2
    import credeq.cli
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0)
    try:
        code = credeq.cli.main(cli_args)
    finally:
        tracer.end_op(name="cli.main")
        tracer.uninstall()
        tracer.save(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
