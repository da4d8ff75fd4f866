"""Run ``repro <args>`` with the per-layer probes installed.

Usage: ``python paperbench/probe_main.py OUT.json <repro arguments>``.
The probes are installed, ``repro.cli.main`` runs exactly as ``python -m
repro`` would run it, and the recorder is written to ``OUT.json`` when it
returns (``repro serve`` returns on SIGINT).
"""

from __future__ import annotations

import sys


def main() -> int:
    out, args = sys.argv[1], sys.argv[2:]
    import probes

    recorder = probes.install()
    from repro.cli import main as repro_main

    code = 1
    try:
        code = repro_main(args)
    finally:
        recorder.dump(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
