"""Traced server launcher: serve-layer wrappers, then ``run_server``.

Takes the ``repro serve run`` arguments the benchmark uses plus
``--record PATH``. It installs the serve-side spans of
:mod:`spans`, serves until interrupted, and writes the span snapshot to
``PATH`` on the way out. Run from a checkout root::

    PYTHONPATH=src python3 perfbench/serve_launcher.py --record spans.json \
        --port 0 --release eps20=release.npz
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.serve import ServeConfig, run_server
from spans import Tracing


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", required=True)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--release", action="append", required=True)
    args = parser.parse_args()
    releases = dict(spec.split("=", 1) for spec in args.release)
    tracing = Tracing(Path(args.record).parent)
    with tracing:
        tracing.install_serve()
        try:
            run_server(
                releases,
                ServeConfig(port=args.port),
                ready=lambda port: print(
                    f"serving {len(releases)} release(s) on http://127.0.0.1:{port}",
                    flush=True,
                ),
            )
        except KeyboardInterrupt:
            pass
        finally:
            Path(args.record).write_text(json.dumps(tracing.recorder.snapshot()))


if __name__ == "__main__":
    main()
