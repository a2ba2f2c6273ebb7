"""End-to-end publish and serve benchmark, one workload per invocation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload publish --seed 1 --seconds 6 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers
installed; ``--trace 1`` is the separate traced run that reports the
per-layer metrics and the span trees. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

WORKLOADS = ("publish", "publish-sharded", "serve")
#: BLAS threads per process. The sharded publish runs two worker
#: processes and the serve phase a server beside this client, so one
#: thread each keeps processes x threads within a 2-core machine.
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced geometry and traffic, for the benchmark's own tests",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {src}", file=sys.stderr)
        return 2
    # Pinned before numpy loads; children inherit the environment.
    for variable in BLAS_VARIABLES:
        os.environ[variable] = BLAS_THREADS
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    )
    work = root / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    # Temporary files of this process and its children stay in the checkout.
    os.environ["TMPDIR"] = str(work)
    sys.path.insert(0, str(src))
    try:
        import bench

        run = bench.Run(args, root, work)
        metrics = run.measure_layers() if args.trace else run.measure_end_to_end()
        print("provenance " + json.dumps(bench.provenance(run, bool(args.trace))))
        for line in run.lines:
            print(line)
        for error in run.errors:
            print(f"check failed: {error}")
        correct = not run.errors
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": max(1, run.attempted),
                    "failed": run.failed,
                    "metrics": {
                        name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()
                    },
                }
            )
        )
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
