"""spheremv benchmark: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  Prints one info line and
then, as the last line, the JSON result {"correct", "attempted", "failed",
"metrics"}.  Exits 2 without a result when the package cannot be imported.
See README.md in this directory for the workloads and metrics.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

# BLAS threads are set through the standard variable before numpy loads.
# One thread: on the 2-core host the particle step is no faster with two
# and burns 70 % more CPU.  A value already in the environment is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("transition", "particles", "noise", "cli")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, one operation (harness self-test)"
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import spheremv
    except ImportError as exc:
        print(f"cannot import spheremv from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(spheremv.__file__).resolve().parent.parent != SRC.resolve():
        print(f"spheremv was imported from {spheremv.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    import_s = time.perf_counter() - T0
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    if args.trace:
        result, info = harness.run_traced(args.workload, args.seed, args.smoke, out_dir)
    else:
        result, info = harness.run_untraced(
            args.workload, args.seed, args.seconds, args.smoke, out_dir, T0, import_s
        )
    info["machine"] = harness.machine()
    print(json.dumps({"info": info}, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
