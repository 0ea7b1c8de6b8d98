"""Record the cli workload's reference outputs: python3 perfbench/record_cli_reference.py

Run from a checkout of the commit whose outputs become the reference; the
file written is perfbench/cli_reference.json.  The committed file was
recorded at the commit that introduced the benchmark.
"""

import itertools
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from spheremv import cli  # noqa: E402
from workloads import cli_calls, parse_cli_output  # noqa: E402


def main() -> int:
    reference = {}
    tmp = Path(tempfile.mkdtemp(prefix="cli-ref-", dir=HERE))
    try:
        out = tmp / "out.csv"
        for label, argv in cli_calls(itertools.count(1)):
            code = cli.main(argv + ["--out", str(out)])
            if code != 0:
                print(f"{label} exited with {code}", file=sys.stderr)
                return 1
            reference[label] = parse_cli_output(out.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    path = HERE / "cli_reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(reference)} references to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
