"""Record the sha256 digests that the members and export checks compare against.

Run from the repository root, on the commit whose outputs are the
reference:

    python3 benchmarks/record_digests.py

The CLI promises byte-identical outputs for identical inputs, so the
digests should only ever change together with a deliberate change to an
output format.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

from shiftcrit import cli  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    digests = {}
    os.makedirs(".bench_out", exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".bench_out") as tmp:
        for smoke in (False, True):
            for workload in ("members", "export"):
                for cmd in workloads.build(workload, 0, smoke, {}):
                    path = os.path.join(tmp, cmd.out)
                    argv = [path if a == "{out}" else a for a in cmd.argv]
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cli.main(argv)
                    if code != 0:
                        print(f"{argv} exited with {code}", file=sys.stderr)
                        return 1
                    with open(path, "rb") as fh:
                        digests[cmd.digest] = hashlib.sha256(fh.read()).hexdigest()
    with open(workloads.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(digests, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
