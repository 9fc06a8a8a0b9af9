"""Record the golden stdout digest of every call any seed's corpus can make.

    python3 bench/make_goldens.py

Run it only at a commit whose output is trusted: it executes every (stratum,
variant) call of every workload once, refuses to write if any call fails or
any oracle block disagrees, and rewrites ``bench/goldens.json``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from corpus import WORKLOADS
from run import BENCH, GOLDENS, Runner, digest, load_package, oracle_agrees


def main() -> int:
    package = load_package()
    goldens = {}
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as work:
        for workload in WORKLOADS.values():
            runner = Runner(workload, package, Path(work), {})
            calls = 0
            for call in workload.pool():
                calls += 1
                _, code, output = runner.execute(runner.argv(call))
                if code != 0 or not oracle_agrees(output):
                    print(f"{call.key}: exit {code!r}; goldens not written",
                          file=sys.stderr)
                    return 1
                goldens[call.key] = digest(output)
            print(f"{workload.name}: {calls} calls", flush=True)
    GOLDENS.write_text(json.dumps(goldens, indent=0, sort_keys=True) + "\n",
                       encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
