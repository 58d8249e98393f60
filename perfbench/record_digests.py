"""Record the artifact digests the benchmark checks, from this checkout's cvsim.

    python3 perfbench/record_digests.py

Runs one operation of every workload at the default seed, checks its
invariants and paper figures against the new digests, and writes
``perfbench/digests.json``. Record only from a commit whose outputs are known
to be right: the digests then pin every behavioural artifact byte.
"""

from __future__ import annotations

import json
import sys

from run import HERE, ROOT, bootstrap


def main() -> int:
    bootstrap()
    import workloads

    digests = {}
    for name in workloads.WORKLOADS:
        workload = workloads.make_workload(name, ROOT, workloads.DEFAULT_SEED, {})
        workload.prepare()
        op = workload.operate()
        workload.expected = digests[name] = workload.digests(op)
        errors = workload.check(op)
        if errors:
            print("\n".join(errors), file=sys.stderr)
            return 1
    path = HERE / "digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
