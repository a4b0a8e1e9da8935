"""Record the reference values that run.py compares each output with.

    python3 perfbench/record.py [workload ...]

For every seed slot, builds the workload and runs each operation that has a
reference key, then writes perfbench/reference/<workload>.json. Re-record only
when a change is meant to alter fixed-seed outputs, and say so with the
change.
"""
from __future__ import annotations

import json
import sys

import run


def record(name: str) -> None:
    import workloads
    slots = {}
    for slot in range(workloads.POOL):
        wl = workloads.WORKLOADS[name](slot)
        wl.build(None)
        slots[str(slot)] = {wl.ref_key(j): wl.values(j, wl.op(j, None))
                            for j in wl.reference_ops()}
        print(f"{name} slot {slot}", file=sys.stderr, flush=True)
    out = run.HERE / "reference" / f"{name}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": name, "pool": workloads.POOL, "slots": slots},
                              indent=1) + "\n")


def main(argv: list[str]) -> int:
    run.import_package()
    import workloads
    for name in argv or list(workloads.WORKLOADS):
        record(name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
