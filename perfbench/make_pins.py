"""Pin each full-size workload's output digest per seed.

    python3 perfbench/make_pins.py --seeds 0-31

For every (workload, seed) this runs one iteration and the workload's
untimed reference, requires both to pass their checks and agree, and
stores the digest in ``pins.json`` (other seeds' entries are kept).
Rerun it only when a change is *meant* to alter simulated results, and
say so.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True)
    args = parser.parse_args()
    if not run.prepare():
        return 2
    from workloads import WORKLOADS, make_workload

    pins = run.load_pins()
    for name in WORKLOADS:
        wl = make_workload(name, "full", str(run.SCRATCH))
        for seed in parse_seeds(args.seeds):
            inp = wl.inputs(seed)
            it = wl.iterate(inp)
            ref = wl.reference(inp)
            if it.failed or it.problems or (ref is not None and ref != it.digest):
                print(f"{name} seed {seed}: checks failed {it.problems}", file=sys.stderr)
                return 1
            pins.setdefault(name, {})[str(seed)] = it.digest
            print(f"{name} seed {seed}: {it.digest}", flush=True)
    with open(run.HERE / "pins.json", "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
