"""Repository benchmark: time the program end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload machine_uniform --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics, taken from a run in which the
layers' public entry points are wrapped by :mod:`tracer` (an untraced run
in the same invocation gives ``trace.overhead_frac``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; progress notes go to standard
error.  ``--size small`` runs every workload at reduced size (used by
``selftest.py``); pins exist for the full size only.

The program is imported from ``src/`` of the checkout holding this file;
without it the benchmark exits with status 2 and prints no result.
Scratch files (result caches, span dumps) go to ``.bench_build/perfbench``
inside the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"

#: fewest fresh interpreters timed for ``import repro.cli`` in one run
IMPORT_SAMPLES = 9

IMPORT_CODE = (
    "import time; t = time.perf_counter(); import repro.cli; "
    "print(time.perf_counter() - t)"
)


def prepare() -> bool:
    """Point imports, worker processes and temporary files at this
    checkout; False (with a message) when it holds no program source."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {SRC / 'repro'}; run from "
            f"the root of a full checkout",
            file=sys.stderr,
        )
        return False
    tmp = SCRATCH / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["PYTHONPATH"] = str(SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def load_pins():
    with open(HERE / "pins.json") as f:
        return json.load(f)


def import_seconds() -> float:
    """Time of ``import repro.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    """Peak resident set of this process or any worker it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def iterate_for(wl, inp, budget: float, imports, tracer=None):
    """Repeat ``wl.iterate`` for about ``budget`` seconds (at least once)
    and return the iterations.  After each iteration one fresh
    interpreter's import time is appended to ``imports``, so those
    samples spread over the run like the iterations do.  With a tracer,
    each iteration's per-layer self times are attached to it."""
    out = []
    durations = []
    start = perf_counter()
    while True:
        gc.collect()
        t0 = perf_counter()
        if tracer is not None:
            self_before = tracer.snapshot()
            calls_before = dict(tracer.calls)
        it = wl.iterate(inp)
        if tracer is not None:
            self_s = {
                k: v - self_before.get(k, 0.0) for k, v in tracer.self_s.items()
            }
            calls = {
                k: v - calls_before.get(k, 0) for k, v in tracer.calls.items()
            }
            it.layers.update(wl.traced_layers(it, self_s, calls))
        out.append(it)
        imports.append(import_seconds())
        durations.append(perf_counter() - t0)
        # stop where the measured span comes closest to the budget
        if perf_counter() - start + statistics.median(durations) / 2 > budget:
            return out


def check(iterations, ref, pin):
    """(attempted, failed, problems) over every iteration's output;
    ``problems`` maps each failed check to the number of iterations
    that failed it."""
    attempted = failed = 0
    problems = Counter()
    if ref is not None and pin is not None and ref != pin:
        problems[f"reference run {ref[:12]} differs from pin {pin[:12]}"] += 1
    first = iterations[0].digest
    for it in iterations:
        attempted += it.ops
        bad = it.failed
        problems.update(it.problems)
        mismatch = []
        if ref is not None and it.digest != ref:
            mismatch.append("reference")
        if pin is not None and it.digest != pin:
            mismatch.append("pin")
        if it.digest != first:
            mismatch.append("the first iteration")
        if mismatch:
            problems[
                f"output {it.digest[:12]} differs from " + ", ".join(mismatch)
            ] += 1
            bad = it.ops
        failed += min(bad, it.ops)
    return attempted, failed, problems


def median_of(iterations, key):
    return statistics.median(key(it) for it in iterations)


def mean_wall(iterations) -> float:
    """Program seconds per iteration over the whole run.  The host's
    speed drifts between slow and fast periods; a mean weighs each
    period by how long it lasted, where a median jumps between them."""
    return statistics.fmean(it.wall_s for it in iterations)


def run(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
        pins=None):
    """Measure one workload; returns the result object to print.
    ``pins`` maps workload -> seed -> digest; by default the pinned
    full-size digests, and none at the reduced size."""
    from tracer import Tracer
    from workloads import make_workload

    spec = load_spec()
    if pins is None:
        pins = load_pins() if size == "full" else {}
    wl = make_workload(name, size, str(SCRATCH))
    inp = wl.inputs(seed)

    imports = []
    if trace:
        plain = iterate_for(wl, inp, seconds / 2, imports)
        tracer = Tracer()
        tracer.install(wl.trace_targets())
        try:
            traced = iterate_for(wl, inp, seconds / 2, imports, tracer)
        finally:
            tracer.uninstall()
        spans_path = SCRATCH / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(str(spans_path))
        log(f"{len(tracer.spans)} spans written to {spans_path}")
    else:
        plain = iterate_for(wl, inp, seconds, imports)
        traced = []
    rss = peak_rss_mb()
    everything = plain + traced

    ref = wl.reference(inp)
    pin = pins.get(name, {}).get(str(seed))
    attempted, failed, problems = check(everything, ref, pin)
    while len(imports) < IMPORT_SAMPLES:
        imports.append(import_seconds())
    import_s = statistics.median(imports)

    log(
        f"{name} seed={seed}: {len(plain)} untraced + {len(traced)} traced "
        f"iteration(s), walls "
        + ", ".join(f"{it.wall_s:.3f}" for it in everything)
        + f"; pin {'checked' if pin else 'absent'}"
    )
    for key, value in sorted(everything[-1].notes.items()):
        log(f"{key}: {value}")
    for p, n in problems.items():
        log(f"FAILED CHECK: {p} ({n}x)")

    if trace:
        values = {"cli.import_s": import_s}
        for step in everything[0].setup:
            values[step] = median_of(everything, lambda it: it.setup[step])
        for key in traced[0].layers:
            values[key] = median_of(traced, lambda it: it.layers[key])
        values["trace.overhead_frac"] = mean_wall(traced) / mean_wall(plain) - 1.0
        wanted = spec["per_layer"]
    else:
        wall = mean_wall(plain)
        values = {
            "wall_s": wall,
            "setup_s": import_s
            + median_of(plain, lambda it: sum(it.setup.values())),
            "ops_per_s": statistics.fmean(it.work for it in plain) / wall,
            "peak_rss_mb": rss,
        }
        wanted = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    args = parser.parse_args(argv)
    if not prepare():
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {WORKLOADS}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
