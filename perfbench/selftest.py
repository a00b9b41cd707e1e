"""Self-tests of the benchmark itself (not of the program).

    python3 perfbench/selftest.py

Runs every workload at reduced size, untraced and traced, and checks:

* the last stdout line is the result object, with every metric of
  ``BENCHMARK.json`` under its name and unit, and all checks passing;
* the traced ``machine_uniform`` run stayed on the SoA kernel;
* a tampered pin is counted in ``failed`` instead of passing;
* ``BENCHMARK.json`` keeps the benchmark contract's limits, and
  ``layers.json`` maps every per-layer metric;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's own
  files, the benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

failures = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def check_contract(spec) -> None:
    expect(
        sorted(spec) == sorted(
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        ),
        "BENCHMARK.json has exactly the contract's keys",
    )
    expect(
        1 <= len(spec["paths"]) <= 16
        and all(PATH.match(p) and ".." not in p.split("/") for p in spec["paths"]),
        "paths are 1-16 relative directory names",
    )
    expect(
        len(spec["command"]) <= 32
        and all(len(c) <= 200 and not c.startswith("/") for c in spec["command"]),
        "command is a short list of relative strings",
    )
    expect(
        isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
        "run_seconds is a whole number from 1 to 60",
    )
    expect(2 <= len(spec["workloads"]) <= 8, "2-8 workloads")
    expect(
        all(
            sorted(w) == ["name", "why"] and len(w["why"]) <= 200 and "\n" not in w["why"]
            for w in spec["workloads"]
        ),
        "each workload has exactly a name and a one-line why",
    )
    e2e, per = spec["end_to_end"], spec["per_layer"]
    expect(1 <= len(e2e) <= 16 and 1 <= len(per) <= 128, "metric counts in range")
    expect(
        all(sorted(m) == ["better", "bound", "name", "unit"] and 0 < m["bound"] <= 0.25
            for m in e2e),
        "end-to-end metrics carry a bound of at most 0.25",
    )
    expect(all(sorted(m) == ["better", "name", "unit"] for m in per),
           "per-layer metrics carry no bound")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    expect(
        len(setup) == 1
        and setup[0]["unit"] == "s"
        and setup[0]["better"] == "lower"
        and setup[0]["bound"] == max(m["bound"] for m in e2e),
        "setup_s is lower-better seconds with the largest bound",
    )
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in e2e + per]
    expect(
        all(NAME.match(n) for n in names) and len(names) == len(set(names)),
        "names are well formed and unique",
    )
    expect(all(UNIT.match(m["unit"]) for m in e2e + per), "units are well formed")
    expect(all(m["better"] in ("lower", "higher") for m in e2e + per),
           "better is lower or higher")
    with open(run.HERE / "layers.json") as f:
        layers = json.load(f)
    expect(
        sorted(layers["per_layer"]) == sorted(m["name"] for m in per),
        "layers.json maps exactly the per-layer metrics",
    )
    expect(
        sorted(layers["workloads"]) == sorted(w["name"] for w in spec["workloads"]),
        "layers.json describes every workload",
    )


def run_cli(workload: str, trace: int, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "small"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def check_outputs(spec) -> None:
    for w in spec["workloads"]:
        name = w["name"]
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            out = run_cli(name, trace)
            label = f"{name} --trace {trace}"
            expect(out.returncode == 0, f"{label} exits 0")
            if out.returncode != 0:
                print(out.stderr[-2000:])
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            expect(
                sorted(result) == ["attempted", "correct", "failed", "metrics"],
                f"{label} prints the result object last",
            )
            passed = (
                result["correct"] is True
                and result["failed"] == 0
                and result["attempted"] >= 1
            )
            expect(passed, f"{label} passes every output check")
            if not passed:
                for line in out.stderr.splitlines():
                    if "FAILED CHECK" in line:
                        print("     " + line)
            metrics = result["metrics"]
            expect(
                list(metrics) == [m["name"] for m in wanted]
                and all(metrics[m["name"]]["unit"] == m["unit"] for m in wanted),
                f"{label} prints every metric with its unit",
            )
            if trace == 0:
                expect(
                    all(v["value"] > 0 for v in metrics.values()),
                    f"{label} end-to-end values are positive",
                )
            if trace == 1 and name == "machine_uniform":
                expect(
                    metrics["sim.soa.fallbacks"]["value"] == 0
                    and metrics["sim.soa.cycle_share"]["value"] > 0.9,
                    "traced machine_uniform stays on the SoA kernel",
                )


def check_tampered_pins(spec) -> None:
    if not run.prepare():
        expect(False, "program source importable")
        return
    for w in spec["workloads"]:
        name = w["name"]
        pins = {name: {"3": "0" * 64}}
        result = run.run(name, 3, 0.1, False, "small", pins=pins)
        expect(
            result["correct"] is False and result["failed"] == result["attempted"],
            f"{name}: a tampered pin fails every operation",
        )


def check_missing_source() -> None:
    bare = run.SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        out = run_cli("campaign", 0, cwd=bare)
        expect(
            out.returncode != 0 and not out.stdout.strip(),
            "without program source: non-zero exit and no result",
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = run.load_spec()
    check_contract(spec)
    check_missing_source()
    check_outputs(spec)
    check_tampered_pins(spec)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
