#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny-size run of every workload, untraced and
traced, checked against BENCHMARK.json.

Each run must exit 0, end its standard output with the result object
(exactly the keys correct, attempted, failed and metrics), report every
metric BENCHMARK.json names for that mode with the unit it gives and no
other, print each of them as a `metric <name> = <value> <unit>` line, and
print `error_rate 0`. End-to-end metrics must also be non-zero.

Run from anywhere:  python3 perfbench/selftest.py
"""

import json
import math
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(command, workload, trace):
    args = command + ["--workload", workload, "--seed", "7", "--seconds", "1",
                      "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    return proc.returncode, proc.stdout, proc.stderr


def check(spec, workload, trace):
    key = "per_layer" if trace else "end_to_end"
    code, out, err = run(spec["command"], workload, trace)
    where = f"{workload} --trace {trace}"
    problems = []
    if code != 0:
        return [f"{where}: exit code {code}\n{err[-2000:]}"]
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={result.get('correct')} attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}")
    if not re.search(r"error_rate 0 fraction", out):
        problems.append(f"{where}: error_rate is not printed as 0")
    wanted = {m["name"]: m["unit"] for m in spec[key]}
    got = result.get("metrics", {})
    for extra in sorted(set(got) - set(wanted)):
        problems.append(f"{where}: metric {extra} is not in BENCHMARK.json {key}")
    for name, unit in wanted.items():
        m = got.get(name)
        if m is None:
            problems.append(f"{where}: metric {name} missing")
            continue
        value = m.get("value")
        if m.get("unit") != unit or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: metric {name} = {m}, expected a finite value in {unit}")
        elif key == "end_to_end" and value == 0:
            problems.append(f"{where}: end-to-end metric {name} is 0")
        if not any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}") for line in lines):
            problems.append(f"{where}: no 'metric {name} = ... {unit}' line")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            found = check(spec, workload["name"], trace)
            print(f"{workload['name']} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
