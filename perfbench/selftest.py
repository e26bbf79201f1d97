"""Self-test of the benchmark harness on the ``small`` preset.

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` parses and declares exactly the workloads and
metrics the harness emits, that every workload emits every metric with its
unit with tracing off and on, and that a wrong reference value is reported
as a failed operation.  Takes about half a minute; exits 1 on any failure.
"""

from __future__ import annotations

import json
import numbers
import sys

import run

CONTRACT_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


class Checks:
    def __init__(self):
        self.failures = []

    def __call__(self, ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            self.failures.append(what)


def check_benchmark_json(check, names):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(set(bench) == CONTRACT_KEYS, "BENCHMARK.json has exactly the contract keys")
    check(bench["command"] == ["python3", "perfbench/run.py"], "command runs perfbench/run.py")
    check([w["name"] for w in bench["workloads"]] == names,
          "BENCHMARK.json workloads are the harness's workloads")
    check({m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END,
          "end_to_end metrics and units match the harness")
    check({m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER,
          "per_layer metrics and units match the harness")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
          "setup_s is lower-better with the largest bound")
    check(all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"]), "bounds within (0, 0.25]")


def check_result(check, result, declared, what):
    metrics = result["metrics"]
    check({k: v["unit"] for k, v in metrics.items()} == declared,
          f"{what}: every declared metric emitted with its unit")
    check(all(isinstance(v["value"], numbers.Real) for v in metrics.values()),
          f"{what}: metric values are numbers")
    check(result["attempted"] >= 1, f"{what}: attempted >= 1")


def main() -> int:
    run.pin_threads()
    wl, _ = run.load()
    check = Checks()
    names = list(wl.WORKLOADS)
    check_benchmark_json(check, names)

    quiet = lambda line: None  # noqa: E731
    for name in names:
        for trace, declared in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            result = run.measure(name, seed=1, seconds=0, trace=trace, preset="small",
                                 probes=1, report=quiet)
            check_result(check, result, declared, f"{name} trace={int(trace)}")
            if name == "congested_diagnostics" and not trace:
                check(result["correct"] and result["failed"] == 0,
                      f"{name}: no failed operation on the small preset")

    lines = []
    result = run.measure("congested_diagnostics", seed=1, seconds=0, trace=False,
                         preset="small", references={"price_at_200": 1.0}, probes=1,
                         report=lines.append)
    check(not result["correct"] and result["failed"] >= 1
          and any(line.startswith("FAILED") and "reference" in line for line in lines),
          "a wrong reference value is a failed operation")

    print(f"{len(check.failures)} check(s) failed" if check.failures else "all checks passed")
    return 1 if check.failures else 0


if __name__ == "__main__":
    sys.exit(main())
