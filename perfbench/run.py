"""Layered benchmark of the tcsmfd equilibrium pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload congested_policy --seed 0 --seconds 10 --trace 0

A run repeats the workload until ``--seconds`` have been measured (at least
one pass) and reports medians.
``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
adds one traced pass and reports per-layer metrics plus the tracing
overhead.  Human-readable report lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The BLAS thread count is part of each workload's definition (it changes the
QP's iteration counts, not only its speed), so it is pinned here before
numpy is first imported.  The package is imported from ``src/`` next to this
directory and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREADS = 2
SETUP_PROBES = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_ops_frac": "frac"}
STAGES = ("equilibrium_s", "reference_s", "sweep_s", "optimize_s",
          "uniqueness_s", "msa_s", "stability_s")
# (span, statistic, unit); the statistics are computed in layer_metrics
LAYER_STATS = (
    ("qp.solve_qp", "calls", "count"),
    ("qp.solve_qp", "busy_s", "s"),
    ("qp.solve_qp", "iterations", "count"),
    ("qp.solve_qp", "converged_ratio", "ratio"),
    ("qp.solve_qp", "unconverged", "count"),
    ("equilibrium.build_qp", "busy_s", "s"),
    ("simulator.simulate", "calls", "count"),
    ("simulator.simulate", "busy_s", "s"),
    ("simulator.simulate", "events_per_s", "1/s"),
    ("gradients.travel_time_gradient", "calls", "count"),
    ("gradients.travel_time_gradient", "busy_s", "s"),
    ("gradients.travel_time_gradient", "bytes_computed", "bytes"),
    ("eig.eig_values", "calls", "count"),
    ("eig.eig_values", "busy_s", "s"),
    ("eig.eig_values", "converged_ratio", "ratio"),
    ("analysis.stability_check", "self_s", "s"),
    ("analysis.uniqueness_check", "self_s", "s"),
    ("equilibrium.equilibrium_solve", "calls", "count"),
    ("equilibrium.equilibrium_solve", "self_s", "s"),
    ("equilibrium.equilibrium_solve", "outer_iterations", "count"),
    ("equilibrium.equilibrium_solve", "converged_ratio", "ratio"),
    ("equilibrium.msa_solve", "self_s", "s"),
    ("objectives.sweep_charges", "self_s", "s"),
    ("objectives.optimize_charge", "self_s", "s"),
    ("objectives.optimize_charge", "n_solves", "count"),
    ("scenario.generate_synthetic", "busy_s", "s"),
)
TRACE_STATS = {
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.bookkeeping_s": "s",
    "trace.self_sum_s": "s",
    "trace.coverage_frac": "ratio",
}
PER_LAYER = {
    **{f"{span}.{stat}": unit for span, stat, unit in LAYER_STATS},
    **{f"stage.{stage}": "s" for stage in STAGES},
    **TRACE_STATS,
}


def pin_threads() -> dict:
    """Fix the BLAS/OpenMP thread count for this process and its children."""
    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return {"blas_threads": threads, "nproc": nproc}


def load():
    """Import the package from this checkout's ``src/``; call after
    ``pin_threads``.  Returns the benchmark's workloads and tracer modules."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import tcsmfd

    if not Path(tcsmfd.__file__).resolve().is_relative_to(src):
        raise ImportError(f"tcsmfd was imported from {tcsmfd.__file__}, not {src}")
    import tracer
    import workloads

    return workloads, tracer


def environment(pinned: dict) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        **pinned,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def set_up(wl, w, scenario_seed: int, preset: str | None, tracer=None):
    """Everything before the first timed pass: the scenario (generation
    traced when a tracer is given) and the warm-up.  Returns the scenario,
    the parameters and the scenario's hash."""
    with tracer or nullcontext():
        scenario, params = wl.generate(w, scenario_seed, preset)
    wl.warm_up(w, scenario, params)
    return scenario, params, wl.scenario_hash(scenario)


def probe_setup(workload: str, scenario_seed: int, preset: str | None) -> tuple[float, str]:
    """Set-up time of a fresh process: from spawn until it reports a ready
    workload.  Returns the time and the scenario hash the probe generated."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--scenario-seed", str(scenario_seed), "--probe-setup"]
    if preset:
        cmd += ["--preset", preset]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or not line.startswith("ready "):
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {line!r}")
    return elapsed, line.split()[1]


def layer_metrics(summary: dict) -> dict:
    out = {}
    for span, stat, unit in LAYER_STATS:
        row = summary.get(span, {})
        calls = row.get("calls", 0)
        if stat == "converged_ratio":
            value = row["converged"] / calls if calls else 0.0
        elif stat == "unconverged":
            value = calls - row.get("converged", 0)
        elif stat == "events_per_s":
            value = row["events"] / row["busy_s"] if calls else 0.0
        else:
            value = row.get(stat, 0)
        out[f"{span}.{stat}"] = {"value": value, "unit": unit}
    return out


def _median_stages(ledgers) -> dict:
    return {s: statistics.median(lg.stage_s.get(s, 0.0) for lg in ledgers) for s in STAGES}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scenario_seed: int = 0, preset: str | None = None,
            references: dict | None = None, probes: int = SETUP_PROBES,
            report=print) -> dict:
    """Run one benchmark measurement and return the result object.

    ``scenario_seed`` and ``preset`` replace the workload's scenario and
    ``references`` its reference values (by default those of
    ``workloads.REFERENCES``, which hold only for the default scenario)."""
    pinned = pin_threads()
    wl, tr = load()
    w = wl.WORKLOADS[workload]
    if references is None:
        default_scenario = preset is None and scenario_seed == 0
        references = wl.REFERENCES.get(workload, {}) if default_scenario else {}
    report(f"perfbench workload={workload} seed={seed} trace={int(trace)}")
    report(f"env {json.dumps(environment(pinned), sort_keys=True)}")

    probe = [probe_setup(workload, scenario_seed, preset) for _ in range(probes)]
    setup_s = statistics.median(t for t, _ in probe)
    report(f"setup_s {setup_s:.4f} s (median of {probes} fresh processes: "
           + ", ".join(f"{t:.4f}" for t, _ in probe) + ")")

    tracer = tr.Tracer() if trace else None
    t0 = time.perf_counter()
    scenario, params, digest = set_up(wl, w, scenario_seed, preset, tracer)
    report(f"scenario preset={preset or w.preset} generator seed={scenario_seed} "
           f"groups={scenario.n} "
           f"sha256={digest} set-up here {time.perf_counter() - t0:.4f} s")
    same_inputs = all(h == digest for _, h in probe)
    if not same_inputs:
        report("FAILED: set-up probes generated a different scenario from the same seed")

    ledgers, walls = [], []
    t_measure = time.perf_counter()
    while not walls or time.perf_counter() - t_measure < seconds:
        ledger, wall = wl.run_pass(w, scenario, params, seed, references)
        ledgers.append(ledger)
        walls.append(wall)
    report(f"{len(walls)} passes, wall_s " + ", ".join(f"{t:.4f}" for t in walls) + " s")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = statistics.median(walls)
    stages = _median_stages(ledgers)
    if trace:
        with tracer:
            ledger, traced_wall = wl.run_pass(w, scenario, params, seed, references)
        ledgers.append(ledger)
        report(f"traced pass wall_s {traced_wall:.4f} s")

    attempted = sum(len(lg.ops) for lg in ledgers)
    failed = sum(len(lg.failures) for lg in ledgers)
    for i, lg in enumerate(ledgers, 1):
        for label, reasons in lg.failures.items():
            report(f"FAILED pass {i} {label}: " + "; ".join(reasons))
    for stage in STAGES:
        if any(stage in lg.stage_s for lg in ledgers):
            report(f"stage {stage} {stages[stage]:.4f} s")
    report(f"failed_ops_frac {failed / attempted:.4f} ({failed} of {attempted})")

    if trace:
        summary = tracer.summary()
        # generate_synthetic is the only span recorded during set-up
        setup_span = summary.get("scenario.generate_synthetic", {})
        self_sum = tracer.root_s() - setup_span.get("busy_s", 0.0)
        for name, row in sorted(summary.items()):
            report(f"span {name} " + " ".join(f"{k}={v:.6g}" for k, v in sorted(row.items())))
        metrics = layer_metrics(summary)
        metrics.update({f"stage.{s}": {"value": v, "unit": "s"} for s, v in stages.items()})
        trace_values = {
            "trace.untraced_wall_s": wall_s,
            "trace.traced_wall_s": traced_wall,
            "trace.overhead_frac": traced_wall / wall_s - 1.0,
            "trace.bookkeeping_s": tracer.bookkeeping_s,
            "trace.self_sum_s": self_sum,
            "trace.coverage_frac": self_sum / traced_wall,
        }
        metrics.update({k: {"value": v, "unit": TRACE_STATS[k]}
                        for k, v in trace_values.items()})
        report(f"tracing overhead {trace_values['trace.overhead_frac']:+.2%} of the "
               f"untraced wall_s ({tracer.bookkeeping_s:.6f} s of it in the tracer "
               f"itself); layer self times cover {self_sum / traced_wall:.2%} of the "
               "traced pass")
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb,
            "ok_ops_frac": 1.0 - failed / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return {
        "correct": failed == 0 and same_inputs,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("citywide_equilibrium", "congested_policy",
                             "congested_diagnostics"))
    ap.add_argument("--seed", type=int, default=0, help="draws the uniqueness samples")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="repeat passes until this long has been measured (at least one)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scenario-seed", type=int, default=0,
                    help="generator seed of the scenario, for a held-out recheck; "
                    "the reference values hold only for 0")
    ap.add_argument("--preset", default=None,
                    help="replace the workload's preset (used by the self-test)")
    ap.add_argument("--probe-setup", action="store_true",
                    help="set up, print 'ready <scenario sha256>' and exit")
    args = ap.parse_args(argv)

    if args.probe_setup:
        pin_threads()
        wl, _ = load()
        _, _, digest = set_up(wl, wl.WORKLOADS[args.workload], args.scenario_seed,
                              args.preset)
        print("ready", digest, flush=True)
        return 0

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     scenario_seed=args.scenario_seed, preset=args.preset)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
