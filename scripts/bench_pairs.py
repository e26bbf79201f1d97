#!/usr/bin/env python3
"""Alternating base/change pairs of the perfbench end-to-end metrics.

Runs ``perfbench/run.py --trace 0`` in two trees, one after the other, and
swaps which tree goes first in every other pair, so slow drift of a shared
machine falls on both sides alike.  Prints every run's metrics, then per
metric each side's median and quartiles and the number of pairs the change
wins (ties count for neither side).  Each pair line also gives both runs'
elapsed time and the CPU time of their processes (``getrusage`` of the
children, before and after the run), and the pairs holding a run whose
elapsed/CPU ratio is more than a quarter above the workload's median ratio
are named after the pairs: outside load that holds the CPUs slows such a
run without its own work growing, which tells it from a slow change.  The
same summary follows for each stage time the run reports on a
``stage <name> <seconds> s`` line (the workload's median per stage,
``stage.uniqueness_s`` and so on; lower is better), so a speed claim can
name its layer.  After a workload's pairs, three
alternating ``--trace 1`` runs in each tree print the median of every
per-layer metric of the traced pass (``simulator.simulate.calls``,
``simulator.simulate.busy_s``, ``simulator.simulate.events_per_s``,
``equilibrium.equilibrium_solve.self_s`` and the rest of
``perfbench/run.py``'s ``LAYER_STATS``, plus the stage and tracing
figures) of the two trees side by side.  ``--workload`` takes one or more
workloads, or ``all``; they run one after the other, each with its own
summary.  Then the script runs the command line in each tree on the
``congested`` scenario it generates there: ``equilibrium`` (with and
without the scheme), ``msa``, ``sweep``, ``optimize`` (both objectives),
``stability``, ``uniqueness``, ``gains`` and ``study`` (``OUTPUT_RUNS``),
under the same relative paths in both trees, so the manifests compare too.
It prints every output file whose bytes differ between the trees, or that
only one tree wrote.  Then follows the net line change (lines added minus
lines deleted, from ``git diff --numstat``) of ``src/`` and ``tests/`` in
the working tree against ``--base``, the number each change reports next to
its benchmark delta.  The last line is one JSON object with every
workload's runs, summaries, disturbed pairs, traced runs and their
medians, the differing output files and the net line change.

    python3 scripts/bench_pairs.py --base HEAD --workload all
    python3 scripts/bench_pairs.py --base HEAD~1 --workload citywide_equilibrium congested_policy
    python3 scripts/bench_pairs.py --base HEAD --workload congested_policy --scenario-seed 1
    python3 scripts/bench_pairs.py --base HEAD --workload congested_diagnostics --seed 1

Both trees sit side by side in one temporary directory, removed
afterwards, under paths of equal length, since where the files sit moves
``peak_rss_mb``.  The base tree is the committed files of ``--base``,
unpacked with ``git archive``: the files a commit is benchmarked on, with no
worktree left registered.  The change tree is a copy of the working tree
this script sits in, its tracked and untracked files that git does not
ignore (``git ls-files -co --exclude-standard``).  The script refuses to
run when the working tree has no change against ``--base``.  Every run uses
the seed ``--seed`` (0 by default) for the uniqueness samples, in each
``perfbench/run.py`` run and in the ``uniqueness`` and ``study`` outputs
(the only subcommands that sample), the generator seed ``--scenario-seed``
(0 by default) for the scenario of every ``perfbench/run.py`` run and of the
command-line outputs, and the run length ``run_seconds`` of BENCHMARK.json;
either seed other than 0 rechecks a claim on held-out samples or scenarios.
The workloads' reference values hold only for scenario seed 0, and
``perfbench/run.py`` checks them only there.  Each tree's
own ``perfbench/run.py`` measures that tree's ``src/``; this script only
starts it and reads its last output line.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("citywide_equilibrium", "congested_policy", "congested_diagnostics")

# traced runs per tree and workload: a layer's time from one traced pass
# moved by tens of percent between runs of the same tree on a shared machine
TRACED_RUNS = 3
# a pair is marked as disturbed by outside load when one of its runs took
# this many times the median elapsed/CPU ratio of the workload's runs
DISTURBED_RATIO = 1.25
NET_LINE_DIRS = ("src", "tests")
STAGE_LINE = re.compile(r"stage (\S+) (\S+) s")
SCENARIO = "scenario/scenario.json"
# the subcommands whose --seed draws the uniqueness samples
SAMPLED_OUTPUTS = ("uniqueness", "study")
# output directory -> the subcommand and its options, run on SCENARIO
OUTPUT_RUNS = {
    "equilibrium": ["equilibrium"],
    "equilibrium_no_tcs": ["equilibrium", "--no-tcs"],
    "msa": ["msa", "--price", "0.01"],
    "sweep": ["sweep", "--taus", "100:501:40"],
    "optimize_ttt": ["optimize", "--objective", "ttt"],
    "optimize_mixed": ["optimize", "--objective", "mixed"],
    "stability": ["stability", "--taus", "200,280"],
    "uniqueness": ["uniqueness", "--samples", "60"],
    "gains": ["gains"],
    "study": ["study"],
}


def unpack(rev: str, dest: Path) -> Path:
    """Committed files of ``rev`` under ``dest``; no worktree is registered."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter exists from Python 3.12 and the 3.10.12/3.11.4
        # backports; the archive is this repository's own files either way
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return dest


def copy_working_tree(dest: Path) -> Path:
    """The working tree's files that git does not ignore, copied under
    ``dest``; a tracked file deleted from the tree is left out."""
    names = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-co", "--exclude-standard", "-z"],
        check=True, capture_output=True, text=True,
    ).stdout.split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)
    return dest


def child_cpu_s() -> float:
    """User plus system CPU time of every waited-for child so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_once(tree: Path, workload: str, seconds: float, scenario_seed: int, seed: int,
             trace: int = 0) -> dict:
    """One run's metrics and stage times, with its elapsed time and the CPU
    time its process used (``elapsed_s`` and ``cpu_s``)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--scenario-seed", str(scenario_seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    cpu0, t0 = child_cpu_s(), time.perf_counter()
    out = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True)
    elapsed, cpu = time.perf_counter() - t0, child_cpu_s() - cpu0
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    stages = {f"stage.{m[1]}": float(m[2])
              for m in map(STAGE_LINE.fullmatch, lines[:-1]) if m}
    return {"correct": result["correct"], "failed": result["failed"], **values, **stages,
            "elapsed_s": elapsed, "cpu_s": cpu}


def wait_ratio(run: dict) -> float:
    """Elapsed over CPU time of one run: it rises when the run waits for a
    CPU that outside load holds."""
    return run["elapsed_s"] / run["cpu_s"] if run["cpu_s"] > 0.0 else math.inf


def disturbed_pairs(runs: dict) -> list[int]:
    """The pairs (numbered from 1) holding a run whose elapsed/CPU ratio is
    more than ``DISTURBED_RATIO`` times the median ratio of all the runs."""
    median = statistics.median(wait_ratio(r) for side in runs.values() for r in side)
    return [i + 1 for i, pair in enumerate(zip(*runs.values()))
            if any(wait_ratio(r) > DISTURBED_RATIO * median for r in pair)]


def traced_layers(trees: dict, workload: str, seconds: float, scenario_seed: int,
                  seed: int) -> dict:
    """``TRACED_RUNS`` ``--trace 1`` runs in each tree, alternating which
    tree goes first; prints the median of each per-layer metric of the
    base and the change side by side and returns every run and the
    medians."""
    runs = {side: [] for side in trees}
    for i in range(TRACED_RUNS):
        for side in (tuple(trees) if i % 2 == 0 else tuple(reversed(trees))):
            runs[side].append(run_once(trees[side], workload, seconds, scenario_seed, seed,
                                       trace=1))
    ok = all(r["correct"] for side in runs.values() for r in side)
    # a metric missing from some run of a side has no median on that side
    medians = {side: {m: statistics.median(r[m] for r in side_runs)
                      for m in side_runs[0] if m not in ("correct", "failed")
                      and all(m in r for r in side_runs)}
               for side, side_runs in runs.items()}
    base, change = medians["base"], medians["change"]
    print(f"{workload} traced passes, medians of {TRACED_RUNS} runs per tree"
          f"{'' if ok else ' INCORRECT'}:", flush=True)
    for m in [*base, *(k for k in change if k not in base)]:
        b, c = (f"{side[m]:.6g}" if m in side else "absent" for side in (base, change))
        print(f"  {m}: base {b} -> change {c}", flush=True)
    return {"runs": runs, "medians": medians}


def cli_outputs(tree: Path, work: Path, scenario_seed: int, seed: int) -> dict:
    """Bytes of every file the command line of ``tree`` writes under ``work``
    (generate with ``scenario_seed``, then OUTPUT_RUNS, the sampling ones
    with ``seed``), by path relative to ``work``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    runs = [["generate", "--preset", "congested", "--seed", str(scenario_seed), "-o",
             str(Path(SCENARIO).parent)]]
    runs += [[*args, *(["--seed", str(seed)] if args[0] in SAMPLED_OUTPUTS else []),
              "--scenario", SCENARIO, "-o", out] for out, args in OUTPUT_RUNS.items()]
    for args in runs:
        subprocess.run([sys.executable, "-m", "tcsmfd", *args], cwd=work, env=env,
                       check=True, capture_output=True)
    return {p.relative_to(work).as_posix(): p.read_bytes()
            for p in sorted(work.rglob("*")) if p.is_file()}


def output_diff(trees: dict, tmp: Path, scenario_seed: int, seed: int) -> list[str]:
    """Output files that differ between the two trees' command lines, or
    that only one of them wrote; prints each."""
    outputs = {}
    for side, tree in trees.items():
        work = tmp / f"outputs-{side}"
        work.mkdir()
        outputs[side] = cli_outputs(tree, work, scenario_seed, seed)
    base, change = outputs["base"], outputs["change"]
    differ = sorted(name for name in base.keys() | change.keys()
                    if base.get(name) != change.get(name))
    print(f"command-line outputs: {len(differ)} of {len(base.keys() | change.keys())} "
          f"files differ", flush=True)
    for name in differ:
        print(f"  differs: {name}", flush=True)
    return differ


def net_lines(rev: str) -> dict:
    """Lines added minus lines deleted under src/ and tests/ against ``rev``."""
    out = subprocess.run(
        ["git", "-C", str(ROOT), "diff", "--numstat", "--no-renames", rev, "--",
         *NET_LINE_DIRS],
        check=True, capture_output=True, text=True,
    ).stdout
    net = dict.fromkeys(NET_LINE_DIRS, 0)
    for line in out.splitlines():
        added, deleted, path = line.split("\t", 2)
        if added != "-":   # "-" marks a binary file
            net[path.split("/", 1)[0]] += int(added) - int(deleted)
    return net


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_pairs(trees: dict, workload: str, pairs: int, metrics: dict, seconds: float,
              scenario_seed: int, seed: int) -> dict:
    """Alternating pairs of one workload; prints each pair and the summary."""
    runs = {"base": [], "change": []}
    for i in range(pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(run_once(trees[side], workload, seconds, scenario_seed, seed))
        cells = "  ".join(
            f"{m} {runs['base'][-1][m]:.4g} -> {runs['change'][-1][m]:.4g}"
            for m in metrics
        )
        cells += "  " + "  ".join(
            f"{m} {runs['base'][-1][m]:.2f} -> {runs['change'][-1][m]:.2f}"
            for m in ("elapsed_s", "cpu_s"))
        ok = runs["base"][-1]["correct"] and runs["change"][-1]["correct"]
        print(f"{workload} pair {i + 1} ({order[0]} first){'' if ok else ' INCORRECT'}: "
              f"{cells}", flush=True)
    disturbed = disturbed_pairs(runs)
    print(f"{workload} pairs with a run whose elapsed/CPU ratio exceeds "
          f"{DISTURBED_RATIO:g} times the median: "
          f"{', '.join(map(str, disturbed)) or 'none'}", flush=True)

    # stages that every run of both sides reported, in the order of the first run
    stages = [k for k in runs["base"][0] if k.startswith("stage.")
              and all(k in r for side in runs.values() for r in side)]
    summary = {}
    for m, better in {**metrics, **dict.fromkeys(stages, "lower")}.items():
        b = [r[m] for r in runs["base"]]
        c = [r[m] for r in runs["change"]]
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (cb - cc) > 0 for cb, cc in zip(b, c))
        (b1, b2, b3), (c1, c2, c3) = quartiles(b), quartiles(c)
        summary[m] = {"better": better, "base_quartiles": [b1, b2, b3],
                      "change_quartiles": [c1, c2, c3], "change_wins": wins}
        print(f"{workload} {m} ({better} is better): base median {b2:.4g} [{b1:.4g}, {b3:.4g}], "
              f"change median {c2:.4g} [{c1:.4g}, {c3:.4g}], "
              f"change wins {wins} of {len(b)}", flush=True)
    return {"runs": runs, "summary": summary, "disturbed_pairs": disturbed}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, nargs="+", choices=WORKLOADS + ("all",),
                    help="one or more workloads, or all")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--base", required=True, help="git revision of the base tree")
    ap.add_argument("--scenario-seed", type=int, default=0,
                    help="generator seed of every run's scenario and of the "
                    "command-line outputs' scenario, for a held-out check")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed of the uniqueness samples of every run and of the "
                    "uniqueness and study outputs, for a held-out check")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    workloads = WORKLOADS if "all" in args.workload else tuple(dict.fromkeys(args.workload))
    diff = subprocess.run(["git", "-C", str(ROOT), "diff", "--quiet", args.base, "--"])
    if diff.returncode == 0:
        ap.error(f"the working tree has no change against {args.base}")
    if diff.returncode != 1:
        ap.error(f"git diff against {args.base} failed")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        # equal-length paths: "base" and "work" (the working tree's copy)
        trees = {"base": unpack(args.base, Path(tmp) / "base"),
                 "change": copy_working_tree(Path(tmp) / "work")}
        print(f"workloads {' '.join(workloads)}: base {args.base} against change {ROOT} "
              f"(copied to {trees['change']}), "
              f"{args.pairs} pairs each, --seconds {seconds:g} --seed {args.seed} "
              f"--scenario-seed {args.scenario_seed}", flush=True)
        results = {w: {**run_pairs(trees, w, args.pairs, metrics, seconds,
                                   args.scenario_seed, args.seed),
                       "traced": traced_layers(trees, w, seconds, args.scenario_seed,
                                               args.seed)}
                   for w in workloads}
        differ = output_diff(trees, Path(tmp), args.scenario_seed, args.seed)

    all_correct = all(r["correct"] for w in results.values()
                      for side in w["runs"].values() for r in side)
    all_correct &= all(r["correct"] for w in results.values()
                       for side in w["traced"]["runs"].values() for r in side)
    print(f"every run correct: {all_correct}")
    net = net_lines(args.base)
    print("net line change against " + args.base + ": "
          + ", ".join(f"{d}/ {n:+d}" for d, n in net.items()))
    print(json.dumps({"base": args.base, "scenario_seed": args.scenario_seed,
                      "seed": args.seed,
                      "runs": {w: res["runs"] for w, res in results.items()},
                      "summary": {w: res["summary"] for w, res in results.items()},
                      "disturbed_pairs": {w: res["disturbed_pairs"]
                                          for w, res in results.items()},
                      "traced": {w: res["traced"] for w, res in results.items()},
                      "output_diff": differ,
                      "net_lines": net}))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
