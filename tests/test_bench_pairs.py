"""scripts/bench_pairs.py: its command line and the seeds it passes on."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record_commands(monkeypatch, module, stdout=""):
    """Route the script's subprocess.run through a recorder of each command."""
    commands = []

    def run(cmd, **kwargs):
        commands.append(cmd)
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(module.subprocess, "run", run)
    return commands


def test_parser_takes_a_scenario_seed(bench_pairs):
    parser = bench_pairs.build_parser()
    base = ["--base", "HEAD", "--workload", "all"]
    assert parser.parse_args(base).scenario_seed == 0
    assert parser.parse_args(base + ["--scenario-seed", "3"]).scenario_seed == 3
    with pytest.raises(SystemExit):
        parser.parse_args(base + ["--scenario-seed", "one"])


def test_parser_takes_a_seed(bench_pairs):
    parser = bench_pairs.build_parser()
    base = ["--base", "HEAD", "--workload", "all"]
    assert parser.parse_args(base).seed == 0
    assert parser.parse_args(base + ["--seed", "3"]).seed == 3
    with pytest.raises(SystemExit):
        parser.parse_args(base + ["--seed", "one"])


def test_runs_pass_the_scenario_seed(bench_pairs, monkeypatch, tmp_path):
    last = json.dumps({"correct": True, "failed": 0, "metrics": {}})
    commands = record_commands(monkeypatch, bench_pairs, stdout=last + "\n")
    bench_pairs.run_once(tmp_path, "congested_policy", 1.0, 7, 4, trace=1)
    cmd = commands[-1]
    assert cmd[1] == "perfbench/run.py"
    assert cmd[cmd.index("--scenario-seed") + 1] == "7"
    assert cmd[cmd.index("--seed") + 1] == "4"


def test_command_line_outputs_use_the_scenario_seed(bench_pairs, monkeypatch, tmp_path):
    commands = record_commands(monkeypatch, bench_pairs)
    assert bench_pairs.cli_outputs(tmp_path, tmp_path, 5, 2) == {}
    assert len(commands) == 1 + len(bench_pairs.OUTPUT_RUNS)
    subcommands = [cmd[cmd.index("tcsmfd") + 1:] for cmd in commands]
    generate, *outputs = subcommands
    assert generate[0] == "generate" and generate[generate.index("--seed") + 1] == "5"
    # the sampling subcommands draw with --seed; the others take no seed
    seeds = {args[0]: args[args.index("--seed") + 1] for args in outputs if "--seed" in args}
    assert seeds == {"uniqueness": "2", "study": "2"}
