"""CLI subcommands: outputs, manifests, reproducibility, error paths."""

import json
import os
import runpy
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tcsmfd import (
    TcsParams,
    equilibrium,
    load_scenario,
    optimize_charge,
    save_scenario,
    sweep_charges,
)
from tcsmfd.cli import (
    _build_parser,
    dichotomy_table,
    main,
    parse_taus,
    stability_runs,
    stability_table,
    sweep_tables,
    write_csv,
)
from tcsmfd.simulator import HorizonError

from conftest import make_scenario


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    """A small generated scenario shared by the command tests."""
    out = tmp_path_factory.mktemp("gen")
    rc = main([
        "generate", "--preset", "small", "--n-groups", "6",
        "--total-travelers", "900", "--seed", "3", "-o", str(out),
    ])
    assert rc == 0
    return out / "scenario.json"


def read_json(path):
    return json.loads(path.read_text())


class TestParseTaus:
    def test_range_form(self):
        assert parse_taus("100:200:50") == [100.0, 150.0]

    def test_comma_form(self):
        assert parse_taus("100,150.5") == [100.0, 150.5]

    def test_single(self):
        assert parse_taus("240") == [240.0]

    def test_bad_range(self):
        with pytest.raises(ValueError):
            parse_taus("100:200")

    @pytest.mark.parametrize("spec", ["100:500:0", "500:100:20", "100:500:-20", "",
                                      ",", "100:inf:20", "100:200:nan", "100,inf", "nan"])
    def test_degenerate_grid(self, spec):
        with pytest.raises(ValueError):
            parse_taus(spec)


class TestGenerate:
    def test_outputs(self, scenario_file):
        assert scenario_file.exists()
        man = read_json(scenario_file.parent / "manifest.json")
        assert man["command"] == "generate"
        assert man["seed"] == 3
        assert man["options"]["n_groups"] == 6
        data = read_json(scenario_file)
        assert len(data["groups"]) == 6

    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        rc = main(["generate", "--preset", "nope", "-o", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--n-groups", "--total-travelers"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_override_exits_2(self, tmp_path, capsys, flag, value):
        # a zero override is an override, not a fall-back to the preset
        rc = main(["generate", "--preset", "small", flag, value, "-o", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "scenario.json").exists()


class TestEquilibrium:
    def test_run_and_payload(self, scenario_file, tmp_path):
        rc = main([
            "equilibrium", "--scenario", str(scenario_file), "-o", str(tmp_path),
        ])
        assert rc == 0
        eq = read_json(tmp_path / "equilibrium.json")
        assert eq["converged"]
        assert len(eq["x"]) == 6
        assert eq["p"] >= 0.0
        assert eq["iterations"] == len(eq["j_trace"])
        # one QP per outer iteration that took a step: all but the last
        assert len(eq["qp_iterations"]) == len(eq["cg_iterations"]) == eq["iterations"] - 1
        assert "ttt_h" in eq and "emission_t" in eq
        man = read_json(tmp_path / "manifest.json")
        assert man["params"]["tau"] == 200.0
        assert man["inputs"]["scenario_sha256"]

    def test_no_tcs_price_zero(self, scenario_file, tmp_path):
        rc = main([
            "equilibrium", "--scenario", str(scenario_file), "-o", str(tmp_path),
            "--no-tcs",
        ])
        assert rc == 0
        eq = read_json(tmp_path / "equilibrium.json")
        assert eq["p"] == 0.0
        assert eq["tcs"] is False

    def test_reruns_byte_identical(self, scenario_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = main([
                "equilibrium", "--scenario", str(scenario_file), "-o", str(out),
                "--tau", "220", "--eps", "const:0.25",
            ])
            assert rc == 0
        for name in ("equilibrium.json", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_param_overrides_recorded(self, scenario_file, tmp_path):
        rc = main([
            "equilibrium", "--scenario", str(scenario_file), "-o", str(tmp_path),
            "--tau", "250", "--alpha-eur-per-h", "14.4", "--eps", "inv",
        ])
        assert rc == 0
        man = read_json(tmp_path / "manifest.json")
        assert man["params"]["tau"] == 250.0
        assert man["params"]["alpha"] == pytest.approx(14.4 / 3600.0)
        assert man["params"]["eps_schedule"] == "inverse"

    def test_failure_counts_in_payload(self, tmp_path):
        # two groups entering at the same instant tie at every iterate
        path = tmp_path / "tie.json"
        save_scenario(
            make_scenario([(20.0, 0.0, 500.0, 200.0), (15.0, 0.0, 600.0, 250.0)]),
            path,
        )
        rc = main(["equilibrium", "--scenario", str(path), "-o", str(tmp_path)])
        assert rc == 0
        eq = read_json(tmp_path / "equilibrium.json")
        assert eq["qp_unconverged"] == 0
        # one gradient per outer iteration, except the one that converged
        assert eq["near_ties"] == eq["iterations"] - int(eq["converged"]) >= 1

    def test_invalid_params_exit_2(self, scenario_file, tmp_path, capsys):
        rc = main([
            "equilibrium", "--scenario", str(scenario_file), "-o", str(tmp_path),
            "--tau", "50",   # below the default allowance
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_scenario_exits_2(self, tmp_path, capsys):
        rc = main([
            "equilibrium", "--scenario", str(tmp_path / "nope.json"),
            "-o", str(tmp_path),
        ])
        assert rc == 2
        capsys.readouterr()

    def test_horizon_overrun_exits_2(self, scenario_file, tmp_path, capsys, monkeypatch):
        def stuck(scenario, x):
            raise HorizonError("event time 1e9s exceeds sanity horizon 5e4s")

        monkeypatch.setattr(equilibrium, "simulate", stuck)
        rc = main(["equilibrium", "--scenario", str(scenario_file), "-o", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: event time 1e9s exceeds sanity horizon")
        assert "Traceback" not in err


class TestMsa:
    def test_run(self, scenario_file, tmp_path):
        rc = main([
            "msa", "--scenario", str(scenario_file), "-o", str(tmp_path),
            "--price", "0.004", "--iters", "30",
        ])
        assert rc == 0
        msa = read_json(tmp_path / "msa.json")
        assert msa["iterations"] == 30
        assert isinstance(msa["cap_violated"], bool)
        assert len(msa["residual_trace"]) == 30


class TestSweep:
    def test_outputs(self, scenario_file, tmp_path):
        rc = main([
            "sweep", "--scenario", str(scenario_file), "-o", str(tmp_path),
            "--taus", "180,260",
        ])
        assert rc == 0
        for name in ("sweep.csv", "ttt_vs_tau.csv", "emission_vs_tau.csv",
                     "pareto_ttt_vs_emission.csv", "manifest.json"):
            assert (tmp_path / name).exists()
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert lines[0].startswith("tau_credits,price_eur_per_credit")
        assert lines[0].endswith(",iterations,qp_unconverged,near_ties")
        assert len(lines) == 3
        for line in lines[1:]:
            assert [int(c) for c in line.split(",")[-2:]] == [0, 0]
        man = read_json(tmp_path / "manifest.json")
        assert man["options"] == {"taus": [180.0, 260.0]}

    def test_workers_only_on_sweep(self, scenario_file, tmp_path, capsys):
        # no subcommand takes --workers any more, sweep included
        for command in ("equilibrium", "sweep"):
            with pytest.raises(SystemExit) as exc:
                main([
                    command, "--scenario", str(scenario_file), "-o", str(tmp_path),
                    "--taus", "180", "--workers", "2",
                ])
            assert exc.value.code == 2
            assert "--workers" in capsys.readouterr().err

    def test_bad_taus_exit_2(self, scenario_file, tmp_path, capsys):
        rc = main([
            "sweep", "--scenario", str(scenario_file), "-o", str(tmp_path),
            "--taus", "50,260",   # below kappa
        ])
        assert rc == 2
        capsys.readouterr()

    def test_allowance_above_the_default_charge(self, scenario_file, tmp_path):
        rc = main([
            "sweep", "--scenario", str(scenario_file), "-o", str(tmp_path / "cli"),
            "--kappa", "250", "--taus", "300,400",
        ])
        assert rc == 0
        rows = sweep_charges(load_scenario(scenario_file),
                             TcsParams(kappa=250.0, tau=300.0), [300.0, 400.0])
        write_csv(tmp_path / "lib.csv", sweep_tables(rows)["sweep.csv"])
        assert (tmp_path / "cli" / "sweep.csv").read_bytes() == \
            (tmp_path / "lib.csv").read_bytes()

    @pytest.mark.parametrize("spec", ["100:500:0", "500:100:20", "100:500:-20", "", "nan"])
    def test_degenerate_taus_exit_2(self, scenario_file, tmp_path, capsys, spec):
        rc = main([
            "sweep", "--scenario", str(scenario_file), "-o", str(tmp_path),
            "--taus", spec,
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()


class TestOptimize:
    def test_run(self, scenario_file, tmp_path):
        rc = main([
            "optimize", "--scenario", str(scenario_file), "-o", str(tmp_path),
            "--objective", "ttt", "--lo", "100", "--hi", "132",
        ])
        assert rc == 0
        res = read_json(tmp_path / "optimize.json")
        assert 100 <= res["tau_star"] <= 132
        assert res["n_solves"] <= 6   # ceil(log2(32)) + 1
        trace = (tmp_path / "dichotomy_trace.csv").read_text().strip().splitlines()
        assert trace[0].startswith("tau_credits,lo,hi")
        assert trace[0].endswith(",converged,iterations,qp_unconverged,near_ties")
        assert len(trace) >= 2
        for line in trace[1:]:
            iterations, *failures = (int(c) for c in line.split(",")[-3:])
            assert iterations >= 1
            assert failures == [0, 0]

    def test_allowance_above_the_default_charge(self, scenario_file, tmp_path):
        rc = main([
            "optimize", "--scenario", str(scenario_file), "-o", str(tmp_path / "cli"),
            "--kappa", "250", "--lo", "300", "--hi", "302",
        ])
        assert rc == 0
        res = optimize_charge(load_scenario(scenario_file),
                              TcsParams(kappa=250.0, tau=300.0), lo=300, hi=302)
        write_csv(tmp_path / "lib.csv", dichotomy_table(res))
        assert (tmp_path / "cli" / "dichotomy_trace.csv").read_bytes() == \
            (tmp_path / "lib.csv").read_bytes()


class TestUniqueness:
    def test_run(self, scenario_file, tmp_path):
        rc = main([
            "uniqueness", "--scenario", str(scenario_file), "-o", str(tmp_path),
            "--samples", "12",
        ])
        assert rc == 0
        rep = read_json(tmp_path / "uniqueness.json")
        assert rep["n_samples"] == 12
        assert rep["n_pairs"] == 66
        assert (tmp_path / "dot_histogram.csv").exists()


class TestStability:
    def test_run(self, scenario_file, tmp_path):
        rc = main([
            "stability", "--scenario", str(scenario_file), "-o", str(tmp_path),
            "--taus", "200,240",
        ])
        assert rc == 0
        lines = (tmp_path / "stability.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0] == ("tau_credits,price_eur_per_credit,spectral_abscissa,"
                            "stable,eig_converged,equilibrium_converged,iterations,"
                            "qp_unconverged,near_ties")

    def test_allowance_above_the_default_charge(self, scenario_file, tmp_path):
        rc = main([
            "stability", "--scenario", str(scenario_file), "-o", str(tmp_path / "cli"),
            "--kappa", "250", "--taus", "300,400",
        ])
        assert rc == 0
        runs = stability_runs(load_scenario(scenario_file),
                              TcsParams(kappa=250.0, tau=300.0), [300.0, 400.0])
        write_csv(tmp_path / "lib.csv", stability_table(runs))
        assert (tmp_path / "cli" / "stability.csv").read_bytes() == \
            (tmp_path / "lib.csv").read_bytes()


class TestGains:
    def test_run(self, scenario_file, tmp_path):
        rc = main([
            "gains", "--scenario", str(scenario_file), "-o", str(tmp_path),
        ])
        assert rc == 0
        summary = read_json(tmp_path / "gains_summary.json")
        assert 0.0 <= summary["winners_fraction"] <= 1.0
        lines = (tmp_path / "gains.csv").read_text().strip().splitlines()
        assert len(lines) == 7   # header + 6 groups


@pytest.mark.parametrize("argv", [
    ["sweep", "--taus", "300,100,200,250,150"],
    ["optimize", "--objective", "mixed", "--lo", "100", "--hi", "300"],
    ["stability", "--taus", "300,200,250,150"],
], ids=lambda argv: argv[0])
def test_warm_started_reruns_byte_identical(scenario_file, tmp_path, argv):
    """Each solve starts from the charges solved before it; a rerun repeats
    every start, so every data file and the manifest repeat byte for byte."""
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(argv + ["--scenario", str(scenario_file), "-o", str(out)]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert "manifest.json" in names and len(names) > 1
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


# every parameter flag with a value that differs from its default
PERTURBED = {
    "--tau": "250", "--kappa": "120", "--alpha-eur-per-h": "14.4", "--theta": "0.5",
    "--eta": "2", "--j-goal": "1e-30", "--max-iters": "2", "--eps": "const:0.25",
    "--p0": "0.05", "--gamma-emission": "80", "--p-carbon": "40",
    "--cap-constraint": "printed", "--seed": "4",
}
SOLVER_FLAGS = ["--kappa", "--alpha-eur-per-h", "--theta", "--eta", "--j-goal",
                "--max-iters", "--eps", "--p0", "--cap-constraint"]
# the flags each scenario subcommand reads, and so accepts
ACCEPTS = {
    "equilibrium": ["--tau"] + SOLVER_FLAGS,
    "stability": ["--tau"] + SOLVER_FLAGS,
    "gains": ["--tau"] + SOLVER_FLAGS,
    "sweep": SOLVER_FLAGS,
    "optimize": SOLVER_FLAGS + ["--gamma-emission", "--p-carbon"],
    "msa": ["--tau", "--kappa", "--alpha-eur-per-h", "--theta", "--cap-constraint"],
    "uniqueness": ["--seed"],
}
# short runs that every perturbed value above keeps valid
BASE_ARGS = {
    "equilibrium": [], "stability": [], "gains": [],
    "sweep": ["--taus", "180,260"],
    "optimize": ["--lo", "130", "--hi", "146"],
    "msa": ["--price", "0.004", "--iters", "20"],
    "uniqueness": ["--samples", "12"],
}


def outputs_of(out):
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}


@pytest.fixture(scope="module")
def base_run(scenario_file, tmp_path_factory):
    """Output directory of each subcommand's run at the default parameters."""
    runs = {}

    def run(command):
        if command not in runs:
            out = tmp_path_factory.mktemp(command)
            rc = main([command, "--scenario", str(scenario_file), "-o", str(out),
                       *BASE_ARGS[command]])
            assert rc == 0
            runs[command] = out
        return runs[command]

    return run


class TestFlagTable:
    @pytest.mark.parametrize("command", list(ACCEPTS))
    def test_manifest_records_what_is_read(self, base_run, command):
        man = read_json(base_run(command) / "manifest.json")
        n_params = len([f for f in ACCEPTS[command] if f != "--seed"])
        assert len(man.get("params", {})) == n_params
        assert ("seed" in man) == ("--seed" in ACCEPTS[command])

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command, flags in ACCEPTS.items() for flag in flags
    ])
    def test_accepted_flag_reaches_an_output(self, scenario_file, base_run, tmp_path,
                                             command, flag):
        rc = main([command, "--scenario", str(scenario_file), "-o", str(tmp_path),
                   *BASE_ARGS[command], flag, PERTURBED[flag]])
        assert rc == 0
        base = outputs_of(base_run(command))
        assert outputs_of(tmp_path).keys() == base.keys()
        assert outputs_of(tmp_path) != base

    @pytest.mark.parametrize("command,flag,value", [
        (command, flag, PERTURBED[flag]) for command in ACCEPTS for flag in PERTURBED
        if flag not in ACCEPTS[command]
    ] + [
        ("optimize", "--tau", "999"), ("uniqueness", "--theta", "-3"),
        ("msa", "--max-iters", "0"), ("equilibrium", "--seed", "1"),
    ])
    def test_unread_flag_is_rejected(self, scenario_file, tmp_path, capsys,
                                     command, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([command, "--scenario", str(scenario_file), "-o", str(tmp_path),
                  *BASE_ARGS[command], flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


def test_readme_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```")[1::2]
    lines = [line.strip() for block in blocks if block.startswith("sh\n")
             for line in block.replace("\\\n", " ").splitlines()
             if line.strip().startswith("tcsmfd ")]
    assert len(lines) >= 9
    parser = _build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


class TestStudyScript:
    def test_tables_match_subcommands(self, tmp_path):
        """The study script and the subcommands render identical tables."""
        script = Path(__file__).resolve().parents[1] / "scripts" / "run_full_study.py"
        study = tmp_path / "study"
        rc = runpy.run_path(str(script))["main"]([
            "--preset", "small", "--samples", "20", "--taus", "100,200,300",
            "-o", str(study),
        ])
        assert rc == 0
        scenario = str(study / "scenario.json")
        tau_star = read_json(study / "summary.json")["optima"]["ttt"]["tau_star"]
        runs = {
            "sweep": ["sweep", "--taus", "100,200,300"],
            "ttt": ["optimize", "--objective", "ttt", "--lo", "100", "--hi", "300"],
            "mixed": ["optimize", "--objective", "mixed", "--lo", "100", "--hi", "300"],
            "gains": ["gains", "--tau", str(tau_star)],
            "uniqueness": ["uniqueness", "--samples", "20"],
            "stability": ["stability", "--taus", "100,200,300"],
        }
        for out, argv in runs.items():
            rc = main(argv + ["--scenario", scenario, "-o", str(tmp_path / out)])
            assert rc == 0
        shared = {
            "sweep.csv": "sweep/sweep.csv",
            "ttt_vs_tau.csv": "sweep/ttt_vs_tau.csv",
            "emission_vs_tau.csv": "sweep/emission_vs_tau.csv",
            "pareto_ttt_vs_emission.csv": "sweep/pareto_ttt_vs_emission.csv",
            "dichotomy_ttt.csv": "ttt/dichotomy_trace.csv",
            "dichotomy_mixed.csv": "mixed/dichotomy_trace.csv",
            "gains.csv": "gains/gains.csv",
            "dot_histogram.csv": "uniqueness/dot_histogram.csv",
            "stability.csv": "stability/stability.csv",
        }
        for name, cli_name in shared.items():
            assert (study / name).read_bytes() == (tmp_path / cli_name).read_bytes(), name


def test_console_script_installed():
    exe = shutil.which("tcsmfd")
    assert exe, "console script should be on PATH after editable install"
    out = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert out.returncode == 0
    assert "equilibrium" in out.stdout


def test_python_m_runs_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-m", "tcsmfd", "--help"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert "equilibrium" in out.stdout
