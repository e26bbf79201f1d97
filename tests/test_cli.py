"""CLI subcommands: outputs, manifests, reproducibility, error paths."""

import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tcsmfd.analysis
import tcsmfd.cli
import tcsmfd.equilibrium
import tcsmfd.objectives
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
    _csv_text,
    dichotomy_table,
    main,
    parse_taus,
    stability_runs,
    stability_table,
    sweep_tables,
)
from tcsmfd.simulator import HorizonError

from conftest import FALLBACK_TAU, TIED_GROUPS, hypercongested_scenario, make_scenario


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
    def test_run_and_payload(self, scenario_file, tmp_path, monkeypatch):
        rc = main([
            "equilibrium", "--scenario", str(scenario_file), "-o", str(tmp_path),
        ])
        assert rc == 0
        eq = read_json(tmp_path / "equilibrium.json")
        assert eq["converged"]
        assert len(eq["x"]) == 6
        assert eq["p"] >= 0.0
        assert eq["iterations"] == len(eq["j_trace"])
        # every outer iteration but the last took a step, each a
        # substitution step or a QP step, and the payload says which
        assert len(eq["qp_iterations"]) == len(eq["cg_iterations"])
        assert eq["substitution_steps"] + len(eq["qp_iterations"]) == eq["iterations"] - 1
        assert "ttt_h" in eq and "emission_t" in eq
        man = read_json(tmp_path / "manifest.json")
        assert man["params"]["tau"] == 200.0
        assert man["inputs"]["scenario_sha256"]
        # the secant steps are counted among the substitution steps: from
        # the free-flow start this solve converges after one plain step, so
        # it is rerun from the centre of the share box, x = 1/2 at tau = 200
        solve = tcsmfd.cli.equilibrium_solve
        monkeypatch.setattr(tcsmfd.cli, "equilibrium_solve",
                            lambda scenario, params, **kw: solve(
                                scenario, params, x_init=[0.5] * scenario.n, **kw))
        assert main(["equilibrium", "--scenario", str(scenario_file),
                     "-o", str(tmp_path / "centre")]) == 0
        eq = read_json(tmp_path / "centre" / "equilibrium.json")
        assert 1 <= eq["accelerated_steps"] < eq["substitution_steps"]

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
                "--tau", "220",
            ])
            assert rc == 0
        for name in ("equilibrium.json", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_param_overrides_recorded(self, scenario_file, tmp_path):
        rc = main([
            "equilibrium", "--scenario", str(scenario_file), "-o", str(tmp_path),
            "--tau", "250", "--alpha-eur-per-h", "14.4",
        ])
        assert rc == 0
        man = read_json(tmp_path / "manifest.json")
        assert man["params"]["tau"] == 250.0
        assert man["params"]["alpha"] == pytest.approx(14.4 / 3600.0)

    def test_failure_counts_in_payload(self, tmp_path):
        # two groups entering at the same instant tie at every iterate, and
        # are congested enough that the solve falls back to QP steps
        path = tmp_path / "tie.json"
        save_scenario(
            make_scenario(TIED_GROUPS),
            path,
        )
        # the counts are per QP step
        rc = main(["equilibrium", "--scenario", str(path), "-o", str(tmp_path),
                   "--no-tcs"])
        assert rc == 0
        eq = read_json(tmp_path / "equilibrium.json")
        assert eq["qp_unconverged"] == 0
        assert eq["substitution_steps"] >= 4
        # one gradient per QP step; the substitution steps take none
        assert eq["converged"]
        assert eq["near_ties"] == len(eq["qp_iterations"]) == (
            eq["iterations"] - 1 - eq["substitution_steps"]) >= 1

    def test_invalid_params_exit_2(self, scenario_file, tmp_path, capsys):
        rc = main([
            "equilibrium", "--scenario", str(scenario_file), "-o", str(tmp_path),
            "--tau", "50",   # below the default allowance
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_nan_price_exits_2(self, scenario_file, tmp_path, capsys):
        rc = main([
            "equilibrium", "--scenario", str(scenario_file), "-o", str(tmp_path),
            "--p0", "nan",
        ])
        assert rc == 2
        assert "p0 must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--theta", "--tau"])
    def test_infinite_parameter_exits_2(self, scenario_file, tmp_path, capsys, flag):
        # rejected before any solve (theta = inf would stall the
        # clearing-price search), with the field named
        rc = main([
            "equilibrium", "--scenario", str(scenario_file), "-o", str(tmp_path),
            flag, "inf",
        ])
        assert rc == 2
        assert f"{flag[2:]} must be finite" in capsys.readouterr().err

    def test_malformed_scenario_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"mfd": [1, 2], "groups": []}))
        rc = main(["equilibrium", "--scenario", str(path), "-o", str(tmp_path / "out")])
        assert rc == 2
        assert "error: mfd must be an object" in capsys.readouterr().err

    def test_non_finite_curve_exits_2(self, scenario_file, tmp_path, capsys):
        # a NaN breakpoint once loaded and failed later with "P must be finite"
        doc = read_json(scenario_file)
        doc["mfd"] = {"form": "piecewise_linear", "breakpoints_n_v": [[0, 10], [100, float("nan")]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc = main(["equilibrium", "--scenario", str(path), "-o", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "error: mfd 'breakpoints_n_v'[1] must be a finite number, got nan")

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

    def test_infinite_price_exits_2(self, scenario_file, tmp_path, capsys):
        rc = main([
            "msa", "--scenario", str(scenario_file), "-o", str(tmp_path), "--price", "inf",
        ])
        assert rc == 2
        assert "p_fixed must be finite" in capsys.readouterr().err


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
        assert (tmp_path / "cli" / "sweep.csv").read_bytes() == \
            _csv_text(sweep_tables(rows)["sweep.csv"]).encode()

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
        assert (tmp_path / "cli" / "dichotomy_trace.csv").read_bytes() == \
            _csv_text(dichotomy_table(res)).encode()


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
        assert (tmp_path / "cli" / "stability.csv").read_bytes() == \
            _csv_text(stability_table(runs)).encode()

    def test_checks_the_reports_without_simulating_again(self, tmp_path, monkeypatch):
        # the stability rows read each equilibrium report's own simulation:
        # the three solves' simulations, one per outer iteration, and none
        # more for the two binding charges' checks
        assert main(["generate", "--preset", "congested", "--seed", "0",
                     "-o", str(tmp_path / "scn")]) == 0
        calls = []
        for module in (tcsmfd.equilibrium, tcsmfd.analysis, tcsmfd.objectives):
            def counted(*args, _fn=module.simulate, **kwargs):
                calls.append(1)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, "simulate", counted)
        rc = main(["stability", "--scenario", str(tmp_path / "scn" / "scenario.json"),
                   "-o", str(tmp_path / "stab"), "--taus", "120,200,280"])
        assert rc == 0
        rows = (tmp_path / "stab" / "stability.csv").read_text().splitlines()[1:]
        assert sum(row.split(",")[2] != "" for row in rows) == 2
        assert len(calls) == sum(int(row.split(",")[6]) for row in rows)


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
    "--eta": "2", "--j-goal": "1e-30", "--max-iters": "2", "--p0": "0.05",
    "--gamma-emission": "80", "--p-carbon": "40",
    "--cap-constraint": "printed", "--seed": "4",
}
SOLVER_FLAGS = ["--kappa", "--alpha-eur-per-h", "--theta", "--eta", "--j-goal",
                "--max-iters", "--p0", "--cap-constraint"]
# the flags each scenario subcommand reads, and so accepts
ACCEPTS = {
    "equilibrium": ["--tau"] + SOLVER_FLAGS,
    "stability": ["--tau"] + SOLVER_FLAGS,
    "gains": ["--tau"] + SOLVER_FLAGS,
    "sweep": SOLVER_FLAGS,
    "optimize": SOLVER_FLAGS + ["--gamma-emission", "--p-carbon"],
    "msa": ["--tau", "--kappa", "--alpha-eur-per-h", "--theta", "--cap-constraint"],
    "uniqueness": ["--seed"],
    "study": SOLVER_FLAGS + ["--gamma-emission", "--p-carbon", "--seed"],
}
# short runs that every perturbed value above keeps valid
BASE_ARGS = {
    "equilibrium": [], "stability": [], "gains": [],
    "sweep": ["--taus", "180,260"],
    "optimize": ["--lo", "130", "--hi", "146"],
    "msa": ["--price", "0.004", "--iters", "20"],
    "uniqueness": ["--samples", "12"],
    "study": ["--taus", "130,146", "--samples", "12"],
}

# --eta and --p0 act on QP steps only, and every solve takes QP steps only
# once its damped substitution steps stop contracting; at BASE_ARGS's
# charges scenario_file's solves never get there.  So these flags are
# checked on inputs whose solves reach that fallback: --p0 on two
# hypercongested groups, whose first substitution step fails at every
# damping, so that the QP steps start from the first iterate and its price
# p0; --eta on the congested preset at generator seed 5 at charges near 160,
# where its binding solves fall back to QP steps (eta weights a QP step's
# market term, which a slack cap's zero price leaves inert)
SLACK_ARGS = {
    "equilibrium": ["--tau", str(FALLBACK_TAU)], "stability": ["--tau", str(FALLBACK_TAU)],
    "gains": ["--tau", str(FALLBACK_TAU)], "sweep": ["--taus", f"{FALLBACK_TAU},140"],
    "optimize": ["--lo", "130", "--hi", "146"],
    "study": ["--taus", f"{FALLBACK_TAU},140", "--samples", "12"],
}
SWITCH_ARGS = {
    "equilibrium": ["--tau", "160"], "stability": ["--tau", "160"],
    "gains": ["--tau", "160"], "sweep": ["--taus", "150,160"],
    "optimize": ["--lo", "150", "--hi", "166"],
    "study": ["--taus", "150,160", "--samples", "12"],
}


def outputs_of(out):
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}


@pytest.fixture(scope="module")
def congested_file(tmp_path_factory):
    """The congested preset at generator seed 5."""
    out = tmp_path_factory.mktemp("gen-congested")
    assert main(["generate", "--preset", "congested", "--seed", "5", "-o", str(out)]) == 0
    return out / "scenario.json"


@pytest.fixture(scope="module")
def hypercongested_file(tmp_path_factory):
    """Two hypercongested groups."""
    path = tmp_path_factory.mktemp("gen-hypercongested") / "scenario.json"
    save_scenario(hypercongested_scenario(), path)
    return path


@pytest.fixture(scope="module")
def base_run(scenario_file, tmp_path_factory):
    """Output directory of each subcommand's run at the default parameters,
    on scenario_file with BASE_ARGS unless given another input."""
    runs = {}

    def run(command, scenario=None, args=None):
        scenario = scenario or scenario_file
        args = BASE_ARGS[command] if args is None else args
        key = (command, str(scenario), tuple(args))
        if key not in runs:
            out = tmp_path_factory.mktemp(command)
            rc = main([command, "--scenario", str(scenario), "-o", str(out), *args])
            assert rc == 0
            runs[key] = out
        return runs[key]

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
    def test_accepted_flag_reaches_an_output(self, scenario_file, congested_file,
                                             hypercongested_file, base_run, tmp_path,
                                             command, flag):
        scenario, args = scenario_file, BASE_ARGS[command]
        if flag == "--eta":
            scenario, args = congested_file, SWITCH_ARGS[command]
        elif flag == "--p0":
            scenario, args = hypercongested_file, SLACK_ARGS[command]
        # scenario_file's solves at tau = 200 converge in 2 iterations from
        # their free-flow start, so only a cap of 1 cuts one short
        value = "1" if flag == "--max-iters" else PERTURBED[flag]
        rc = main([command, "--scenario", str(scenario), "-o", str(tmp_path),
                   *args, flag, value])
        assert rc == 0
        base = outputs_of(base_run(command, scenario, args))
        assert outputs_of(tmp_path).keys() == base.keys()
        assert outputs_of(tmp_path) != base

    @pytest.mark.parametrize("command,flag,value", [
        (command, flag, PERTURBED[flag]) for command in ACCEPTS for flag in PERTURBED
        if flag not in ACCEPTS[command]
    ] + [
        ("optimize", "--tau", "999"), ("uniqueness", "--theta", "-3"),
        ("msa", "--max-iters", "0"), ("equilibrium", "--seed", "1"),
    ] + [
        # the trust radius is 1/k on every subcommand; no flag sets it
        (command, "--eps", "const:0.25") for command in ACCEPTS
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


STUDY_ARGS = ["--samples", "20", "--taus", "100,200,300"]


@pytest.fixture(scope="module")
def study_run(tmp_path_factory):
    """A study of the small preset at seed 0: (its scenario, its output)."""
    gen, out = tmp_path_factory.mktemp("gen-small"), tmp_path_factory.mktemp("study")
    assert main(["generate", "--preset", "small", "-o", str(gen)]) == 0
    scenario = str(gen / "scenario.json")
    assert main(["study", "--scenario", scenario, *STUDY_ARGS, "-o", str(out)]) == 0
    return scenario, out


class TestStudy:
    def test_tables_match_subcommands(self, study_run, tmp_path):
        """The study and the subcommands render identical tables."""
        scenario, study = study_run
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
        assert sorted(p.name for p in study.iterdir()) == \
            sorted([*shared, "summary.json", "manifest.json"])
        for name, cli_name in shared.items():
            assert (study / name).read_bytes() == (tmp_path / cli_name).read_bytes(), name

    def test_optima_are_the_searches_last_rows(self, study_run):
        # each search ends on its tau*, so its last row holds the totals
        # the summary reports there
        _, study = study_run
        optima = read_json(study / "summary.json")["optima"]
        for objective, at_star in optima.items():
            rows = (study / f"dichotomy_{objective}.csv").read_text().splitlines()
            last = dict(zip(rows[0].split(","), rows[-1].split(",")))
            assert float(last["tau_credits"]) == at_star["tau_star"]
            assert float(last["ttt_h"]) == at_star["ttt_h"]
            assert float(last["emission_t"]) == at_star["emission_t"]

    def test_reruns_byte_identical(self, study_run, tmp_path):
        scenario, first = study_run
        assert main(["study", "--scenario", scenario, *STUDY_ARGS,
                     "-o", str(tmp_path)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in tmp_path.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (tmp_path / name).read_bytes(), name


    def test_searches_stay_inside_a_fractional_grid(self, scenario_file, tmp_path,
                                                    monkeypatch):
        # 150.5, ..., 350.5: the searches run over 151..350, never from 150
        bounds = []

        class Searched(Exception):
            pass

        def record(scenario, params, objective, lo, hi):
            bounds.append((lo, hi))
            raise Searched

        monkeypatch.setattr(tcsmfd.cli, "optimize_charge", record)
        with pytest.raises(Searched):
            main(["study", "--scenario", str(scenario_file), "--taus", "150.5:400:50",
                  "--samples", "4", "-o", str(tmp_path)])
        assert bounds == [(151, 350)]
        assert all(type(b) is int for b in bounds[0])

    def test_grid_without_an_integer_charge_exits_2(self, scenario_file, tmp_path,
                                                    capsys):
        rc = main(["study", "--scenario", str(scenario_file), "--taus", "150.2,150.7",
                   "--samples", "4", "-o", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --taus") and "integer" in err


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
