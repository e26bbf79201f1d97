"""Command-line interface.

Every subcommand writes its outputs plus a ``manifest.json`` into the
directory given by ``-o``; the manifest pins inputs (paths and content
hashes), parameters and the package version, so a rerun with the same
manifest inputs reproduces the outputs byte for byte.  Writes are atomic
(temp file + rename) and never clobber a file with a partial write.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import histogram_rows, stability_check, uniqueness_check
from .equilibrium import equilibrium_solve, msa_solve
from .objectives import (
    group_gains,
    optimize_charge,
    sweep_charges,
    total_emission,
    total_travel_time,
)
from .scenario import (
    ScenarioError,
    TcsParams,
    generate_synthetic,
    load_scenario,
    preset_spec,
    save_scenario,
)
from .simulator import HorizonError

__all__ = [
    "main",
    "parse_taus",
    "write_csv",
    "sweep_tables",
    "dichotomy_table",
    "gains_table",
    "stability_runs",
    "stability_table",
]


# ---------------------------------------------------------------------------
# small IO helpers


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_json(path: Path, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_csv(path: Path, rows) -> None:
    _atomic_write(path, "\n".join(",".join(str(c) for c in row) for row in rows) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _manifest(args, command: str, params: TcsParams | None, inputs: dict,
              options: dict) -> dict:
    man = {
        "command": command,
        "package": "tcsmfd",
        "version": __version__,
        "inputs": inputs,
        "options": options,
    }
    if params is not None:
        man["params"] = asdict(params)
    if getattr(args, "seed", None) is not None:
        man["seed"] = args.seed
    return man


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# parameter plumbing


def _add_common(parser: argparse.ArgumentParser, scenario: bool = True) -> None:
    if scenario:
        parser.add_argument("--scenario", required=True, help="scenario file (JSON)")
    parser.add_argument("-o", "--out", required=True, help="output directory")
    parser.add_argument("--tau", type=float, default=None, help="credit charge per car trip")
    parser.add_argument("--kappa", type=float, default=None, help="credit allowance per traveler")
    parser.add_argument("--alpha-eur-per-h", type=float, default=None, help="value of time, EUR/h")
    parser.add_argument("--theta", type=float, default=None, help="logit sensitivity, 1/EUR")
    parser.add_argument("--eta", type=float, default=None, help="market-clearing weight")
    parser.add_argument("--j-goal", type=float, default=None, help="objective convergence goal")
    parser.add_argument("--max-iters", type=int, default=None, help="equilibrium iteration cap")
    parser.add_argument("--eps", default=None,
                        help="trust-region schedule: 'inv' or 'const:<v>'")
    parser.add_argument("--p0", type=float, default=None, help="initial credit price")
    parser.add_argument("--gamma-emission", type=float, default=None,
                        help="emission weight of the mixed objective")
    parser.add_argument("--p-carbon", type=float, default=None, help="carbon price, EUR/tonne")
    parser.add_argument("--cap-constraint", choices=("printed", "gamma-weighted"),
                        default=None, help="aggregate cap row variant")
    parser.add_argument("--seed", type=int, default=0, help="random seed")


def _params_from_args(args) -> TcsParams:
    params = TcsParams()
    updates = {}
    if args.tau is not None:
        updates["tau"] = args.tau
    if args.kappa is not None:
        updates["kappa"] = args.kappa
    if args.alpha_eur_per_h is not None:
        updates["alpha"] = args.alpha_eur_per_h / 3600.0
    if args.theta is not None:
        updates["theta"] = args.theta
    if args.eta is not None:
        updates["eta"] = args.eta
    if args.j_goal is not None:
        updates["j_goal"] = args.j_goal
    if args.max_iters is not None:
        updates["max_iters"] = args.max_iters
    if args.eps is not None:
        updates["eps_schedule"] = "inverse" if args.eps == "inv" else args.eps
    if args.p0 is not None:
        updates["p0"] = args.p0
    if args.gamma_emission is not None:
        updates["gamma_emission"] = args.gamma_emission
    if args.p_carbon is not None:
        updates["p_carbon"] = args.p_carbon
    if args.cap_constraint is not None:
        updates["cap_constraint"] = args.cap_constraint
    return replace(params, **updates) if updates else params


def _scenario_inputs(args) -> tuple:
    path = Path(args.scenario)
    scenario = load_scenario(path)
    inputs = {"scenario_path": str(path), "scenario_sha256": _sha256(path)}
    return scenario, inputs


def parse_taus(spec: str) -> list:
    """Charges from "a,b,..." or "start:stop:step" (stop excluded); a
    non-finite value, a non-positive step or an empty grid is a ValueError."""
    is_range = ":" in spec
    values = [float(p) for p in spec.split(":" if is_range else ",") if p]
    if not np.all(np.isfinite(values)):
        raise ValueError(f"tau grid {spec!r} is not finite")
    if is_range:
        if len(values) != 3:
            raise ValueError("tau range must be start:stop:step")
        start, stop, step = values
        if step <= 0.0:
            raise ValueError(f"tau range step must be positive, got {step:g}")
        values = list(np.arange(start, stop, step))
    if not values:
        raise ValueError(f"empty tau grid {spec!r}")
    return values


def _equilibrium_payload(rep) -> dict:
    return {
        "x": [float(v) for v in rep.state.x],
        "p": rep.state.p,
        "converged": rep.converged,
        "iterations": rep.iterations,
        "j_trace": rep.j_trace,
        "residual_trace": rep.residual_trace,
        "mcc_trace": rep.mcc_trace,
        "cap_slack_credits": rep.cap_slack,
        "car_time_s": [float(v) for v in rep.sim.car_times],
        "psi": [float(v) for v in rep.psis],
        "cost_car_eur": [float(v) for v in rep.cost_car],
        "cost_pt_eur": [float(v) for v in rep.cost_pt],
        "cap_constraint": rep.cap_constraint,
        "tcs": rep.tcs,
        "message": rep.message,
        "qp_unconverged": rep.qp_unconverged,
        "near_ties": rep.near_ties,
    }


# ---------------------------------------------------------------------------
# tables shared with scripts/run_full_study.py


def sweep_tables(rows) -> dict:
    """CSV tables of a charge sweep by file name: the full sweep and the plot views."""
    header = (
        "tau_credits", "price_eur_per_credit", "toll_equivalent_eur",
        "car_users_persons", "car_share", "ttt_h", "emission_t",
        "emission_g_per_km", "cap_slack_credits", "converged", "iterations",
        "qp_unconverged", "near_ties",
    )
    return {
        "sweep.csv": [header] + [
            (r.tau, repr(r.price), repr(r.toll_equivalent), repr(r.car_users),
             repr(r.car_share), repr(r.ttt_h), repr(r.emission_t),
             repr(r.emission_g_per_km), repr(r.cap_slack), int(r.converged),
             r.iterations, r.qp_unconverged, r.near_ties)
            for r in rows
        ],
        "ttt_vs_tau.csv":
            [("tau_credits", "ttt_h")] + [(r.tau, repr(r.ttt_h)) for r in rows],
        "emission_vs_tau.csv":
            [("tau_credits", "emission_t")] + [(r.tau, repr(r.emission_t)) for r in rows],
        "pareto_ttt_vs_emission.csv":
            [("ttt_h", "emission_t", "tau_credits")]
            + [(repr(r.ttt_h), repr(r.emission_t), r.tau) for r in rows],
    }


def dichotomy_table(res) -> list:
    """One row per step of a charge search."""
    return [("tau_credits", "lo", "hi", "derivative", "flat_cap", "ttt_h",
             "emission_t", "objective_eur", "converged", "qp_unconverged",
             "near_ties")] + [
        (s.tau, s.lo, s.hi, repr(s.derivative), int(s.flat_cap),
         repr(s.ttt_h), repr(s.emission_t), repr(s.objective), int(s.converged),
         s.qp_unconverged, s.near_ties)
        for s in res.steps
    ]


def gains_table(scenario, gains) -> list:
    """One row per group of the welfare split."""
    g = scenario.gammas
    return [("group", "gamma_persons", "trade_eur", "time_gain_s", "net_eur")] + [
        (i, repr(float(g[i])), repr(float(gains.trade_eur[i])),
         repr(float(gains.time_gain_s[i])), repr(float(gains.net_eur[i])))
        for i in range(scenario.n)
    ]


def stability_runs(scenario, params: TcsParams, taus) -> list:
    """(tau, equilibrium report, stability report) per charge.

    The stability report is None where the cap is slack (zero price).
    """
    runs = []
    for tau in taus:
        p_tau = replace(params, tau=tau)
        rep = equilibrium_solve(scenario, p_tau)
        st = stability_check(scenario, p_tau, rep.state) if rep.state.p > 0 else None
        runs.append((tau, rep, st))
    return runs


def stability_table(runs) -> list:
    """One row per charge of ``stability_runs``; blank verdicts where the cap is slack."""
    rows = [("tau_credits", "price_eur_per_credit", "spectral_abscissa",
             "stable", "eig_converged", "equilibrium_converged")]
    for tau, rep, st in runs:
        if st is None:
            rows.append((tau, repr(rep.state.p), "", "", "", int(rep.converged)))
        else:
            rows.append((tau, repr(rep.state.p), repr(st.spectral_abscissa),
                         int(st.stable), int(st.eig_converged), int(rep.converged)))
    return rows


# ---------------------------------------------------------------------------
# subcommands


def _cmd_generate(args) -> int:
    out = _out_dir(args)
    spec = preset_spec(args.preset)
    overrides = {"n_groups": args.n_groups, "total_travelers": args.total_travelers}
    spec = replace(spec, **{k: v for k, v in overrides.items() if v is not None})
    scenario = generate_synthetic(args.seed, spec)
    save_scenario(scenario, out / "scenario.json")
    _write_json(
        out / "manifest.json",
        _manifest(
            args, "generate", None,
            inputs={"preset": args.preset, "generator_spec": asdict(spec)},
            options={"n_groups": scenario.n, "total_travelers": scenario.total_travelers},
        ),
    )
    print(f"wrote {out / 'scenario.json'} ({scenario.n} groups)")
    return 0


def _cmd_equilibrium(args) -> int:
    out = _out_dir(args)
    scenario, inputs = _scenario_inputs(args)
    params = _params_from_args(args)
    rep = equilibrium_solve(scenario, params, tcs=not args.no_tcs)
    payload = _equilibrium_payload(rep)
    payload["ttt_h"] = total_travel_time(scenario, rep.state, rep.sim)
    payload["emission_t"] = total_emission(rep.sim)
    _write_json(out / "equilibrium.json", payload)
    _write_json(out / "manifest.json",
                _manifest(args, "equilibrium", params, inputs,
                          {"no_tcs": bool(args.no_tcs)}))
    status = "converged" if rep.converged else "NOT CONVERGED"
    print(f"equilibrium {status}: p={rep.state.p:.6g} EUR/credit, "
          f"J={rep.j_final:.3g}, {rep.iterations} iterations")
    return 0


def _cmd_msa(args) -> int:
    out = _out_dir(args)
    scenario, inputs = _scenario_inputs(args)
    params = _params_from_args(args)
    rep = msa_solve(scenario, params, p_fixed=args.price, iters=args.iters)
    _write_json(
        out / "msa.json",
        {
            "x": [float(v) for v in rep.x],
            "p": rep.p,
            "iterations": rep.iterations,
            "residual_trace": rep.residual_trace,
            "cap_violated": rep.cap_violated,
            "car_credits": rep.car_credits,
            "credit_supply": rep.credit_supply,
        },
    )
    _write_json(out / "manifest.json",
                _manifest(args, "msa", params, inputs,
                          {"price": args.price, "iters": args.iters}))
    flag = " (cap violated)" if rep.cap_violated else ""
    print(f"msa done: residual={rep.residual_final:.3g}{flag}")
    return 0


def _cmd_sweep(args) -> int:
    out = _out_dir(args)
    scenario, inputs = _scenario_inputs(args)
    params = _params_from_args(args)
    taus = parse_taus(args.taus)
    rows = sweep_charges(scenario, params, taus)
    for name, table in sweep_tables(rows).items():
        write_csv(out / name, table)
    _write_json(out / "manifest.json",
                _manifest(args, "sweep", params, inputs, {"taus": taus}))
    bad = sum(1 for r in rows if not r.converged)
    print(f"sweep done: {len(rows)} charges, {bad} non-converged")
    return 0


def _cmd_optimize(args) -> int:
    out = _out_dir(args)
    scenario, inputs = _scenario_inputs(args)
    params = _params_from_args(args)
    res = optimize_charge(scenario, params, objective=args.objective,
                          lo=args.lo, hi=args.hi)
    write_csv(out / "dichotomy_trace.csv", dichotomy_table(res))
    _write_json(
        out / "optimize.json",
        {
            "objective": res.objective,
            "tau_star": res.tau_star,
            "n_solves": res.n_solves,
            "price_at_star": res.report.state.p,
            "final_objective_eur": res.final_objective,
        },
    )
    _write_json(out / "manifest.json",
                _manifest(args, "optimize", params, inputs,
                          {"objective": args.objective, "lo": args.lo, "hi": args.hi}))
    print(f"optimal charge ({args.objective}): tau*={res.tau_star:.0f} "
          f"after {res.n_solves} solves")
    return 0


def _cmd_uniqueness(args) -> int:
    out = _out_dir(args)
    scenario, inputs = _scenario_inputs(args)
    rep = uniqueness_check(scenario, n_samples=args.samples, seed=args.seed,
                           max_pairs=args.max_pairs)
    _write_json(
        out / "uniqueness.json",
        {
            "n_samples": rep.n_samples,
            "n_pairs": rep.n_pairs,
            "all_pairs": rep.all_pairs,
            "min_dot": rep.min_dot,
            "positive": rep.positive,
            "percentiles": {str(k): v for k, v in rep.percentiles.items()},
        },
    )
    write_csv(out / "dot_histogram.csv", histogram_rows(rep.dots))
    _write_json(out / "manifest.json",
                _manifest(args, "uniqueness", None, inputs,
                          {"samples": args.samples, "max_pairs": args.max_pairs}))
    print(f"uniqueness: min dot {rep.min_dot:.6g} over {rep.n_pairs} pairs "
          f"({'positive' if rep.positive else 'NOT positive'})")
    return 0


def _cmd_stability(args) -> int:
    out = _out_dir(args)
    scenario, inputs = _scenario_inputs(args)
    params = _params_from_args(args)
    taus = parse_taus(args.taus) if args.taus else [params.tau]
    runs = stability_runs(scenario, params, taus)
    write_csv(out / "stability.csv", stability_table(runs))
    _write_json(out / "manifest.json",
                _manifest(args, "stability", params, inputs, {"taus": taus}))
    print(f"stability: {len(runs)} charges analyzed")
    return 0


def _cmd_gains(args) -> int:
    out = _out_dir(args)
    scenario, inputs = _scenario_inputs(args)
    params = _params_from_args(args)
    ref = equilibrium_solve(scenario, params, tcs=False, p_init=0.0)
    tcs = equilibrium_solve(scenario, params)
    gains = group_gains(ref.state, tcs.state, scenario, params)
    g = scenario.gammas
    write_csv(out / "gains.csv", gains_table(scenario, gains))
    _write_json(
        out / "gains_summary.json",
        {
            "price_eur_per_credit": tcs.state.p,
            "weighted_trade_total_eur": gains.weighted_trade_total(g),
            "weighted_net_total_eur": float(g @ gains.net_eur),
            "winners_fraction": float(g[gains.net_eur > 0].sum() / g.sum()),
        },
    )
    _write_json(out / "manifest.json", _manifest(args, "gains", params, inputs, {}))
    print(f"gains written for {scenario.n} groups")
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcsmfd",
        description="Tradable credit scheme equilibria on a trip-based MFD model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic scenario")
    p.add_argument("--preset", default="small", help="preset name")
    p.add_argument("--n-groups", type=int, default=None)
    p.add_argument("--total-travelers", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("equilibrium", help="solve the market equilibrium")
    _add_common(p)
    p.add_argument("--no-tcs", action="store_true",
                   help="plain logit equilibrium without the credit market")
    p.set_defaults(func=_cmd_equilibrium)

    p = sub.add_parser("msa", help="successive-averages benchmark at a fixed price")
    _add_common(p)
    p.add_argument("--price", type=float, required=True)
    p.add_argument("--iters", type=int, default=50)
    p.set_defaults(func=_cmd_msa)

    p = sub.add_parser("sweep", help="equilibria over a range of charges")
    _add_common(p)
    p.add_argument("--taus", required=True, help="start:stop:step or comma list")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("optimize", help="dichotomy search for the optimal charge")
    _add_common(p)
    p.add_argument("--objective", choices=("ttt", "mixed"), default="mixed")
    p.add_argument("--lo", type=int, default=100)
    p.add_argument("--hi", type=int, default=500)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("uniqueness", help="monotonicity sampling diagnostic")
    _add_common(p)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--max-pairs", type=int, default=1_000_000)
    p.set_defaults(func=_cmd_uniqueness)

    p = sub.add_parser("stability", help="eigenvalue stability at equilibria")
    _add_common(p)
    p.add_argument("--taus", default=None, help="start:stop:step or comma list")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("gains", help="per-group welfare decomposition")
    _add_common(p)
    p.set_defaults(func=_cmd_gains)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, ValueError, FileNotFoundError, HorizonError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
