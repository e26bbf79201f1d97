"""Command-line interface.

Every subcommand writes its outputs plus a ``manifest.json`` into the
directory given by ``-o``.  The manifest pins the inputs (paths and content
hashes), the options, the ``TcsParams`` fields the command reads, the seed
where the command reads one, and the package version, so a rerun with the
same manifest inputs reproduces the outputs byte for byte.  Writes are
atomic (temp file + rename), never clobber a file with a partial write, and
the manifest is written last.

A subcommand accepts only the parameter flags of the fields it reads
(``_PARAM_FLAGS`` and ``_READS``); any other flag is an argparse error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import _stability_at, histogram_rows, uniqueness_check
from .equilibrium import equilibrium_solve, msa_solve
from .objectives import (
    _SolvedCharges,
    _sweep_row,
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
    scenario_to_text,
)
from .simulator import HorizonError

__all__ = ["main", "parse_taus"]


# ---------------------------------------------------------------------------
# small IO helpers


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_text(rows) -> str:
    return "\n".join(",".join(str(c) for c in row) for row in rows) + "\n"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# parameter flags


def _eur_per_s(text: str) -> float:
    return float(text) / 3600.0


# TcsParams field -> (flag, argparse keywords); ``type`` converts the flag's
# text to the field's value
_PARAM_FLAGS = {
    "tau": ("--tau", dict(type=float, help="credit charge per car trip")),
    "kappa": ("--kappa", dict(type=float, help="credit allowance per traveler")),
    "alpha": ("--alpha-eur-per-h", dict(type=_eur_per_s, help="value of time, EUR/h")),
    "theta": ("--theta", dict(type=float, help="logit sensitivity, 1/EUR")),
    "eta": ("--eta", dict(type=float, help="market-clearing weight")),
    "j_goal": ("--j-goal", dict(type=float, help="objective convergence goal")),
    "max_iters": ("--max-iters", dict(type=int, help="equilibrium iteration cap")),
    "p0": ("--p0", dict(type=float, help="initial credit price")),
    "gamma_emission": ("--gamma-emission",
                       dict(type=float, help="emission weight of the mixed objective")),
    "p_carbon": ("--p-carbon", dict(type=float, help="carbon price, EUR/tonne")),
    "cap_constraint": ("--cap-constraint", dict(choices=("printed", "gamma-weighted"),
                                                help="aggregate cap row variant")),
}

_SOLVER = ("kappa", "alpha", "theta", "eta", "j_goal", "max_iters", "p0",
           "cap_constraint")

# the TcsParams fields each scenario subcommand reads: its flags and its
# manifest's params
_READS = {
    "equilibrium": ("tau",) + _SOLVER,
    "stability": ("tau",) + _SOLVER,
    "gains": ("tau",) + _SOLVER,
    "sweep": _SOLVER,                      # the charges come from --taus
    "optimize": _SOLVER + ("gamma_emission", "p_carbon"),   # and from --lo/--hi
    "study": _SOLVER + ("gamma_emission", "p_carbon"),      # and from --taus
    "msa": ("tau", "kappa", "alpha", "theta", "cap_constraint"),
    "uniqueness": (),
}


def _params(args, fields) -> TcsParams:
    values = {f: getattr(args, f) for f in fields if getattr(args, f) is not None}
    if "tau" not in fields or getattr(args, "taus", None):
        # the command sets the charge of each solve (stability does so when
        # given --taus, and then ignores --tau); build at one the allowance admits
        values["tau"] = max(values.get("kappa", TcsParams.kappa), TcsParams.tau)
    return TcsParams(**values)


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
        values = [float(v) for v in np.arange(start, stop, step)]
    if not values:
        raise ValueError(f"empty tau grid {spec!r}")
    return values


def _equilibrium_payload(rep) -> dict:
    return {
        "x": [float(v) for v in rep.state.x],
        "p": rep.state.p,
        "converged": rep.converged,
        "iterations": rep.iterations,
        "substitution_steps": rep.substitution_steps,
        "accelerated_steps": rep.accelerated_steps,
        "j_trace": rep.j_trace,
        "qp_iterations": rep.qp_iterations,
        "cg_iterations": rep.cg_iterations,
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
# tables


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
    """One row per step of a charge search (named for the dichotomy the
    search began as; the rows and columns are the same)."""
    return [("tau_credits", "lo", "hi", "derivative", "flat_cap", "ttt_h",
             "emission_t", "objective_eur", "converged", "iterations",
             "qp_unconverged", "near_ties")] + [
        (s.tau, s.lo, s.hi, repr(s.derivative), int(s.flat_cap),
         repr(s.ttt_h), repr(s.emission_t), repr(s.objective), int(s.converged),
         s.iterations, s.qp_unconverged, s.near_ties)
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

    Each distinct charge is solved once, in one ``objectives._SolvedCharges``
    as in ``sweep_charges``.  The stability report is None where the cap is
    slack (zero price).
    """
    charges = _SolvedCharges(scenario, params)
    return [_stability_run(scenario, charges[tau]) for tau in taus]


def _stability_run(scenario, held) -> tuple:
    p_tau, rep, *_ = held
    st = _stability_at(scenario, p_tau, rep.sim, rep.psis) if rep.state.p > 0 else None
    return p_tau.tau, rep, st


def stability_table(runs) -> list:
    """One row per charge of ``stability_runs``; blank verdicts where the cap is slack."""
    rows = [("tau_credits", "price_eur_per_credit", "spectral_abscissa",
             "stable", "eig_converged", "equilibrium_converged", "iterations",
             "qp_unconverged", "near_ties")]
    for tau, rep, st in runs:
        verdict = ("", "", "") if st is None else (
            repr(st.spectral_abscissa), int(st.stable), int(st.eig_converged))
        rows.append((tau, repr(rep.state.p), *verdict, int(rep.converged),
                     rep.iterations, rep.qp_unconverged, rep.near_ties))
    return rows


# ---------------------------------------------------------------------------
# subcommands: each returns (outputs as {file name: text}, manifest entries,
# summary line) and leaves the writing to _run


def _cmd_generate(args, scenario, params):
    spec = preset_spec(args.preset)
    overrides = {"n_groups": args.n_groups, "total_travelers": args.total_travelers}
    spec = replace(spec, **{k: v for k, v in overrides.items() if v is not None})
    scenario = generate_synthetic(args.seed, spec)
    recorded = {
        "inputs": {"preset": args.preset, "generator_spec": asdict(spec)},
        "options": {"n_groups": scenario.n, "total_travelers": scenario.total_travelers},
    }
    return ({"scenario.json": scenario_to_text(scenario)}, recorded,
            f"wrote {Path(args.out) / 'scenario.json'} ({scenario.n} groups)")


def _cmd_equilibrium(args, scenario, params):
    rep = equilibrium_solve(scenario, params, tcs=not args.no_tcs)
    payload = _equilibrium_payload(rep)
    payload["ttt_h"] = total_travel_time(scenario, rep.state, rep.sim)
    payload["emission_t"] = total_emission(rep.sim)
    status = "converged" if rep.converged else "NOT CONVERGED"
    return ({"equilibrium.json": _json_text(payload)},
            {"options": {"no_tcs": bool(args.no_tcs)}},
            f"equilibrium {status}: p={rep.state.p:.6g} EUR/credit, "
            f"J={rep.j_final:.3g}, {rep.iterations} iterations")


def _cmd_msa(args, scenario, params):
    rep = msa_solve(scenario, params, p_fixed=args.price, iters=args.iters)
    payload = {
        "x": [float(v) for v in rep.x],
        "p": rep.p,
        "iterations": rep.iterations,
        "residual_trace": rep.residual_trace,
        "cap_violated": rep.cap_violated,
        "car_credits": rep.car_credits,
        "credit_supply": rep.credit_supply,
    }
    flag = " (cap violated)" if rep.cap_violated else ""
    return ({"msa.json": _json_text(payload)},
            {"options": {"price": args.price, "iters": args.iters}},
            f"msa done: residual={rep.residual_final:.3g}{flag}")


def _cmd_sweep(args, scenario, params):
    taus = parse_taus(args.taus)
    rows = sweep_charges(scenario, params, taus)
    bad = sum(1 for r in rows if not r.converged)
    return ({name: _csv_text(table) for name, table in sweep_tables(rows).items()},
            {"options": {"taus": taus}},
            f"sweep done: {len(rows)} charges, {bad} non-converged")


def _cmd_optimize(args, scenario, params):
    res = optimize_charge(scenario, params, objective=args.objective,
                          lo=args.lo, hi=args.hi)
    summary = {
        "objective": res.objective,
        "tau_star": res.tau_star,
        "n_solves": res.n_solves,
        "price_at_star": res.report.state.p,
        "final_objective_eur": res.final_objective,
    }
    return ({"dichotomy_trace.csv": _csv_text(dichotomy_table(res)),
             "optimize.json": _json_text(summary)},
            {"options": {"objective": args.objective, "lo": args.lo, "hi": args.hi}},
            f"optimal charge ({args.objective}): tau*={res.tau_star:.0f} "
            f"after {res.n_solves} solves")


def _cmd_uniqueness(args, scenario, params):
    rep = uniqueness_check(scenario, n_samples=args.samples, seed=args.seed,
                           max_pairs=args.max_pairs)
    summary = {
        "n_samples": rep.n_samples,
        "n_pairs": rep.n_pairs,
        "all_pairs": rep.all_pairs,
        "min_dot": rep.min_dot,
        "positive": rep.positive,
        "percentiles": {str(k): v for k, v in rep.percentiles.items()},
    }
    return ({"uniqueness.json": _json_text(summary),
             "dot_histogram.csv": _csv_text(histogram_rows(rep.dots))},
            {"options": {"samples": args.samples, "max_pairs": args.max_pairs}},
            f"uniqueness: min dot {rep.min_dot:.6g} over {rep.n_pairs} pairs "
            f"({'positive' if rep.positive else 'NOT positive'})")


def _cmd_stability(args, scenario, params):
    taus = parse_taus(args.taus) if args.taus else [params.tau]
    runs = stability_runs(scenario, params, taus)
    return ({"stability.csv": _csv_text(stability_table(runs))},
            {"options": {"taus": taus}},
            f"stability: {len(runs)} charges analyzed")


def _cmd_gains(args, scenario, params):
    ref = equilibrium_solve(scenario, params, tcs=False, p_init=0.0)
    tcs = equilibrium_solve(scenario, params)
    gains = group_gains(ref, tcs, scenario, params)
    g = scenario.gammas
    summary = {
        "price_eur_per_credit": tcs.state.p,
        "weighted_trade_total_eur": gains.weighted_trade_total(g),
        "weighted_net_total_eur": float(g @ gains.net_eur),
        "winners_fraction": float(g[gains.net_eur > 0].sum() / g.sum()),
    }
    return ({"gains.csv": _csv_text(gains_table(scenario, gains)),
             "gains_summary.json": _json_text(summary)},
            {"options": {}},
            f"gains written for {scenario.n} groups")


def _cmd_study(args, scenario, params):
    taus = parse_taus(args.taus)
    # both searches run over the integer charges inside the grid
    lo, hi = math.ceil(min(taus)), math.floor(max(taus))
    if lo > hi:
        raise ValueError(f"--taus {args.taus!r} holds no integer charge for the searches")
    g = scenario.gammas

    def totals(rep) -> dict:
        return {"ttt_h": total_travel_time(scenario, rep.state, rep.sim),
                "emission_t": total_emission(rep.sim)}

    ref = equilibrium_solve(scenario, params, tcs=False, p_init=0.0)
    eq = equilibrium_solve(scenario, params)
    # the averaging benchmark at the market price, a sanity check only
    msa = msa_solve(scenario, params, p_fixed=eq.state.p)
    # one pass over the grid feeds both the sweep and the stability tables
    grid = _SolvedCharges(scenario, params)
    rows = [_sweep_row(scenario, grid[tau]) for tau in taus]
    runs = [_stability_run(scenario, grid[tau]) for tau in taus]
    best = {objective: optimize_charge(scenario, params, objective=objective,
                                       lo=lo, hi=hi)
            for objective in ("ttt", "mixed")}
    # the charge does not enter a no-scheme solve, so ref is the reference
    # here too; the scheme side is solved cold, as `gains --tau` does
    p_star = replace(params, tau=best["ttt"].tau_star)
    gains = group_gains(ref, equilibrium_solve(scenario, p_star), scenario, p_star)
    uni = uniqueness_check(scenario, n_samples=args.samples, seed=args.seed)

    base = totals(ref)
    optima = {}
    for objective, res in best.items():
        at_star = res.steps[-1]   # a search's last step is at its tau*
        optima[objective] = {
            "tau_star": res.tau_star,
            "price_eur_per_credit": res.report.state.p,
            "ttt_h": at_star.ttt_h, "emission_t": at_star.emission_t,
            "ttt_saving": (base["ttt_h"] - at_star.ttt_h) / base["ttt_h"],
            "emission_saving": (base["emission_t"] - at_star.emission_t) / base["emission_t"],
        }
    summary = {
        "reference": {"car_share": float(g @ ref.state.x / g.sum()), **base},
        "default_charge": {
            "tau": params.tau, "price_eur_per_credit": eq.state.p,
            "iterations": eq.iterations, **totals(eq),
            "msa_gap_rel_l2":
                float(np.linalg.norm(msa.x - eq.state.x) / np.linalg.norm(eq.state.x)),
        },
        "optima": optima,
        "winners_fraction_at_ttt_star": float(g[gains.net_eur > 0].sum() / g.sum()),
        "uniqueness": {"n_pairs": uni.n_pairs, "min_dot": uni.min_dot,
                       "positive": uni.positive},
        "worst_spectral_abscissa": max(
            (st.spectral_abscissa for _, _, st in runs if st is not None), default=None),
    }
    tables = {
        **sweep_tables(rows),
        "dichotomy_ttt.csv": dichotomy_table(best["ttt"]),
        "dichotomy_mixed.csv": dichotomy_table(best["mixed"]),
        "gains.csv": gains_table(scenario, gains),
        "dot_histogram.csv": histogram_rows(uni.dots),
        "stability.csv": stability_table(runs),
    }
    outputs = {name: _csv_text(table) for name, table in tables.items()}
    outputs["summary.json"] = _json_text(summary)
    o_t, o_m = optima["ttt"], optima["mixed"]
    return (outputs,
            {"options": {"taus": taus, "samples": args.samples}},
            f"study done: {len(taus)} charges; TTT, CO2 saved: "
            f"{o_t['ttt_saving']:.1%}, {o_t['emission_saving']:.1%} at ttt "
            f"tau*={o_t['tau_star']:.0f}; {o_m['ttt_saving']:.1%}, "
            f"{o_m['emission_saving']:.1%} at mixed tau*={o_m['tau_star']:.0f}")


def _run(args) -> int:
    """Shared work of every subcommand around its ``_cmd_*`` function."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"command": args.command, "package": "tcsmfd", "version": __version__}
    scenario = params = None
    if "scenario" in args:
        path = Path(args.scenario)
        scenario = load_scenario(path)
        manifest["inputs"] = {"scenario_path": str(path), "scenario_sha256": _sha256(path)}
    fields = _READS.get(args.command)
    if fields:
        params = _params(args, fields)
        manifest["params"] = {f: getattr(params, f) for f in fields}
    outputs, recorded, summary = args.func(args, scenario, params)
    manifest.update(recorded)
    if "seed" in args:
        manifest["seed"] = args.seed
    for name, text in outputs.items():
        _atomic_write(out / name, text)
    _atomic_write(out / "manifest.json", _json_text(manifest))
    print(summary)
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcsmfd",
        description="Tradable credit scheme equilibria on a trip-based MFD model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        # no abbreviations: a dropped flag such as sweep's --tau must not
        # resolve to a kept one such as --taus
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        if name in _READS:
            p.add_argument("--scenario", required=True, help="scenario file (JSON)")
        p.add_argument("-o", "--out", required=True, help="output directory")
        for field in _READS.get(name, ()):
            flag, kwargs = _PARAM_FLAGS[field]
            p.add_argument(flag, dest=field, default=None, **kwargs)
        p.set_defaults(func=func)
        return p

    p = command("generate", _cmd_generate, "write a synthetic scenario")
    p.add_argument("--preset", default="small", help="preset name")
    p.add_argument("--n-groups", type=int, default=None)
    p.add_argument("--total-travelers", type=int, default=None)
    p.add_argument("--seed", type=int, default=0, help="random seed")

    p = command("equilibrium", _cmd_equilibrium, "solve the market equilibrium")
    p.add_argument("--no-tcs", action="store_true",
                   help="plain logit equilibrium without the credit market")

    p = command("msa", _cmd_msa, "successive-averages benchmark at a fixed price")
    p.add_argument("--price", type=float, required=True)
    p.add_argument("--iters", type=int, default=50)

    p = command("sweep", _cmd_sweep, "equilibria over a range of charges")
    p.add_argument("--taus", required=True, help="start:stop:step or comma list")

    p = command("optimize", _cmd_optimize, "safeguarded secant search for the optimal charge")
    p.add_argument("--objective", choices=("ttt", "mixed"), default="mixed")
    p.add_argument("--lo", type=int, default=100)
    p.add_argument("--hi", type=int, default=500)

    p = command("uniqueness", _cmd_uniqueness, "monotonicity sampling diagnostic")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--max-pairs", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0, help="random seed")

    p = command("stability", _cmd_stability, "eigenvalue stability at equilibria")
    p.add_argument("--taus", default=None, help="start:stop:step or comma list")

    command("gains", _cmd_gains, "per-group welfare decomposition")

    p = command("study", _cmd_study,
                "the whole study: reference, sweep, both searches, gains, diagnostics")
    p.add_argument("--taus", default="100:501:20", help="start:stop:step or comma list")
    p.add_argument("--samples", type=int, default=200,
                   help="share vectors for the uniqueness sampling")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (ScenarioError, ValueError, FileNotFoundError, HorizonError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
