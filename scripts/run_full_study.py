#!/usr/bin/env python3
"""End-to-end policy study on one synthetic scenario.

Runs the whole pipeline in order: scenario generation, the no-scheme
reference equilibrium, the scheme equilibrium at the default charge, a
charge sweep, dichotomy optimization of both objectives, the per-group
welfare split at the best charge, and the two appendix-style diagnostics
(monotonicity sampling, day-to-day stability).  Everything lands in one
output directory as delimited tables plus a summary.json.

Usage:
    python3 scripts/run_full_study.py -o out/study
    python3 scripts/run_full_study.py --preset small --samples 60 -o /tmp/s
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from tcsmfd import (
    TcsParams,
    equilibrium_solve,
    generate_synthetic,
    group_gains,
    histogram_rows,
    msa_solve,
    optimize_charge,
    preset_spec,
    save_scenario,
    sweep_charges,
    total_emission,
    total_travel_time,
    uniqueness_check,
)
from tcsmfd.cli import (
    dichotomy_table,
    gains_table,
    parse_taus,
    stability_runs,
    stability_table,
    sweep_tables,
    write_csv,
)


def log(msg: str) -> None:
    print(msg, flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--preset", default="congested")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--taus", default="100:501:20",
                    help="charge grid, start:stop:step or comma list")
    ap.add_argument("--samples", type=int, default=200,
                    help="share vectors for the monotonicity check")
    ap.add_argument("-o", "--out", required=True)
    args = ap.parse_args(argv)

    try:
        taus = parse_taus(args.taus)
    except ValueError as exc:
        ap.error(str(exc))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    params = TcsParams()
    t_start = time.perf_counter()

    # --- scenario ---------------------------------------------------------
    spec = preset_spec(args.preset)
    scenario = generate_synthetic(args.seed, spec)
    save_scenario(scenario, out / "scenario.json")
    log(f"[1/8] scenario: {scenario.n} groups, "
        f"{scenario.total_travelers:g} travelers ({args.preset}, seed {args.seed})")

    # --- no-scheme reference ----------------------------------------------
    ref = equilibrium_solve(scenario, params, tcs=False, p_init=0.0)
    ref_ttt = total_travel_time(scenario, ref.state, ref.sim)
    ref_em = total_emission(ref.sim)
    g = scenario.gammas
    ref_share = float(g @ ref.state.x / g.sum())
    log(f"[2/8] no scheme: car share {ref_share:.3f}, "
        f"TTT {ref_ttt:.1f} h, emissions {ref_em:.3f} t")

    # --- scheme at the default charge --------------------------------------
    eq = equilibrium_solve(scenario, params)
    eq_ttt = total_travel_time(scenario, eq.state, eq.sim)
    eq_em = total_emission(eq.sim)
    log(f"[3/8] scheme at tau={params.tau:.0f}: p={eq.state.p:.5g} EUR/credit, "
        f"{eq.iterations} iterations, TTT {eq_ttt:.1f} h, emissions {eq_em:.3f} t")

    # averaging benchmark at the market price, sanity only
    msa = msa_solve(scenario, params, p_fixed=eq.state.p)
    msa_gap = float(np.linalg.norm(msa.x - eq.state.x) / np.linalg.norm(eq.state.x))
    log(f"      averaging benchmark gap {msa_gap:.2e}"
        + (" (cap violated)" if msa.cap_violated else ""))

    # --- charge sweep -------------------------------------------------------
    rows = sweep_charges(scenario, params, taus)
    for name, table in sweep_tables(rows).items():
        write_csv(out / name, table)
    binding = [r.tau for r in rows if r.price > 0]
    log(f"[4/8] sweep: {len(rows)} charges, cap binds from tau="
        f"{binding[0]:.0f}" if binding else f"[4/8] sweep: cap never binds")

    # --- optimal charges ----------------------------------------------------
    lo, hi = int(min(taus)), int(max(taus))
    best = {}
    for objective in ("ttt", "mixed"):
        res = optimize_charge(scenario, params, objective=objective, lo=lo, hi=hi)
        best[objective] = res
        write_csv(out / f"dichotomy_{objective}.csv", dichotomy_table(res))
        log(f"[5/8] optimize {objective}: tau*={res.tau_star:.0f} "
            f"({res.n_solves} equilibrium solves)")

    # outcomes at the optima, relative to the no-scheme reference
    savings = {}
    for objective, res in best.items():
        ttt = total_travel_time(scenario, res.report.state, res.report.sim)
        em = total_emission(res.report.sim)
        savings[objective] = {
            "tau_star": res.tau_star,
            "price_eur_per_credit": res.report.state.p,
            "ttt_h": ttt,
            "emission_t": em,
            "ttt_saving": (ref_ttt - ttt) / ref_ttt,
            "emission_saving": (ref_em - em) / ref_em,
        }
    s_t, s_m = savings["ttt"], savings["mixed"]
    log(f"      TTT objective: {s_t['ttt_saving']:+.1%} travel time, "
        f"{s_t['emission_saving']:+.1%} emissions")
    log(f"      mixed objective: {s_m['ttt_saving']:+.1%} travel time, "
        f"{s_m['emission_saving']:+.1%} emissions")

    # --- welfare split at the TTT-optimal charge ----------------------------
    # the charge does not enter a no-scheme solve, so ref is the reference here too
    p_star = replace(params, tau=float(best["ttt"].tau_star))
    gains = group_gains(ref, best["ttt"].report, scenario, p_star)
    write_csv(out / "gains.csv", gains_table(scenario, gains))
    winners = float(g[gains.net_eur > 0].sum() / g.sum())
    log(f"[6/8] gains at tau*={best['ttt'].tau_star:.0f}: "
        f"{winners:.1%} of travelers better off, "
        f"net transfer {gains.weighted_trade_total(g):+.2e} EUR")

    # --- monotonicity sampling ----------------------------------------------
    uni = uniqueness_check(scenario, n_samples=args.samples, seed=args.seed)
    write_csv(out / "dot_histogram.csv", histogram_rows(uni.dots))
    log(f"[7/8] monotonicity: min dot {uni.min_dot:.4g} over {uni.n_pairs} pairs "
        f"({'positive' if uni.positive else 'NOT positive'})")

    # --- stability along the sweep ------------------------------------------
    runs = stability_runs(scenario, params, taus)
    write_csv(out / "stability.csv", stability_table(runs))
    worst = max((st.spectral_abscissa for _, _, st in runs if st is not None),
                default=None)
    log(f"[8/8] stability: worst spectral abscissa "
        + (f"{worst:.4f}" if worst is not None else "n/a (cap never binds)"))

    summary = {
        "preset": args.preset,
        "seed": args.seed,
        "params": asdict(params),
        "n_groups": scenario.n,
        "total_travelers": scenario.total_travelers,
        "reference": {"car_share": ref_share, "ttt_h": ref_ttt, "emission_t": ref_em},
        "default_charge": {
            "tau": params.tau, "price_eur_per_credit": eq.state.p,
            "iterations": eq.iterations, "ttt_h": eq_ttt, "emission_t": eq_em,
            "msa_gap_rel_l2": msa_gap,
        },
        "optima": savings,
        "winners_fraction_at_ttt_star": winners,
        "uniqueness": {"n_pairs": uni.n_pairs, "min_dot": uni.min_dot,
                       "positive": uni.positive},
        "worst_spectral_abscissa": worst,
        "runtime_s": round(time.perf_counter() - t_start, 2),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n",
                                      encoding="utf-8")
    log(f"done in {summary['runtime_s']}s; tables in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
