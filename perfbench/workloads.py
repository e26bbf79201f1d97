"""The benchmark's workloads, their correctness checks and reference values.

Every workload is a closed loop in one process: each public call starts
after the previous one returned.  All calls go through attributes of the
``tcsmfd`` package, looked up at call time, so the tracer sees them.

Inputs.  Each workload runs on its preset's scenario from generator seed 0,
the acceptance suite's, unless another scenario seed is asked for.  The
benchmark seed draws the uniqueness samples.  It changes nothing that the
equilibrium solver sees: the solver's cost is chaotic in its input.  On a
2-vCPU Xeon at 2 BLAS threads, a relabelling of the congested groups alone
moved the policy workload between 10 and 17 s, and another generator seed
moved the citywide solve from 33 to 144 s.  A seed-drawn scenario would make
run-to-run spread exceed any usable bound.  A held-out scenario is run with
``--scenario-seed``.

An operation is one public call a workload makes.  It fails if it raises,
returns ``converged=False`` or misses one of its checks; the ``Ledger``
records why.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace

import numpy as np

import tcsmfd as api
from tcsmfd.scenario import scenario_to_text

SWEEP_TAUS = list(range(100, 501, 20))     # the C08 grid
STABILITY_TAUS = list(range(120, 501, 80))  # coarse grid, includes tau=200
OPT_RANGE = (100, 500)
MSA_PRICE = 0.00575
MSA_ITERS = 50
UNIQUENESS_SAMPLES = 200
X_TOL = 1e-4        # equilibrium_solve's default residual tolerance
MCC_TOL = 1e-4      # per-capita |p * slack|, as C04
C06_GAP = 0.10      # relative L2 gap of MSA to the fixed-price equilibrium
C08_GAP = 0.02      # tau* objective above the sweep's grid optimum
C08_MAX_SOLVES = 10
PRICE_REL_TOL = 1e-3

# Values the acceptance suite prints for the congested scenario of generator
# seed 0 (C04 price at tau=200, C08/C09 tau*).
REFERENCES = {
    "congested_policy": {"price_at_200": 0.005755, "tau_star_ttt": 220.0,
                         "tau_star_mixed": 225.0},
    "congested_diagnostics": {"price_at_200": 0.005755},
}


@dataclass
class Ledger:
    """Operations of one pass, their failures and the per-stage times."""

    ops: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)   # op label -> reasons
    stage_s: dict = field(default_factory=dict)

    def call(self, label, stage, fn, *args, **kwargs):
        """Time one public call into ``stage`` (None: untimed); a raising
        call is a failed operation and returns None."""
        if label in self.ops:
            raise ValueError(f"duplicate operation label {label!r}")
        self.ops.append(label)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the workload goes on; the failure is counted
            self.expect(label, False, f"raised {type(exc).__name__}: {exc}")
            return None
        finally:
            if stage is not None:
                self.stage_s[stage] = self.stage_s.get(stage, 0.0) + time.perf_counter() - t0

    def expect(self, label, ok, reason) -> bool:
        if not ok:
            self.failures.setdefault(label, []).append(reason)
        return bool(ok)


def scenario_hash(scenario) -> str:
    """sha256 of the canonical scenario text, as the CLI's manifests hash
    a saved scenario file."""
    return hashlib.sha256(scenario_to_text(scenario).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# checks


def _supply(scenario, params) -> float:
    return params.kappa * float(scenario.gammas.sum())


def check_equilibrium(ledger, label, rep, scenario, params, tcs=True, p_fixed=0.0):
    if rep is None:
        return
    x, p = rep.state.x, rep.state.p
    ledger.expect(label, rep.converged, f"not converged after {rep.iterations} "
                  f"iterations: {rep.message}")
    ledger.expect(label, bool(np.all((x >= 0.0) & (x <= 1.0))), "shares outside [0, 1]")
    ledger.expect(label, p >= 0.0, f"price {p} < 0")
    ledger.expect(label, rep.j_final < params.j_goal,
                  f"J={rep.j_final:.3g} >= j_goal={params.j_goal}")
    ledger.expect(label, rep.residual_final < X_TOL,
                  f"residual {rep.residual_final:.3g} >= {X_TOL}")
    if tcs:
        ledger.expect(label, rep.cap_slack >= -1e-9 * _supply(scenario, params),
                      f"cap violated by {-rep.cap_slack:.3g} credits")
        ledger.expect(label, rep.mcc_trace[-1] < MCC_TOL,
                      f"|p*slack| per capita {rep.mcc_trace[-1]:.3g} >= {MCC_TOL}")
    else:
        ledger.expect(label, p == p_fixed, f"frozen price moved to {p}")


def check_sweep_row(ledger, label, row, scenario, params):
    mcc = abs(row.price * row.cap_slack) / float(scenario.gammas.sum())
    ledger.expect(label, row.converged, f"tau={row.tau:g}: not converged")
    ledger.expect(label, 0.0 <= row.car_share <= 1.0,
                  f"tau={row.tau:g}: car share {row.car_share} outside [0, 1]")
    ledger.expect(label, row.price >= 0.0, f"tau={row.tau:g}: price {row.price} < 0")
    ledger.expect(label, row.cap_slack >= -1e-9 * _supply(scenario, params),
                  f"tau={row.tau:g}: cap violated by {-row.cap_slack:.3g} credits")
    ledger.expect(label, mcc < MCC_TOL,
                  f"tau={row.tau:g}: |p*slack| per capita {mcc:.3g} >= {MCC_TOL}")


def check_price(ledger, label, price, references):
    want = references.get("price_at_200")
    if want is not None:
        ledger.expect(label, abs(price / want - 1.0) < PRICE_REL_TOL,
                      f"price at tau=200 is {price:.6g}, reference {want:.6g}")


def objective_value(name, ttt_h, emission_t, params) -> float:
    """The C08 objective of one equilibrium, in EUR."""
    cost = params.alpha * ttt_h * 3600.0
    if name == "mixed":
        cost += params.gamma_emission * params.p_carbon * emission_t
    return cost


# ---------------------------------------------------------------------------
# workloads


def run_citywide(ledger, scenario, params, seed, references):
    label = "equilibrium_solve"
    rep = ledger.call(label, "equilibrium_s", api.equilibrium_solve, scenario, params)
    check_equilibrium(ledger, label, rep, scenario, params)


def run_policy(ledger, scenario, params, seed, references):
    label = "equilibrium_solve[tcs=False]"
    ref = ledger.call(label, "reference_s", api.equilibrium_solve, scenario, params,
                      tcs=False, p_init=0.0)
    check_equilibrium(ledger, label, ref, scenario, params, tcs=False)

    label = "sweep_charges"
    rows = ledger.call(label, "sweep_s", api.sweep_charges, scenario, params, SWEEP_TAUS)
    if rows is not None:
        ledger.expect(label, [r.tau for r in rows] == [float(t) for t in SWEEP_TAUS],
                      "rows do not follow the charge grid")
        for row in rows:
            check_sweep_row(ledger, label, row, scenario, params)
            if row.tau == 200.0:
                check_price(ledger, label, row.price, references)

    for name in ("ttt", "mixed"):
        label = f"optimize_charge[{name}]"
        res = ledger.call(label, "optimize_s", api.optimize_charge, scenario, params,
                          objective=name, lo=OPT_RANGE[0], hi=OPT_RANGE[1])
        if res is None:
            continue
        check_equilibrium(ledger, label, res.report,
                          scenario, replace(params, tau=res.tau_star))
        ledger.expect(label, res.n_solves <= C08_MAX_SOLVES, f"{res.n_solves} solves")
        if ledger.expect(label, rows is not None, "no sweep grid to compare tau* with"):
            best = min(objective_value(name, r.ttt_h, r.emission_t, params) for r in rows)
            gap = (res.final_objective - best) / abs(best)
            ledger.expect(label, gap <= C08_GAP,
                          f"tau*={res.tau_star:g} is {gap:.2%} above the grid optimum")
        want = references.get(f"tau_star_{name}")
        if want is not None:
            ledger.expect(label, res.tau_star == want,
                          f"tau*={res.tau_star:g}, reference {want:g}")


def run_diagnostics(ledger, scenario, params, seed, references):
    label = "uniqueness_check"
    uni = ledger.call(label, "uniqueness_s", api.uniqueness_check, scenario,
                      n_samples=UNIQUENESS_SAMPLES, seed=seed)
    if uni is not None:
        n_pairs = UNIQUENESS_SAMPLES * (UNIQUENESS_SAMPLES - 1) // 2
        ledger.expect(label, uni.all_pairs and uni.n_pairs == n_pairs,
                      f"{uni.n_pairs} of {n_pairs} pairs")
        ledger.expect(label, uni.min_dot > 0.0, f"min dot {uni.min_dot:.3g} <= 0")

    label = "msa_solve"
    msa = ledger.call(label, "msa_s", api.msa_solve, scenario, params,
                      p_fixed=MSA_PRICE, iters=MSA_ITERS)
    # MSA approximates the logit equilibrium at its fixed price
    ref_label = "equilibrium_solve[p=msa]"
    ref = ledger.call(ref_label, None, api.equilibrium_solve, scenario, params,
                      tcs=False, p_init=MSA_PRICE)
    check_equilibrium(ledger, ref_label, ref, scenario, params, tcs=False,
                      p_fixed=MSA_PRICE)
    if msa is not None:
        ledger.expect(label, bool(np.all((msa.x >= 0.0) & (msa.x <= 1.0))),
                      "shares outside [0, 1]")
        if ref is not None:
            gap = float(np.linalg.norm(msa.x - ref.state.x) / np.linalg.norm(ref.state.x))
            ledger.expect(label, gap < C06_GAP,
                          f"relative L2 gap {gap:.3f} to the fixed-price equilibrium")

    binding = []
    for tau in STABILITY_TAUS:
        p_tau = replace(params, tau=float(tau))
        label = f"equilibrium_solve[tau={tau}]"
        rep = ledger.call(label, None, api.equilibrium_solve, scenario, p_tau)
        check_equilibrium(ledger, label, rep, scenario, p_tau)
        if rep is not None and tau == 200:
            check_price(ledger, label, rep.state.p, references)
        if rep is not None and rep.converged and rep.state.p > 0.0:
            binding.append((tau, p_tau, rep.state))
    ledger.expect(label, binding, "no binding equilibrium on the stability grid")
    for tau, p_tau, state in binding:
        label = f"stability_check[tau={tau}]"
        st = ledger.call(label, "stability_s", api.stability_check, scenario, p_tau, state)
        if st is not None:
            ledger.expect(label, st.eig_converged, "eigensolver did not converge")
            ledger.expect(label, st.spectral_abscissa < 0.0,
                          f"spectral abscissa {st.spectral_abscissa:.3g} >= 0")


# Warm-ups: every public call of the workload once on the small preset, so
# lazy imports and BLAS thread start-up are paid in set-up.  The congested
# workloads also solve one equilibrium on their own scenario: without it the
# first pass ran 10-15% slower than the next ones.


def warm_citywide(small, scenario, params):
    api.equilibrium_solve(small, params)


def warm_policy(small, scenario, params):
    api.equilibrium_solve(scenario, params, tcs=False, p_init=0.0)
    api.sweep_charges(small, params, [200.0])
    api.optimize_charge(small, params, objective="ttt", lo=200, hi=201)


def warm_diagnostics(small, scenario, params):
    api.uniqueness_check(small, n_samples=2)
    api.msa_solve(small, params, p_fixed=MSA_PRICE, iters=1)
    api.equilibrium_solve(scenario, params)
    rep = api.equilibrium_solve(small, params)
    api.stability_check(small, params, rep.state)


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    run: object    # (ledger, scenario, params, seed, references) -> None
    warm: object   # (small scenario, workload scenario, params) -> None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("citywide_equilibrium", "citywide", run_citywide, warm_citywide),
        Workload("congested_policy", "congested", run_policy, warm_policy),
        Workload("congested_diagnostics", "congested", run_diagnostics, warm_diagnostics),
    )
}


def generate(workload: Workload, scenario_seed: int = 0, preset: str | None = None):
    """The workload's scenario and the default parameters."""
    spec = api.preset_spec(preset or workload.preset)
    return api.generate_synthetic(scenario_seed, spec), api.TcsParams()


def warm_up(workload: Workload, scenario, params):
    workload.warm(api.generate_synthetic(0, api.preset_spec("small")), scenario, params)


def run_pass(workload: Workload, scenario, params, seed, references) -> tuple[Ledger, float]:
    """One pass of the workload; returns its ledger and wall time."""
    ledger = Ledger()
    t0 = time.perf_counter()
    workload.run(ledger, scenario, params, seed, references)
    return ledger, time.perf_counter() - t0
