#!/usr/bin/env python3
"""Seeded probes of small equilibrium solves, for a change to the solver.

Runs two probes of cold ``equilibrium_solve`` calls, with the draws that
the tests share (``tests/conftest.py``):

* the first 2 000 ``probe_draw``s: 1 to 8 groups, congestion up to 1.8,
  either cap variant, the scheme on or off at a fixed price;
* the first 3 000 ``two_group_draw``s: two hypercongested groups at
  charges from 105 to 220.

For each probe it prints the set of draws that ran to ``max_iters`` and the
total of iterations over all draws, so a solver change can report both.
Exits 1 if a draw is flagged that the known sets (``PROBE_UNCONVERGED`` and
``TWO_GROUP_UNCONVERGED``) do not hold; a known draw that now converges
passes.  About 7 s on 2 CPUs.

    python3 scripts/probe.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import (PROBE_UNCONVERGED, TWO_GROUP_UNCONVERGED,  # noqa: E402
                      probe_draw, two_group_draw)
from tcsmfd import equilibrium_solve  # noqa: E402

PROBE_DRAWS = 2000
TWO_GROUP_DRAWS = 3000


def run(name, draws, solve, known) -> bool:
    """Solve every draw; print the flagged set and the iteration total.
    True when no draw outside ``known`` is flagged."""
    flagged = set()
    iterations = 0
    for i in range(draws):
        rep = solve(i)
        iterations += rep.iterations
        if not rep.converged:
            flagged.add(i)
    new = sorted(flagged - known)
    print(f"{name}: {draws} draws, flagged {sorted(flagged)}, {iterations} iterations"
          + (f", NEW {new}" if new else ""), flush=True)
    return not new


def main() -> int:
    def probe(i):
        scenario, params, tcs, p_init = probe_draw(i)
        return equilibrium_solve(scenario, params, tcs=tcs, p_init=p_init)

    ok = run("probe_draw", PROBE_DRAWS, probe, PROBE_UNCONVERGED)
    ok &= run("two_group_draw", TWO_GROUP_DRAWS, lambda i: equilibrium_solve(*two_group_draw(i)),
              TWO_GROUP_UNCONVERGED)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
