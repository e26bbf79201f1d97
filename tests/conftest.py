import numpy as np
import pytest

from tcsmfd import GeneratorSpec, MfdCurve, Scenario, generate_synthetic, simulate

# verdict lines collected by the acceptance suite; printed after the run so
# they survive pytest's fd-level output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def make_scenario(groups, mfd=None):
    """Scenario from (gamma, depart, trip_len, pt_time) tuples."""
    if mfd is None:
        mfd = MfdCurve.greenshields(10.0, 100.0)
    gammas, departs, trip_lens, pt_times = np.array(groups, dtype=float).T
    return Scenario(gammas=gammas, departs=departs, trip_lens=trip_lens, pt_times=pt_times,
                    mfd=mfd, meta={})


def three_group_scenario():
    # entry, entry, exit, entry, exit, exit: exercises every gradient case
    return make_scenario(
        [
            (20.0, 0.0, 600.0, 300.0),
            (30.0, 50.0, 400.0, 500.0),
            (10.0, 90.0, 300.0, 450.0),
        ]
    )


def small_random_scenario(seed, n_groups=8, congestion=0.6):
    spec = GeneratorSpec(
        n_groups=n_groups,
        total_travelers=int(150 * n_groups),
        max_group_size=400,
        depart_window=(0.0, 300.0 * n_groups),
        n_subwindows=max(2, n_groups // 2),
        trip_len_range=(1500.0, 6000.0),
        n_od_classes=min(6, max(2, n_groups // 2)),
        n_jam=150 * n_groups / congestion,
    )
    return generate_synthetic(seed, spec)


# two hypercongested groups, and a charge at which their cap is slack and
# the first substitution step fails at every damping, so that the solve
# falls back to QP steps from its first iterate
def hypercongested_scenario():
    return small_random_scenario(0, n_groups=2, congestion=1.726)


FALLBACK_TAU = 133.1

# two groups entering at the same instant, hypercongested enough that a
# solve without the scheme falls back to QP steps
TIED_GROUPS = [(80.0, 0.0, 500.0, 400.0), (60.0, 0.0, 600.0, 1000.0)]


def fd_gradient(scenario, x, h=1e-5):
    """Central-difference travel time Jacobian.

    Returns (fd, valid) where valid[j] is False when the +/-h perturbation
    of share j changes the event order; travel times are only piecewise
    smooth and the derivative comparison is meaningless across a kink.
    """
    sim0 = simulate(scenario, x)
    kinds0 = sim0.kinds.tolist()
    groups0 = sim0.event_groups.tolist()
    n = scenario.n
    fd = np.zeros((n, n))
    valid = np.ones(n, dtype=bool)
    for j in range(n):
        xp = x.copy()
        xm = x.copy()
        xp[j] = x[j] + h
        xm[j] = x[j] - h
        sp = simulate(scenario, xp)
        sm = simulate(scenario, xm)
        if (
            sp.kinds.tolist() != kinds0
            or sm.kinds.tolist() != kinds0
            or sp.event_groups.tolist() != groups0
            or sm.event_groups.tolist() != groups0
        ):
            valid[j] = False
            continue
        fd[:, j] = (sp.car_times - sm.car_times) / (2.0 * h)
    return fd, valid


@pytest.fixture(scope="session")
def small_scenario():
    return small_random_scenario(0)
