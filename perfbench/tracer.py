"""Outside-in span tracer for the tcsmfd layers.

The package's modules import each other's functions by name
(``from .simulator import simulate``), so a layer is traced by replacing the
name in every module that calls it, not only in the module that defines it.
``Tracer.install`` does that for the functions in ``TRACED`` and
``Tracer.uninstall`` puts the originals back.  Spans stay in memory until the
run ends; each keeps its parent link and the counts taken from the object the
call returned (never the object itself, which can hold large arrays).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field

import tcsmfd
import tcsmfd.analysis
import tcsmfd.equilibrium
import tcsmfd.objectives


def _qp_counts(sol):
    return {"iterations": sol.iterations, "converged": int(sol.converged)}


def _equilibrium_counts(rep):
    return {"outer_iterations": rep.iterations, "converged": int(rep.converged)}


def _sim_counts(sim):
    return {"events": sim.n_events}


def _gradient_counts(gm):
    # bytes of the arrays the call computed and returned, from their sizes
    return {"bytes_computed": gm.dT.nbytes + gm.event_time_grads.nbytes
            + gm.event_speed_grads.nbytes}


def _eig_counts(res):
    return {"converged": int(res.converged)}


def _optimize_counts(res):
    return {"n_solves": res.n_solves}


# span name -> (original function, modules whose binding is replaced, counts)
TRACED = {
    "scenario.generate_synthetic": (tcsmfd.generate_synthetic, (tcsmfd,), None),
    "simulator.simulate": (
        tcsmfd.simulate,
        (tcsmfd, tcsmfd.equilibrium, tcsmfd.objectives, tcsmfd.analysis),
        _sim_counts,
    ),
    "gradients.travel_time_gradient": (
        tcsmfd.travel_time_gradient,
        (tcsmfd, tcsmfd.equilibrium, tcsmfd.analysis),
        _gradient_counts,
    ),
    "equilibrium.build_qp": (tcsmfd.build_qp, (tcsmfd, tcsmfd.equilibrium), None),
    "qp.solve_qp": (tcsmfd.solve_qp, (tcsmfd, tcsmfd.equilibrium), _qp_counts),
    "equilibrium.equilibrium_solve": (
        tcsmfd.equilibrium_solve, (tcsmfd, tcsmfd.objectives), _equilibrium_counts,
    ),
    "equilibrium.msa_solve": (tcsmfd.msa_solve, (tcsmfd,), None),
    "objectives.sweep_charges": (tcsmfd.sweep_charges, (tcsmfd,), None),
    "objectives.optimize_charge": (tcsmfd.optimize_charge, (tcsmfd,), _optimize_counts),
    "analysis.uniqueness_check": (tcsmfd.uniqueness_check, (tcsmfd,), None),
    "analysis.stability_check": (tcsmfd.stability_check, (tcsmfd,), None),
    "eig.eig_values": (tcsmfd.eig_values, (tcsmfd, tcsmfd.analysis), _eig_counts),
}


@dataclass
class Span:
    name: str
    parent: int          # index of the enclosing span, -1 for a root
    start: float
    end: float = 0.0
    child_s: float = 0.0  # summed durations of the direct children
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        # calls are sequential, so the children cover exactly child_s
        return self.duration - self.child_s


class Tracer:
    """Records one span per call of a traced function while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.bookkeeping_s = 0.0   # time spent in the wrappers, outside the calls
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = time.perf_counter()
            parent = self._open[-1] if self._open else -1
            span = Span(name, parent, time.perf_counter())
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                if parent >= 0:
                    self.spans[parent].child_s += span.duration
            if counts is not None:
                span.counts = counts(out)
            self.bookkeeping_s += (span.start - t_in) + (time.perf_counter() - span.end)
            return out

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, (fn, modules, counts) in TRACED.items():
            wrapper = self._wrap(name, fn, counts)
            attr = fn.__name__
            for mod in modules:
                if getattr(mod, attr) is not fn:
                    raise RuntimeError(f"{mod.__name__}.{attr} is not the function to trace")
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self) -> dict:
        """Per span name: calls, busy (total duration), self time and the
        summed counts."""
        out: dict = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            row = out[s.name]
            row["calls"] += 1
            row["busy_s"] += s.duration
            row["self_s"] += s.self_s
            for k, v in s.counts.items():
                row[k] += v
        return {name: dict(row) for name, row in out.items()}

    def root_s(self) -> float:
        """Summed duration of the root spans, which equals the summed self
        time of all spans."""
        return sum(s.duration for s in self.spans if s.parent < 0)
