"""Demand and network data model.

Traveler group arrays, MFD speed laws, scheme parameters, scenario file I/O and
seeded synthetic scenario generation.  All quantities are SI internally
(seconds, meters, m/s, vehicles, EUR); conversions from presentation units
(EUR/h, km/h) happen once at the boundary.
"""

from __future__ import annotations

import json
import math
import numbers
import types
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "ScenarioError",
    "MfdCurve",
    "Scenario",
    "TcsParams",
    "GeneratorSpec",
    "load_scenario",
    "save_scenario",
    "scenario_to_text",
    "generate_synthetic",
    "preset_spec",
    "PRESETS",
]


class ScenarioError(ValueError):
    """A scenario file or its contents violate the documented schema."""


# ---------------------------------------------------------------------------
# MFD speed laws


_GREENSHIELDS = "greenshields"
_PIECEWISE = "piecewise_linear"
_TABULATED = "tabulated"
_FORMS = (_GREENSHIELDS, _PIECEWISE, _TABULATED)


def _as_pairs(points) -> tuple[tuple[float, float], ...]:
    out = tuple((float(n), float(v)) for n, v in points)
    if not out:
        raise ScenarioError("curve needs at least one (n, v) point")
    if not np.all(np.isfinite(out)):
        raise ScenarioError("curve points must be finite")
    ns = np.array([p[0] for p in out])
    if np.any(np.diff(ns) <= 0):
        raise ScenarioError("accumulation grid must be strictly increasing")
    if out[0][0] != 0.0:
        raise ScenarioError("accumulation grid must start at n = 0")
    vs = np.array([p[1] for p in out])
    if np.any(np.diff(vs) > 0):
        raise ScenarioError("speed values must be non-increasing in n")
    return out


def _json_number(value, what: str, integer: bool = False) -> float:
    """A finite JSON number (int or float, not bool) as a float, or a
    ScenarioError naming ``what``; ``integer`` also rejects a fraction."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:   # an int beyond the float range
            x = math.inf
        if math.isfinite(x) and (x.is_integer() or not integer):
            return x
    kind = "an integer" if integer else "a finite number"
    raise ScenarioError(f"{what} must be {kind}, got {value!r}")


def _require_count(value, what: str, error=ValueError) -> None:
    """Raise ``error`` naming ``what`` unless ``value`` is a Python or numpy
    integer; a bool is not one."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise error(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class MfdCurve:
    """Network mean speed as a function of car accumulation.

    Three forms are supported:

    * ``greenshields``: linear decrease, ``params = (v_free, n_jam)``;
    * ``piecewise_linear``: interpolation through ``params`` breakpoints,
      held flat beyond the last one;
    * ``tabulated``: monotone cubic interpolation through ``params`` samples,
      held flat outside the sampled range.

    Every form is clamped from below by ``v_floor > 0`` so the network never
    freezes entirely; the derivative is reported as exactly 0 wherever the
    floor is active.
    """

    form: str
    params: tuple
    v_floor: float = 1.0

    def __post_init__(self):
        if self.form not in _FORMS:
            raise ScenarioError(f"unknown MFD form {self.form!r}")
        if not (self.v_floor > 0.0) or not math.isfinite(self.v_floor):
            raise ScenarioError("v_floor must be finite and > 0")
        if self.form == _GREENSHIELDS:
            v_free, n_jam = self.params
            if not (0.0 < v_free < math.inf and 0.0 < n_jam < math.inf):
                raise ScenarioError("greenshields needs finite v_free > 0 and n_jam > 0")
            return
        object.__setattr__(self, "params", _as_pairs(self.params))
        if self.form == _TABULATED and len(self.params) < 2:
            raise ScenarioError("tabulated form needs at least two samples")

    def __reduce__(self):
        # rebuild from the fields: the cached evaluators below include a
        # closure, which does not pickle
        return (type(self), (self.form, self.params, self.v_floor))

    # -- constructors ------------------------------------------------------

    @classmethod
    def greenshields(cls, v_free: float, n_jam: float, v_floor: float = 1.0) -> "MfdCurve":
        return cls(_GREENSHIELDS, (float(v_free), float(n_jam)), float(v_floor))

    @classmethod
    def piecewise_linear(cls, breakpoints, v_floor: float = 1.0) -> "MfdCurve":
        return cls(_PIECEWISE, breakpoints, float(v_floor))

    @classmethod
    def tabulated(cls, samples, v_floor: float = 1.0) -> "MfdCurve":
        return cls(_TABULATED, samples, float(v_floor))

    @classmethod
    def constant(cls, v: float) -> "MfdCurve":
        """Flat curve: speed v at every accumulation (handy for exact checks)."""
        return cls.piecewise_linear([(0.0, float(v))], v_floor=min(1.0, float(v)))

    # -- evaluation --------------------------------------------------------

    @cached_property
    def _grid(self):
        ns = np.array([p[0] for p in self.params], dtype=float)
        vs = np.array([p[1] for p in self.params], dtype=float)
        return ns, vs

    @cached_property
    def _pchip(self):
        from scipy.interpolate import PchipInterpolator

        ns, vs = self._grid
        return PchipInterpolator(ns, vs, extrapolate=False)

    @cached_property
    def _pchip_d(self):
        return self._pchip.derivative()

    def _raw(self, n: np.ndarray) -> np.ndarray:
        if self.form == _GREENSHIELDS:
            v_free, n_jam = self.params
            return v_free * (1.0 - n / n_jam)
        ns, vs = self._grid
        if self.form == _PIECEWISE:
            return np.interp(n, ns, vs)
        return np.asarray(self._pchip(np.clip(n, ns[0], ns[-1])), dtype=float)

    def _raw_d(self, n: np.ndarray) -> np.ndarray:
        if self.form == _GREENSHIELDS:
            v_free, n_jam = self.params
            return np.full_like(n, -v_free / n_jam)
        ns, vs = self._grid
        if self.form == _PIECEWISE:
            if len(ns) == 1:
                return np.zeros_like(n)
            slopes = np.diff(vs) / np.diff(ns)
            seg = np.clip(np.searchsorted(ns, n, side="right") - 1, 0, len(slopes) - 1)
            out = slopes[seg]
            return np.where(n >= ns[-1], 0.0, out)
        out = np.asarray(self._pchip_d(np.clip(n, ns[0], ns[-1])), dtype=float)
        return np.where((n <= ns[0]) | (n >= ns[-1]), 0.0, out)

    @cached_property
    def _scalar_speed(self):
        """V(n) of a float n that is finite and >= 0, unchecked and bit for
        bit ``speed``'s value, bound once for loops whose accumulation is
        valid by construction (``simulate``)."""
        v_floor = self.v_floor
        if self.form == _GREENSHIELDS:
            # _raw's formula in float arithmetic, which rounds as numpy's
            v_free, n_jam = self.params

            def speed(n):
                v = v_free * (1.0 - n / n_jam)
                return v if v >= v_floor else v_floor  # max() without its call
            return speed
        raw = self._raw
        return lambda n: max(float(raw(n)), v_floor)

    def speed(self, n):
        """Mean network speed V(n), m/s.  n may be a scalar or an array.

        A scalar gives a float."""
        arr = np.asarray(n, dtype=float)
        if np.any(arr < 0) or np.any(~np.isfinite(arr)):
            raise ValueError("accumulation must be finite and >= 0")
        out = self._speed(arr)
        return float(out) if np.isscalar(n) or arr.ndim == 0 else out

    def _speed(self, n):
        """``speed``'s values at an n that is finite and >= 0, unchecked, for
        loops whose accumulation is valid by construction
        (``simulate_car_times``)."""
        return np.maximum(self._raw(n), self.v_floor)

    def dspeed(self, n):
        """dV/dn, exactly 0 wherever the v_floor clamp is active."""
        arr = np.asarray(n, dtype=float)
        if np.any(arr < 0) or np.any(~np.isfinite(arr)):
            raise ValueError("accumulation must be finite and >= 0")
        raw = self._raw(arr)
        out = np.where(raw > self.v_floor, self._raw_d(arr), 0.0)
        return float(out) if np.isscalar(n) or arr.ndim == 0 else out

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        d: dict = {"form": self.form}
        if self.form == _GREENSHIELDS:
            d["v_free_ms"] = self.params[0]
            d["n_jam_veh"] = self.params[1]
        elif self.form == _PIECEWISE:
            d["breakpoints_n_v"] = [list(p) for p in self.params]
        else:
            d["samples_n_v"] = [list(p) for p in self.params]
        d["v_floor_ms"] = self.v_floor
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "MfdCurve":
        if not isinstance(d, dict):
            raise ScenarioError("mfd must be an object")
        try:
            form = d["form"]
        except KeyError:
            raise ScenarioError("mfd block is missing the 'form' tag") from None
        floor = _json_number(d.get("v_floor_ms", 1.0), "mfd 'v_floor_ms'")
        if form == _GREENSHIELDS:
            try:
                v_free, n_jam = d["v_free_ms"], d["n_jam_veh"]
            except KeyError as exc:
                raise ScenarioError(f"greenshields mfd is missing {exc}") from None
            return cls.greenshields(_json_number(v_free, "mfd 'v_free_ms'"),
                                    _json_number(n_jam, "mfd 'n_jam_veh'"), floor)
        if form == _PIECEWISE:
            key, make = "breakpoints_n_v", cls.piecewise_linear
        elif form == _TABULATED:
            key, make = "samples_n_v", cls.tabulated
        else:
            raise ScenarioError(f"unknown MFD form {form!r}")
        if key not in d:
            raise ScenarioError(f"{form} mfd needs '{key}'")
        try:
            pairs = [(n, v) for n, v in d[key]]
        except (TypeError, ValueError):
            raise ScenarioError(f"mfd '{key}' must be a list of [n, v] number pairs") from None
        where = f"mfd '{key}'"
        return make([(_json_number(n, f"{where}[{j}]"), _json_number(v, f"{where}[{j}]"))
                     for j, (n, v) in enumerate(pairs)], floor)


# ---------------------------------------------------------------------------
# Scenarios


# A scenario's per-group arrays and the key of each in a file's group records
_COLUMNS = (("gammas", "gamma"), ("departs", "depart_s"),
            ("trip_lens", "trip_len_m"), ("pt_times", "pt_time_s"))
# what each array's values must be, in the order a group's values are checked
_RULES = (("gammas", "gamma", "> 0", np.greater),
          ("trip_lens", "trip_len", "> 0", np.greater),
          ("pt_times", "pt_time", "> 0", np.greater),
          ("departs", "depart", ">= 0", np.greater_equal))


@dataclass(frozen=True, eq=False)
class Scenario:
    """Immutable traveler groups plus the network MFD.

    Group i is ``gammas[i]`` identical travelers (a count) who depart at
    ``departs[i]`` (s) on a car trip of ``trip_lens[i]`` (m) or a public-
    transport trip of ``pt_times[i]`` (s).  Each array is the scenario's own
    read-only float copy of what it was given, and all four are one-
    dimensional of the same length N >= 1; swap the curve with
    ``dataclasses.replace(scenario, mfd=...)``.  ``meta`` is a read-only
    view of a copy of the labels it was given.  A copy or a pickle rebuilds
    the scenario through ``__init__``, so it keeps these rules.  ``eq=False``:
    a generated ``__eq__`` would compare the arrays, whose truth value is
    ambiguous.
    """

    gammas: np.ndarray
    departs: np.ndarray
    trip_lens: np.ndarray
    pt_times: np.ndarray
    mfd: MfdCurve
    meta: Mapping = field(default_factory=dict)

    def __post_init__(self):
        for attr, _ in _COLUMNS:
            col = np.array(getattr(self, attr), dtype=float)
            col.setflags(write=False)
            object.__setattr__(self, attr, col)
        object.__setattr__(self, "meta", types.MappingProxyType(dict(self.meta)))
        shapes = {getattr(self, attr).shape for attr, _ in _COLUMNS}
        if len(shapes) != 1 or len(shapes.pop()) != 1:
            raise ScenarioError("group arrays must be one-dimensional and of equal length")
        if self.n == 0:
            raise ScenarioError("scenario has no groups")
        ok = np.array([np.isfinite(getattr(self, attr)) & test(getattr(self, attr), 0.0)
                       for attr, _, _, test in _RULES])
        if not ok.all():
            i = int(np.flatnonzero(~ok.all(axis=0))[0])
            _, name, rule, _ = _RULES[int(np.argmin(ok[:, i]))]
            raise ScenarioError(f"group {i}: {name} must be finite and {rule}")

    def __reduce__(self):
        # a mappingproxy does not pickle, and a bare copy would skip
        # __post_init__ and come back with writable arrays
        return (type(self), (self.gammas, self.departs, self.trip_lens, self.pt_times,
                             self.mfd, dict(self.meta)))

    @property
    def n(self) -> int:
        return len(self.gammas)

    @property
    def total_travelers(self) -> float:
        return float(self.gammas.sum())

    @cached_property
    def _entry_plan(self):
        """What ``simulate`` reads of the scenario on every call, bound once:
        the group ids in entry order (by departure, then id), their
        departures followed by +inf, the trip lengths, all as tuples of
        Python numbers, and the sanity horizon.  The arrays are read-only,
        and a copy, a pickle or ``dataclasses.replace`` rebuilds through
        ``__init__``, so this cannot go stale."""
        order = np.argsort(self.departs, kind="stable")
        horizon = float(self.departs.max()) + 10.0 * float(self.trip_lens.max() / self.mfd.v_floor)
        return (tuple(order.tolist()), (*self.departs[order].tolist(), math.inf),
                tuple(self.trip_lens.tolist()), horizon)


# ---------------------------------------------------------------------------
# Scheme parameters


@dataclass(frozen=True)
class TcsParams:
    """Credit scheme and solver parameters.

    ``alpha`` is the value of time in EUR per second (the CLI takes EUR/h and
    converts once).  ``kappa`` is the credit allowance per traveler, ``tau``
    the credit charge of a car trip.  ``kappa <= tau`` is required; equality
    makes the scheme inert (the cap can never bind) and is allowed so that
    degenerate runs are expressible.
    """

    alpha: float = 10.8 / 3600.0
    theta: float = 1.0
    kappa: float = 100.0
    tau: float = 200.0
    eta: float = 1.0
    j_goal: float = 1e-3
    max_iters: int = 50
    p0: float = 0.01
    gamma_emission: float = 50.0
    p_carbon: float = 20.0
    cap_constraint: str = "gamma-weighted"

    def __post_init__(self):
        for name in ("alpha", "theta", "eta", "j_goal"):
            if not (getattr(self, name) > 0):
                raise ScenarioError(f"{name} must be > 0")
        if not (0 <= self.kappa <= self.tau):
            raise ScenarioError("need 0 <= kappa <= tau (tau < kappa leaves no feasible car user)")
        if self.tau <= 0:
            raise ScenarioError("tau must be > 0")
        for name in ("p0", "gamma_emission", "p_carbon"):
            if not (getattr(self, name) >= 0):
                raise ScenarioError(f"{name} must be >= 0")
        # NaN and -inf fail the checks above; +inf passes them, and theta =
        # inf, for one, starts the clearing-price bracket at 1/(theta tau) = 0,
        # which doubling never widens
        for name in ("alpha", "theta", "eta", "j_goal", "kappa", "tau",
                     "p0", "gamma_emission", "p_carbon"):
            if math.isinf(getattr(self, name)):
                raise ScenarioError(f"{name} must be finite")
        _require_count(self.max_iters, "max_iters", ScenarioError)
        if self.max_iters < 1:
            raise ScenarioError("max_iters must be >= 1")
        if self.cap_constraint not in ("gamma-weighted", "printed"):
            raise ScenarioError("cap_constraint must be 'gamma-weighted' or 'printed'")

    def cap_weights(self, gammas) -> np.ndarray:
        """Weights c of the credit cap tau * c'x <= kappa * sum(c).

        c is the travelers per group, or one per group under the
        ``printed`` variant (which counts groups, not travelers).
        """
        gammas = np.asarray(gammas, dtype=float)
        if self.cap_constraint == "printed":
            return np.ones(len(gammas))
        return gammas


# ---------------------------------------------------------------------------
# Scenario file I/O
#
# Single JSON document, UTF-8, canonical field order. Top-level keys:
#   mfd    form tag + numeric parameters + v_floor_ms
#   groups array of {id, gamma, depart_s, trip_len_m, pt_time_s}
#   meta   free-form labels


def scenario_to_text(scenario: Scenario) -> str:
    """Canonical serialization, stable byte for byte for a given scenario:
    group i is written as the record of id i, its values read off the
    scenario's arrays."""
    cols = [getattr(scenario, attr).tolist() for attr, _ in _COLUMNS]
    doc = {
        "mfd": scenario.mfd.to_dict(),
        "groups": [{"id": i, **{key: col[i] for (_, key), col in zip(_COLUMNS, cols)}}
                   for i in range(scenario.n)],
        "meta": {k: scenario.meta[k] for k in sorted(scenario.meta)},
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def save_scenario(scenario: Scenario, path) -> None:
    Path(path).write_text(scenario_to_text(scenario), encoding="utf-8")


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file.

    Every value of a group record and of the ``mfd`` block must be a finite
    JSON number; the ids are integers 0..N-1, each once, in any order, and
    the scenario's group i is the record of id i.  Raises ScenarioError
    naming the offending key or group on any schema or invariant violation.
    """
    raw = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    for key in ("mfd", "groups"):
        if key not in doc:
            raise ScenarioError(f"scenario is missing top-level key '{key}'")
    mfd = MfdCurve.from_dict(doc["mfd"])
    if not isinstance(doc["groups"], list):
        raise ScenarioError("groups must be a list")
    keys = ["id"] + [key for _, key in _COLUMNS]
    ids, rows = [], []
    for i, rec in enumerate(doc["groups"]):
        if not isinstance(rec, dict):
            raise ScenarioError(f"groups[{i}] is not an object")
        missing = [k for k in keys if k not in rec]
        if missing:
            raise ScenarioError(f"groups[{i}] is missing {missing}")
        extra = [k for k in rec if k not in keys]
        if extra:
            raise ScenarioError(f"groups[{i}] has unknown keys {extra}")
        ids.append(_json_number(rec["id"], f"groups[{i}]: id", integer=True))
        rows.append([_json_number(rec[key], f"groups[{i}]: {key}") for _, key in _COLUMNS])
    if sorted(ids) != list(range(len(ids))):
        raise ScenarioError("group ids must be unique and contiguous from 0")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ScenarioError("meta must be an object")
    table = np.array(rows, dtype=float).reshape(len(rows), len(_COLUMNS))[np.argsort(ids)]
    return Scenario(**{attr: table[:, j] for j, (attr, _) in enumerate(_COLUMNS)},
                    mfd=mfd, meta=meta)


# ---------------------------------------------------------------------------
# Synthetic scenario generation


@dataclass(frozen=True)
class GeneratorSpec:
    """Knobs for the seeded synthetic demand generator.

    Departures are uniform inside ``n_subwindows`` equal slices of
    ``depart_window``.  Groups belong to OD classes; ``boundary`` classes get
    a fixed slow PT speed (``pt_speed_boundary``, long feeder-type trips)
    while the remaining classes get PT times proportional to the free-flow
    car time with per-class ratios spanning ``pt_ratio_range`` -- PT is
    competitive on some classes and not on others.
    """

    n_groups: int
    total_travelers: int
    max_group_size: int
    depart_window: tuple[float, float]
    n_subwindows: int
    trip_len_range: tuple[float, float]
    n_od_classes: int = 8
    frac_boundary: float = 0.35
    pt_speed_boundary: float = 3.0
    pt_ratio_range: tuple[float, float] = (0.8, 1.6)
    v_free: float = 15.0
    n_jam: float = 10000.0
    v_floor: float = 1.0

    def __post_init__(self):
        if self.n_groups < 1:
            raise ScenarioError("n_groups must be >= 1")
        if not (self.n_groups <= self.total_travelers <= self.n_groups * self.max_group_size):
            raise ScenarioError("total_travelers must fit in [n_groups, n_groups*max_group_size]")
        if not (self.depart_window[0] < self.depart_window[1]):
            raise ScenarioError("depart_window is empty")
        if not (0 < self.trip_len_range[0] < self.trip_len_range[1]):
            raise ScenarioError("trip_len_range is empty or non-positive")
        if self.n_subwindows < 1 or self.n_od_classes < 1:
            raise ScenarioError("n_subwindows and n_od_classes must be >= 1")
        if not (0.0 <= self.frac_boundary <= 1.0):
            raise ScenarioError("frac_boundary must be in [0, 1]")
        if not (self.pt_speed_boundary > 0):
            raise ScenarioError("pt_speed_boundary must be > 0")
        if not (0 < self.pt_ratio_range[0] <= self.pt_ratio_range[1]):
            raise ScenarioError("pt_ratio_range is empty or non-positive")


def _partition_travelers(total: int, n: int, max_size: int, rng) -> np.ndarray:
    # heterogeneous integer sizes, each in [1, max_size], summing exactly to total
    w = rng.uniform(0.5, 1.5, size=n)
    sizes = np.clip(np.floor(total * w / w.sum()).astype(int), 1, max_size)
    order = rng.permutation(n)
    diff = total - int(sizes.sum())
    guard = 0
    i = 0
    while diff != 0:
        j = order[i % n]
        if diff > 0 and sizes[j] < max_size:
            sizes[j] += 1
            diff -= 1
        elif diff < 0 and sizes[j] > 1:
            sizes[j] -= 1
            diff += 1
        i += 1
        guard += 1
        if guard > 10 * (abs(total) + n):
            raise ScenarioError("could not partition travelers under max_group_size")
    return sizes.astype(float)


def generate_synthetic(seed: int, spec: GeneratorSpec) -> Scenario:
    """Deterministic synthetic scenario: a pure function of (seed, spec)."""
    rng = np.random.default_rng(seed)
    n = spec.n_groups
    gammas = _partition_travelers(spec.total_travelers, n, spec.max_group_size, rng)

    n_boundary = int(round(spec.frac_boundary * spec.n_od_classes))
    classes = rng.integers(0, spec.n_od_classes, size=n)
    sub = rng.integers(0, spec.n_subwindows, size=n)
    t0, t1 = spec.depart_window
    width = (t1 - t0) / spec.n_subwindows
    departs = t0 + (sub + rng.uniform(0.0, 1.0, size=n)) * width

    lo, hi = spec.trip_len_range
    mid = 0.5 * (lo + hi)
    is_boundary = classes < n_boundary
    # boundary trips sit in the upper half of the length range, urban in the lower part
    trip_lens = np.where(
        is_boundary,
        rng.uniform(mid, hi, size=n),
        rng.uniform(lo, lo + 0.6 * (hi - lo), size=n),
    )

    n_urban = spec.n_od_classes - n_boundary
    rlo, rhi = spec.pt_ratio_range
    if n_urban > 1:
        ratios = np.linspace(rlo, rhi, n_urban)
    else:
        ratios = np.array([0.5 * (rlo + rhi)])
    pt_times = np.where(
        is_boundary,
        trip_lens / spec.pt_speed_boundary,
        ratios[np.clip(classes - n_boundary, 0, max(n_urban - 1, 0))]
        * trip_lens
        / spec.v_free,
    )

    mfd = MfdCurve.greenshields(spec.v_free, spec.n_jam, spec.v_floor)
    meta = {
        "generator_seed": seed,
        "n_od_classes": spec.n_od_classes,
        "n_boundary_classes": n_boundary,
        "total_travelers": float(gammas.sum()),
    }
    return Scenario(gammas=gammas, departs=departs, trip_lens=trip_lens, pt_times=pt_times,
                    mfd=mfd, meta=meta)


# Named presets.  "congested" is the workhorse used by the acceptance suite:
# demand is sized so the no-scheme equilibrium is heavily congested and uses
# more than kappa/tau of the credits, so the default cap binds.
PRESETS: dict[str, GeneratorSpec] = {
    "small": GeneratorSpec(
        n_groups=40,
        total_travelers=6000,
        max_group_size=250,
        depart_window=(0.0, 3600.0),
        n_subwindows=4,
        trip_len_range=(1500.0, 7000.0),
        n_od_classes=6,
        frac_boundary=0.34,
        v_free=15.0,
        n_jam=4000.0,
    ),
    "congested": GeneratorSpec(
        n_groups=216,
        total_travelers=43200,
        max_group_size=250,
        depart_window=(0.0, 10800.0),
        n_subwindows=12,
        trip_len_range=(1500.0, 9000.0),
        n_od_classes=8,
        frac_boundary=0.375,
        pt_ratio_range=(0.8, 1.6),
        v_free=15.0,
        n_jam=5000.0,
    ),
    "citywide": GeneratorSpec(
        n_groups=2163,
        total_travelers=384200,
        max_group_size=250,
        depart_window=(0.0, 10800.0),
        n_subwindows=12,
        trip_len_range=(1500.0, 12000.0),
        n_od_classes=10,
        frac_boundary=0.4,
        v_free=15.0,
        n_jam=60000.0,
    ),
}


def preset_spec(name: str) -> GeneratorSpec:
    try:
        return PRESETS[name]
    except KeyError:
        raise ScenarioError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
