"""The package's public names, and the bindings perfbench's tracer replaces.

``perfbench/tracer.py`` traces a layer by rebinding its function in every
module that calls it, and reads each function from ``tcsmfd`` when it is
imported; a name dropped from the package, or a module that stops binding
it, breaks the benchmark's traced runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import tcsmfd
from tcsmfd import analysis, equilibrium, gradients, objectives, qp

from conftest import FALLBACK_TAU, hypercongested_scenario

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_exports_resolve():
    assert len(tcsmfd.__all__) == len(set(tcsmfd.__all__))
    for name in tcsmfd.__all__:
        assert hasattr(tcsmfd, name), name


@pytest.mark.parametrize("module", [tcsmfd, tcsmfd.scenario])
def test_group_record_is_gone(module):
    # a scenario is its four group arrays; no per-group record remains
    assert not hasattr(module, "Group") and "Group" not in module.__all__


@pytest.mark.parametrize("module, name", [
    (equilibrium, "logit_gradient"),
    (equilibrium, "j_value"),
    (equilibrium, "logit_costs"),
    (analysis, "stability_jacobian"),
    (gradients, "grad_speed"),
    (qp, "project_box_halfspace"),
    (gradients.Layout, "identity"),
])
def test_reference_formulas_live_in_the_tests(module, name):
    # the dense forms only the tests read are in tests/reference_formulas.py
    # and tests/reference_gradient.py, not in the library
    assert not hasattr(module, name)


CHARGE_SEARCH_LAYER = ("Aggregates", "compute_aggregates", "ttt_charge_gradient",
                       "emission_charge_gradient", "CapInactiveError")


@pytest.mark.parametrize("name", CHARGE_SEARCH_LAYER)
def test_charge_search_has_one_private_estimate(name):
    # the charge search steers by objectives._charge_derivatives alone; the
    # aggregate layer it replaced is gone from the module and the source
    assert not hasattr(objectives, name)
    src = Path(objectives.__file__).resolve().parent
    for path in src.glob("*.py"):
        assert name not in path.read_text(encoding="utf-8"), path.name


@pytest.fixture
def tracer_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_binding(tracer_module):
    bindings = {(mod, fn.__name__): fn
                for fn, modules, _ in tracer_module.TRACED.values() for mod in modules}
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for (mod, attr), fn in bindings.items():
            assert getattr(mod, attr) is not fn and getattr(mod, attr).__wrapped__ is fn
        # two hypercongested groups fall back to QP steps, so every traced
        # layer of the solve is called
        rep = tcsmfd.equilibrium_solve(hypercongested_scenario(),
                                       tcsmfd.TcsParams(tau=FALLBACK_TAU))
    finally:
        tracer.uninstall()
    for (mod, attr), fn in bindings.items():
        assert getattr(mod, attr) is fn, (mod.__name__, attr)
    summary = tracer.summary()
    assert summary["equilibrium.equilibrium_solve"]["calls"] == 1
    assert summary["equilibrium.build_qp"]["calls"] == len(rep.qp_iterations) >= 1
