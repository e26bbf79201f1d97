"""The solver's import path is numpy-only.

Each case runs in a fresh interpreter, so that modules another test imported
into this process do not count: the package's public calls and the CLI's
start-up must load no ``scipy`` module, and the tabulated MFD loads only
``scipy.interpolate``, lazily, when it is first evaluated.  The uniqueness
check, called or run from the command line, loads no ``numpy.ma`` either,
where numpy does not import it itself (numpy >= 2).
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

REPORT = """
import json
print(json.dumps(sorted(m for m in sys.modules if m == {0!r} or m.startswith({0!r} + "."))))
"""


def modules_after(code: str, package: str) -> list[str]:
    """``package`` and its submodules, those loaded once ``code`` has run in
    a fresh process."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c",
                           textwrap.dedent(code) + REPORT.format(package)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def scipy_modules_after(code: str) -> list[str]:
    """The scipy modules loaded once ``code`` has run in a fresh process."""
    return modules_after(code, "scipy")


def test_public_calls_load_no_scipy():
    assert scipy_modules_after("""
        import sys
        from tcsmfd import (
            TcsParams, equilibrium_solve, generate_synthetic, msa_solve,
            optimize_charge, preset_spec, stability_check, sweep_charges,
            uniqueness_check,
        )

        sc = generate_synthetic(0, preset_spec("small"))
        params = TcsParams()
        eq = equilibrium_solve(sc, params)
        assert eq.state.p > 0
        sweep_charges(sc, params, [150, 200, 250])
        optimize_charge(sc, params, lo=150, hi=250)
        msa_solve(sc, params, eq.state.p, iters=5)
        uniqueness_check(sc, n_samples=10)
        stability_check(sc, params, eq.state)
    """) == []


def test_cli_start_up_loads_no_scipy():
    assert scipy_modules_after("""
        import runpy, sys

        sys.argv = ["tcsmfd", "--help"]
        try:
            runpy.run_module("tcsmfd", run_name="__main__")  # python -m tcsmfd --help
        except SystemExit as exc:
            assert exc.code == 0
    """) == []


def test_tabulated_mfd_loads_interpolate_lazily():
    loaded = scipy_modules_after("""
        import sys
        from dataclasses import replace
        from tcsmfd import (
            MfdCurve, TcsParams, equilibrium_solve, generate_synthetic, preset_spec,
        )

        sc = generate_synthetic(0, preset_spec("small"))
        mfd = MfdCurve.tabulated([(0.0, 15.0), (1000.0, 11.0), (2500.0, 5.0), (4000.0, 1.0)],
                                 v_floor=1.0)
        assert not any(m.startswith("scipy") for m in sys.modules)
        assert equilibrium_solve(replace(sc, mfd=mfd), TcsParams()).converged
    """)
    assert "scipy.interpolate" in loaded


def skip_if_numpy_loads_numpy_ma():
    # numpy 1.x imports numpy.ma with numpy itself; only numpy >= 2 loads it
    # lazily, so only there can a call be seen to leave it unloaded
    if modules_after("import sys, numpy", "numpy.ma"):
        pytest.skip("this numpy imports numpy.ma with numpy itself")


def test_uniqueness_check_loads_no_numpy_ma():
    # its percentiles come without np.percentile, whose np.unique call
    # imports numpy.ma
    skip_if_numpy_loads_numpy_ma()
    assert modules_after("""
        import sys
        from tcsmfd import generate_synthetic, preset_spec, uniqueness_check

        uniqueness_check(generate_synthetic(0, preset_spec("small")), n_samples=30)
        uniqueness_check(generate_synthetic(0, preset_spec("small")), n_samples=30,
                         max_pairs=100)
    """, "numpy.ma") == []


def test_cli_uniqueness_loads_no_numpy_ma(tmp_path):
    skip_if_numpy_loads_numpy_ma()
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-m", "tcsmfd", "generate", "--preset", "small",
                    "-o", str(tmp_path / "scn")], check=True, capture_output=True, env=env)
    scenario, out = tmp_path / "scn" / "scenario.json", tmp_path / "uniqueness"
    assert modules_after(f"""
        import runpy, sys

        # python -m tcsmfd uniqueness --scenario ... -o ...
        sys.argv = ["tcsmfd", "uniqueness", "--samples", "30",
                    "--scenario", {str(scenario)!r}, "-o", {str(out)!r}]
        try:
            runpy.run_module("tcsmfd", run_name="__main__")
        except SystemExit as exc:
            assert not exc.code, exc.code
    """, "numpy.ma") == []
    assert (out / "uniqueness.json").is_file()
