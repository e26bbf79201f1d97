"""The repository's pytest configuration reports failures instead of aborting."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = textwrap.dedent(
    """
    from hypothesis import given, settings, strategies as st


    @settings(max_examples=5, database=None)
    @given(st.integers())
    def test_failing_property(n):
        assert n != n


    def test_passing():
        pass
    """
)


def test_failed_property_does_not_end_the_session(tmp_path):
    # warnings are errors under this config; one raised while hypothesis
    # reports a falsifying example must not turn into an INTERNALERROR that
    # drops the tests after it
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
