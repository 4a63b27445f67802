import shutil
import subprocess
import sys
from pathlib import Path

FAILING_PROPERTY = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, max_examples=10, deadline=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 0


def test_after():
    pass
"""


def test_a_failing_property_is_reported_not_an_internal_error(tmp_path):
    # the suite's own conftest and warning filter, around a property that fails
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "pytest.ini").write_text("[pytest]\nfilterwarnings = error\n")
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
