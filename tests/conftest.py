import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from invariant_burgers import Reference


@pytest.fixture(scope="session")
def coeffs_nu01():
    """The reference solution at the standard benchmark viscosity."""
    return Reference(0.1)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails a test that leaves a child process behind, running or not
    reaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left behind: "
                f"{f'pid {pid}' if pid else 'one still runs'}")
