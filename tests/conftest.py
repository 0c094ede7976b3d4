import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import scalesort

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile("ci")

ADDRESS_SPACE = 1_500_000_000  # bytes


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.fixture
def capped_python():
    """Run `python ARGS` with this package in a child process capped at 1.5 GB
    of address space and 120 s, so that code which allocates by n ends in a
    MemoryError instead of filling the machine."""
    src = str(Path(scalesort.__file__).resolve().parent.parent)

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": src},
                              preexec_fn=_cap_address_space)
    return run
