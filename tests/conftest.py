import math
import os
import pathlib
import subprocess
import sys

import pytest

import nlametro

from nlametro.fock import FockVector
from nlametro.instrument import NlaParams
from nlametro.probes import ProbeSpec


@pytest.fixture
def vacuum():
    return FockVector([1.0])


@pytest.fixture
def two_level():
    s = 1.0 / math.sqrt(2.0)
    return FockVector([s, s])


@pytest.fixture
def coherent_nbar1():
    return ProbeSpec.from_nbar("coherent", 1.0).build()


@pytest.fixture
def squeezed_nbar1():
    return ProbeSpec.from_nbar("squeezed-vacuum", 1.0).build()


@pytest.fixture
def g2p1():
    return NlaParams(g=2.0, p=1)


def _run_python(*args, timeout=120, **environ):
    src = pathlib.Path(nlametro.__file__).resolve().parent.parent
    env = dict(os.environ, **environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))
    ))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout
    )


@pytest.fixture
def run_python():
    """``run_python(*args, timeout=120, **environ)`` runs a fresh interpreter
    that imports this checkout's nlametro.

    ``environ`` adds variables to the inherited environment.
    """
    return _run_python
