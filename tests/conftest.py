"""Shared fixtures: one uniform-field Problem per representation, per session.

Unit tests run at N=640 / n_max=6: fast, yet fine enough that the raw
zero-mode eigenvalue lands inside the solver's 1e-8 clamp window (at
N=512 it sits just outside and stays a flagged negative).  The acceptance
harness builds its own N=1024 problem.
"""

import sys

import numpy as np
import pytest

from ritusfw.clifford import make_rep
from ritusfw.field_profiles import uniform_profile
from ritusfw.problem import Problem
from ritusfw.spectral_grid import GridConfig


@pytest.fixture(scope="session")
def uni():
    return Problem(uniform_profile(1.0), make_rep("first"), p_y=0.0, e=1.0, m=1.0, p0=0.3,
                   n_max=6, grid_config=GridConfig(n_points=640), tol_eig=1e-6)


@pytest.fixture(scope="session")
def uni_second(uni):
    return uni.other_rep()


@pytest.fixture()
def rng():
    return np.random.default_rng(20260814)


def pytest_terminal_summary(terminalreporter):
    acceptance = sys.modules.get("test_acceptance")
    lines = getattr(acceptance, "LINES", None)
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
